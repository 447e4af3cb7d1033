"""Tests for curve neighborhoods of Schubert varieties.

The label of the degree-d neighborhood is the Demazure product with z_d
projected to the minimal representative; the class-level operator is the
iterated Demazure operator along z_d.  The incidence closed form is an
independent cross-check of both.
"""

from itertools import product

import pytest

from qkflag.curves import curve_neighborhood_schubert
from qkflag.ktheory import bundle_class, scalar_class, schubert_class
from qkflag.weyl import (
    FlagSpace,
    bruhat_leq,
    coset_max,
    coset_min,
    demazure_product,
    identity,
    longest_element,
    min_coset_reps,
    z_d,
)

from reference import class_neighborhood, incidence_neighborhood_label, pullback


def degree_grid(k, bound):
    return [d for d in product(range(bound + 1), repeat=k)]


def test_zero_degree_is_identity():
    for space in [FlagSpace.full(3), FlagSpace(4, (1, 3)), FlagSpace(4, (2,))]:
        zero = (0,) * space.k
        for w in min_coset_reps(space):
            assert curve_neighborhood_schubert(space, w, zero) == w
        sigma = bundle_class(space, 1, 1)
        assert class_neighborhood(sigma, zero) == pullback(sigma)
    full = FlagSpace.full(3)
    sigma = bundle_class(full, 2, 1)
    assert class_neighborhood(sigma, (0, 0)) == sigma


def test_point_neighborhood_saturates_to_whole_space():
    full = FlagSpace.full(3)
    assert curve_neighborhood_schubert(full, identity(3), (1, 1)) == longest_element(3)
    inc = FlagSpace(4, (1, 3))
    top = coset_min(inc, longest_element(4))
    assert curve_neighborhood_schubert(inc, identity(4), (2, 1)) == top


def test_class_neighborhood_moves_schubert_classes():
    for n, bound in ((3, 2), (4, 1)):
        space = FlagSpace.full(n)
        for d in degree_grid(n - 1, bound):
            z = z_d(space, d)
            for u in min_coset_reps(space):
                moved = class_neighborhood(schubert_class(space, u, "B"), d)
                target = demazure_product(u, z)
                assert moved == schubert_class(space, target, "B")


def test_saturation_commutes_with_neighborhood():
    # the class-level route saturates the label's coset: the Hecke product
    # of the maximal representative with z_d is the maximal representative
    # of the projected label's coset
    for space in [FlagSpace(3, (1,)), FlagSpace(4, (1, 3)), FlagSpace(4, (2,)), FlagSpace(4, (3,))]:
        for d in degree_grid(space.k, 2):
            z = z_d(space, d)
            for w in min_coset_reps(space):
                label = curve_neighborhood_schubert(space, w, d)
                lifted = demazure_product(coset_max(space, w), z)
                assert lifted == coset_max(space, label)


def test_partial_schubert_class_neighborhood():
    for space in [FlagSpace(4, (1, 3)), FlagSpace(4, (2,))]:
        full = FlagSpace.full(space.n)
        for d in degree_grid(space.k, 1):
            for w in min_coset_reps(space):
                label = curve_neighborhood_schubert(space, w, d)
                moved = class_neighborhood(schubert_class(space, w, "B"), d)
                assert moved == schubert_class(full, coset_max(space, label), "B")


def test_incidence_closed_form_matches_demazure_route():
    for n in (3, 4):
        space = FlagSpace(n, (1, n - 1))
        for d in degree_grid(2, 2):
            for w in min_coset_reps(space):
                direct = curve_neighborhood_schubert(space, w, d)
                closed = incidence_neighborhood_label(space, w, d)
                assert direct == closed


def test_incidence_branches_explicitly():
    space = FlagSpace(4, (1, 3))
    w = (2, 1, 3, 4)
    # hyperplane fixed: saturate within the first two simple directions
    assert incidence_neighborhood_label(space, w, (1, 0)) == coset_min(
        space, demazure_product(w, (3, 2, 1, 4))
    )
    # line fixed: saturate within the last two simple directions
    assert incidence_neighborhood_label(space, w, (0, 1)) == coset_min(
        space, demazure_product(w, (1, 4, 3, 2))
    )
    assert incidence_neighborhood_label(space, w, (1, 2)) == coset_min(
        space, longest_element(4)
    )


def test_wedge_neighborhood_shift():
    # moving a wedge of S_i one step along a degree supported at i lands on
    # the same wedge of S_{i-1} at the lowered degree, when the next degree
    # component vanishes
    for n in (3, 4):
        space = FlagSpace.full(n)
        for d in degree_grid(n - 1, 2):
            for i in range(1, n):
                if d[i - 1] == 0:
                    continue
                if i < n - 1 and d[i] != 0:
                    continue
                lowered = tuple(x - 1 if j == i - 1 else x for j, x in enumerate(d))
                for ell in range(1, i + 1):
                    lhs = class_neighborhood(bundle_class(space, i, ell), d)
                    rhs = class_neighborhood(bundle_class(space, i - 1, ell), lowered)
                    assert lhs == rhs


def test_neighborhood_monotone_in_degree():
    for space in [FlagSpace.full(3), FlagSpace.full(4), FlagSpace(4, (1, 3)), FlagSpace(4, (2,))]:
        k = space.k
        for d in degree_grid(k, 1):
            for j in range(k):
                bigger = tuple(x + 1 if idx == j else x for idx, x in enumerate(d))
                for w in min_coset_reps(space):
                    small = curve_neighborhood_schubert(space, w, d)
                    large = curve_neighborhood_schubert(space, w, bigger)
                    assert bruhat_leq(small, large)


def test_neighborhood_contains_start():
    space = FlagSpace(4, (1, 3))
    for d in degree_grid(2, 1):
        for w in min_coset_reps(space):
            assert bruhat_leq(w, curve_neighborhood_schubert(space, w, d))


def test_input_validation():
    space = FlagSpace(4, (1, 3))
    with pytest.raises(ValueError):
        curve_neighborhood_schubert(space, (1, 3, 2, 4), (1, 0))
    with pytest.raises(ValueError):
        curve_neighborhood_schubert(space, (2, 1, 3, 4), (1,))
    with pytest.raises(ValueError):
        curve_neighborhood_schubert(space, (2, 1, 3, 4), (-1, 0))
    with pytest.raises(ValueError):
        incidence_neighborhood_label(FlagSpace(4, (2,)), (2, 1, 3, 4), (1, 0))
    with pytest.raises(ValueError):
        class_neighborhood(scalar_class(space, 1), (1,))
