"""Tests for the fixed-point model of equivariant K-theory.

Conventions under test (all pinned by explicit identities rather than prose):
the Euler characteristic of every Schubert structure sheaf is 1, Demazure
operators move Schubert classes along right multiplication, and the pairing
chi(O_u . O^v) is the Bruhat incidence indicator.
"""

import random
import warnings

import pytest

from qkflag.algebra import (
    LaurentPolynomial,
    RationalFunction,
    elem_sym,
)
from qkflag.ktheory import (
    KClass,
    bundle_class,
    bundle_quotient_class,
    demazure_op,
    demazure_word,
    det_class,
    euler_char,
    expand_schubert,
    one_class,
    pairings,
    pullback,
    scalar_class,
    schubert_class,
    zero_class,
)
from qkflag.weyl import (
    FlagSpace,
    Root,
    bruhat_leq,
    compose,
    coset_max,
    coset_min,
    demazure_product,
    identity,
    length,
    longest_element,
    min_coset_reps,
    parabolic_longest,
    reduced_word,
    right_mul,
    simple_reflection,
)


def tvar(n, a):
    # 1-based torus character T_a as a Laurent polynomial
    return LaurentPolynomial.variable(n, a)


def rf(x, n):
    return RationalFunction.of(x, n)


def small_spaces():
    return [
        FlagSpace.full(3),
        FlagSpace(3, (1,)),
        FlagSpace(4, (1, 3)),
        FlagSpace(4, (2,)),
        FlagSpace.full(4),
    ]


def random_laurent(rng, n):
    p = LaurentPolynomial.zero(n)
    while p.is_zero():
        for _ in range(rng.randint(1, 3)):
            exp = tuple(rng.randint(-2, 2) for _ in range(n))
            p = p + LaurentPolynomial.monomial(n, exp, rng.randint(-3, 3))
    return p

def random_class(rng, space):
    vals = {}
    for w in min_coset_reps(space):
        vals[w] = rf(random_laurent(rng, space.n), space.n)
    return KClass(space, vals)


def all_reduced_words(w):
    n = len(w)
    if length(w) == 0:
        yield ()
        return
    for i in range(1, n):
        if w[i - 1] > w[i]:
            for tail in all_reduced_words(right_mul(w, i)):
                yield tail + (i,)


def test_euler_char_of_structure_sheaf_is_one():
    for space in small_spaces() + [FlagSpace.full(2), FlagSpace(5, (2, 3))]:
        assert euler_char(one_class(space)) == rf(1, space.n)


def test_euler_char_of_point_classes():
    for n in (2, 3, 4):
        space = FlagSpace.full(n)
        bottom = schubert_class(space, identity(n), "B")
        top = schubert_class(space, longest_element(n), "B-")
        assert euler_char(bottom) == rf(1, n)
        assert euler_char(top) == rf(1, n)
        for w in min_coset_reps(space):
            if w != identity(n):
                assert bottom.at(w).is_zero()
            if w != longest_element(n):
                assert top.at(w).is_zero()


def test_schubert_class_supports():
    for space in [FlagSpace.full(3), FlagSpace(4, (1, 3)), FlagSpace(4, (2,))]:
        reps = min_coset_reps(space)
        for w in reps:
            lower = schubert_class(space, w, "B")
            upper = schubert_class(space, w, "B-")
            assert not lower.at(w).is_zero()
            assert not upper.at(w).is_zero()
            for v in reps:
                if not bruhat_leq(v, w):
                    assert lower.at(v).is_zero()
                if not bruhat_leq(w, v):
                    assert upper.at(v).is_zero()
        top = max(reps, key=length)
        assert schubert_class(space, top, "B") == one_class(space)
        assert schubert_class(space, identity(space.n), "B-") == one_class(space)


def test_demazure_moves_schubert_classes():
    for n in (2, 3, 4):
        space = FlagSpace.full(n)
        for u in min_coset_reps(space):
            cls = schubert_class(space, u, "B")
            for i in range(1, n):
                usi = right_mul(u, i)
                target = usi if length(usi) > length(u) else u
                assert demazure_op(i, cls) == schubert_class(space, target, "B")


def test_demazure_moves_opposite_classes():
    for n in (2, 3, 4):
        space = FlagSpace.full(n)
        for u in min_coset_reps(space):
            cls = schubert_class(space, u, "B-")
            for i in range(1, n):
                usi = right_mul(u, i)
                target = usi if length(usi) < length(u) else u
                assert demazure_op(i, cls) == schubert_class(space, target, "B-")


def test_demazure_word_independence():
    space = FlagSpace.full(3)
    seed = schubert_class(space, identity(3), "B")
    for w in min_coset_reps(space):
        expected = schubert_class(space, w, "B")
        for word in all_reduced_words(w):
            assert demazure_word(word, seed) == expected
    space4 = FlagSpace.full(4)
    seed4 = schubert_class(space4, identity(4), "B")
    w0 = longest_element(4)
    for word in all_reduced_words(w0):
        assert demazure_word(word, seed4) == one_class(space4)


def test_demazure_is_projection_and_satisfies_braid():
    rng = random.Random(7)
    space = FlagSpace.full(3)
    for _ in range(30):
        sigma = random_class(rng, space)
        for i in (1, 2):
            once = demazure_op(i, sigma)
            assert demazure_op(i, once) == once
            for w in min_coset_reps(space):
                assert once.at(w) == once.at(right_mul(w, i))
        left = demazure_op(1, demazure_op(2, demazure_op(1, sigma)))
        right = demazure_op(2, demazure_op(1, demazure_op(2, sigma)))
        assert left == right
    space4 = FlagSpace.full(4)
    for _ in range(8):
        sigma = random_class(rng, space4)
        assert demazure_op(1, demazure_op(3, sigma)) == demazure_op(3, demazure_op(1, sigma))
        left = demazure_op(2, demazure_op(3, demazure_op(2, sigma)))
        right = demazure_op(3, demazure_op(2, demazure_op(3, sigma)))
        assert left == right


def test_demazure_is_linear_over_constants():
    rng = random.Random(11)
    space = FlagSpace.full(3)
    for _ in range(10):
        sigma = random_class(rng, space)
        tau = random_class(rng, space)
        c = random_laurent(rng, 3)
        for i in (1, 2):
            combined = demazure_op(i, sigma * c + tau)
            assert combined == demazure_op(i, sigma) * c + demazure_op(i, tau)


def test_euler_char_schubert_classes_are_one():
    for space in small_spaces():
        for w in min_coset_reps(space):
            assert euler_char(schubert_class(space, w, "B")) == rf(1, space.n)
            assert euler_char(schubert_class(space, w, "B-")) == rf(1, space.n)


def test_pairing_matrix_is_bruhat_indicator():
    for space in small_spaces():
        reps = min_coset_reps(space)
        for u in reps:
            lower = schubert_class(space, u, "B")
            for v in reps:
                upper = schubert_class(space, v, "B-")
                expected = 1 if bruhat_leq(v, u) else 0
                assert euler_char(lower * upper) == rf(expected, space.n)


def test_bundle_class_values():
    for space in small_spaces():
        n = space.n
        ranks = space.ranks + (n,)
        for w in min_coset_reps(space):
            for j, r in enumerate(ranks, start=1):
                for ell in range(r + 1):
                    vars_ = [tvar(n, w[p]) for p in range(r)]
                    expected = elem_sym(vars_, ell)
                    assert bundle_class(space, j, ell).at(w) == rf(expected, n)
        full = elem_sym([tvar(n, a) for a in range(1, n + 1)], n)
        assert det_class(space, space.k + 1) == scalar_class(space, full)


@pytest.mark.parametrize("space", [FlagSpace(3, (1, 2)), FlagSpace(4, (2,)),
                                   FlagSpace.full(4)])
def test_det_of_zero_bundle_is_unit_class(space):
    # S_0 = 0 has rank 0, so its determinant is the structure sheaf
    assert det_class(space, 0) == one_class(space)


def test_bundle_quotient_values():
    space = FlagSpace(4, (1, 3))
    for w in min_coset_reps(space):
        assert bundle_quotient_class(space, 0, 1).at(w) == rf(tvar(4, w[0]), 4)
        got = bundle_quotient_class(space, 1, 2).at(w)
        assert got == rf(tvar(4, w[1]) * tvar(4, w[2]), 4)
        assert bundle_quotient_class(space, 2, 1).at(w) == rf(tvar(4, w[3]), 4)


def test_whitney_sum_pointwise():
    spaces = small_spaces() + [FlagSpace(5, (2, 3)), FlagSpace(5, (1, 4)), FlagSpace.full(5)]
    for space in spaces:
        edges = (0,) + space.ranks + (space.n,)
        for j in range(1, space.k + 2):
            # e_m(S_j) = sum_a e_a(S_{j-1}) e_{m-a}(S_j/S_{j-1})
            quot_rank = edges[j] - edges[j - 1]
            for m in range(edges[j] + 1):
                rhs = zero_class(space)
                for a in range(max(0, m - quot_rank), min(m, edges[j - 1]) + 1):
                    sub = bundle_class(space, j - 1, a) if j > 1 else one_class(space)
                    rhs = rhs + sub * bundle_quotient_class(space, j - 1, m - a)
                assert bundle_class(space, j, m) == rhs


def test_full_flag_wedge_recursion():
    for n in (2, 3, 4):
        space = FlagSpace.full(n)
        for k in range(1, n):
            line = bundle_quotient_class(space, k - 1, 1)
            for ell in range(1, k + 1):
                lhs = bundle_class(space, k, ell)
                rhs = bundle_class(space, k - 1, ell) + bundle_class(space, k - 1, ell - 1) * line
                assert lhs == rhs


def test_demazure_on_bundle_classes():
    for n in (3, 4):
        space = FlagSpace.full(n)
        for k in range(1, n):
            for ell in range(1, k + 1):
                wedge = bundle_class(space, k, ell)
                for i in range(1, n):
                    moved = demazure_op(i, wedge)
                    if i == k:
                        assert moved == bundle_class(space, k - 1, ell)
                    else:
                        assert moved == wedge


def test_demazure_along_root_words():
    for n in (3, 4):
        space = FlagSpace.full(n)
        for a in range(1, n):
            for i in range(a, n):
                word = Root(a, i + 1).word()
                for k in range(1, n):
                    for ell in range(1, k + 1):
                        wedge = bundle_class(space, k, ell)
                        moved = demazure_word(word, wedge)
                        if a <= k <= i:
                            assert moved == bundle_class(space, a - 1, ell)
                        else:
                            assert moved == wedge


def test_determinant_line_identity():
    for space in small_spaces():
        n = space.n
        for j, r in enumerate(space.ranks, start=1):
            mono = LaurentPolynomial.monomial(n, tuple([1] * r + [0] * (n - r)))
            opposite = schubert_class(space, simple_reflection(n, r), "B-")
            rhs = (one_class(space) - opposite) * mono
            assert det_class(space, j) == rhs


def test_expand_schubert_recovers_indicators():
    for space in [FlagSpace.full(3), FlagSpace(4, (1, 3))]:
        reps = min_coset_reps(space)
        for w in reps:
            for basis in ("B", "B-"):
                coords = expand_schubert(schubert_class(space, w, basis), basis)
                for v in reps:
                    expected = 1 if v == w else 0
                    assert coords[v] == rf(expected, space.n)
        top = max(reps, key=length)
        coords = expand_schubert(one_class(space), "B")
        assert coords[top] == rf(1, space.n)
        assert sum(1 for v in reps if not coords[v].is_zero()) == 1


def test_expand_schubert_roundtrip_integer_combination():
    rng = random.Random(3)
    space = FlagSpace(4, (2,))
    reps = min_coset_reps(space)
    chosen = {w: rng.randint(-2, 2) for w in reps}
    sigma = zero_class(space)
    for w, c in chosen.items():
        sigma = sigma + schubert_class(space, w, "B") * c
    coords = expand_schubert(sigma, "B")
    for w in reps:
        assert coords[w] == rf(chosen[w], 4)


def test_expand_schubert_determinant_in_opposite_basis():
    space = FlagSpace(4, (1, 3))
    n = 4
    for j, r in enumerate(space.ranks, start=1):
        coords = expand_schubert(det_class(space, j), "B-")
        mono = rf(LaurentPolynomial.monomial(n, tuple([1] * r + [0] * (n - r))), n)
        for v in min_coset_reps(space):
            if v == identity(n):
                assert coords[v] == mono
            elif v == simple_reflection(n, r):
                assert coords[v] == -mono
            else:
                assert coords[v].is_zero()


def _crosscheck_classes(space):
    # both Schubert variants and det S_j * O_w; beyond six fixed points,
    # three labels of spread lengths keep the Euler-characteristic
    # reference affordable
    reps = min_coset_reps(space)
    for w in (reps if len(reps) <= 6 else reps[::len(reps) // 3]):
        yield schubert_class(space, w, "B")
        yield schubert_class(space, w, "B-")
        for j in range(1, space.k + 1):
            yield det_class(space, j) * schubert_class(space, w, "B")


def test_expansions_and_pairings_match_euler_char():
    # chi(O_w * O^v) = [v <= w], so chi(sigma * O^v) sums the O_w coordinates
    # over w >= v, and chi(sigma * O_g) sums the O^v coordinates over v <= g;
    # the Bruhat indicator is invertible, so these pin every coordinate
    for space in [FlagSpace(3, (1, 2)), FlagSpace(4, (2,)), FlagSpace(4, (1, 3)),
                  FlagSpace.full(4)]:
        reps = min_coset_reps(space)
        zero = rf(0, space.n)
        for sigma in _crosscheck_classes(space):
            lower = expand_schubert(sigma, "B")
            upper = expand_schubert(sigma, "B-")
            paired = pairings(sigma)
            for v in reps:
                chi_upper = euler_char(sigma * schubert_class(space, v, "B-"))
                assert chi_upper == sum((lower[w] for w in reps if bruhat_leq(v, w)), zero)
                chi_lower = euler_char(sigma * schubert_class(space, v, "B"))
                assert chi_lower == sum((upper[u] for u in reps if bruhat_leq(u, v)), zero)
                assert paired[v] == chi_lower


def test_expand_schubert_reports_non_laurent_coordinates():
    space = FlagSpace.full(2)
    vals = {identity(2): rf(1, 2), simple_reflection(2, 1): rf(0, 2)}
    sigma = KClass(space, vals)
    with pytest.warns(RuntimeWarning):
        coords = expand_schubert(sigma, "B")
    assert not coords[identity(2)].is_laurent()


def test_euler_char_warns_when_denominator_survives():
    space = FlagSpace.full(2)
    vals = {identity(2): rf(1, 2), simple_reflection(2, 1): rf(0, 2)}
    sigma = KClass(space, vals)
    with pytest.warns(RuntimeWarning):
        chi = euler_char(sigma)
    assert not chi.is_laurent()
    expected = rf(1, 2) / rf(LaurentPolynomial.one(2) - tvar(2, 1) * tvar(2, 2).inverse_unit(), 2)
    assert chi == expected


def test_euler_char_is_linear_over_constants():
    rng = random.Random(19)
    space = FlagSpace(3, (1,))
    for _ in range(10):
        sigma = random_class(rng, space)
        tau = random_class(rng, space)
        c = random_laurent(rng, 3)
        with warnings.catch_warnings():
            # random classes are not sheaf classes, surviving denominators
            # are expected here
            warnings.simplefilter("ignore", RuntimeWarning)
            lhs = euler_char(sigma * c + tau)
            rhs = euler_char(sigma) * rf(c, 3) + euler_char(tau)
        assert lhs == rhs


def test_pullback_matches_native_full_flag_classes():
    space = FlagSpace(3, (1,))
    full = FlagSpace.full(3)
    for w in min_coset_reps(space):
        assert pullback(schubert_class(space, w, "B-")) == schubert_class(full, w, "B-")
        lifted = pullback(schubert_class(space, w, "B"))
        assert lifted == schubert_class(full, coset_max(space, w), "B")
    assert pullback(bundle_class(space, 1, 1)) == bundle_class(full, 1, 1)


def test_full_flag_classes_are_coset_constant():
    for space in [FlagSpace(3, (1,)), FlagSpace(4, (1, 3)), FlagSpace(4, (2,))]:
        full = FlagSpace.full(space.n)
        for w in min_coset_reps(space):
            upper = schubert_class(full, w, "B-")
            lower = schubert_class(full, coset_max(space, w), "B")
            for u in min_coset_reps(full):
                v = coset_min(space, u)
                assert upper.at(u) == upper.at(v)
                assert lower.at(u) == lower.at(v)
        back = KClass(space, {v: lower.at(v) for v in min_coset_reps(space)})
        assert back == schubert_class(space, w, "B")


def test_pushforward_vanishing_for_intermediate_wedges():
    for n in (3, 4):
        space = FlagSpace(n, (1, n - 1))
        fiber = parabolic_longest(n, range(2, n))
        for w in min_coset_reps(space):
            label = coset_min(space, demazure_product(w, fiber))
            saturated = schubert_class(space, label, "B")
            for ell in range(1, n - 1):
                wedge = bundle_quotient_class(space, 1, ell)
                assert euler_char(wedge * saturated) == rf(0, n)


def test_schubert_class_rejects_non_minimal_representatives():
    space = FlagSpace(3, (1,))
    with pytest.raises(ValueError):
        schubert_class(space, (1, 3, 2), "B")
    with pytest.raises(ValueError):
        schubert_class(space, (2, 1, 3), "nope")
    with pytest.raises(ValueError):
        demazure_op(1, one_class(space))


def test_kclass_arithmetic():
    space = FlagSpace.full(3)
    a = bundle_class(space, 1, 1)
    assert a - a == zero_class(space)
    assert (a + a) == a * 2
    assert -a == a * (-1)
    assert a * one_class(space) == a
    with pytest.raises(ValueError):
        a.at((9, 9, 9))
    other = one_class(FlagSpace.full(4))
    with pytest.raises(ValueError):
        a + other
