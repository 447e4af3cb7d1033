"""Quantum products through curve neighborhoods.

Two- and three-point invariants, the quantum metric, products with line
bundles, and the verification reports.  Expected values come from classical
Euler characteristics computed directly, plus the structural facts that the
degree-zero sector is classical and that pairings against a determinant
line vanish in positive degree along its own step.
"""

import hashlib
import json
from fractions import Fraction
from itertools import permutations
from math import prod
from operator import sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkflag import ktheory, presentation, qk
from qkflag.algebra import LaurentPolynomial, QSeries, render_qseries, t_elem
from qkflag.curves import curve_neighborhood_schubert
from qkflag.ktheory import (
    bundle_class,
    bundle_quotient_class,
    det_class,
    euler_char,
    expand_schubert,
    scalar_class,
    schubert_class,
)
from qkflag.qk import (
    GWOracle,
    QKElement,
    basis_element,
    conjectural_product_fln,
    degree_box,
    embed_classical,
    gw2,
    gw3_divisor,
    line_bundle_product,
    line_bundle_solve,
    quantum_gram,
    verify_flag_reduction,
    verify_qk_whitney,
)
from qkflag.weyl import (
    FlagSpace,
    bruhat_leq,
    coset_max,
    identity,
    length,
    longest_element,
    min_coset_reps,
    right_mul,
    z_d,
)

from reference import class_neighborhood, classical_part, simple_reflection

FL3 = FlagSpace(3, (1, 2))
FL134 = FlagSpace(4, (1, 3))
GR24 = FlagSpace(4, (2,))
FL4 = FlagSpace.full(4)
FL235 = FlagSpace(5, (2, 3))


def laurent(x, n):
    # an int or Laurent polynomial as a Laurent polynomial in n variables
    return LaurentPolynomial.one(n) * x


def test_degree_box_order():
    assert degree_box(2, 1) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert degree_box(1, 2) == [(0,), (1,), (2,)]
    assert degree_box(2, 0) == [(0, 0)]
    with pytest.raises(ValueError):
        degree_box(2, -1)


def test_gw2_degree_zero_is_classical():
    sigma = bundle_class(FL3, 2, 1)
    for w in min_coset_reps(FL3):
        expected = euler_char(sigma * schubert_class(FL3, w, "B"))
        assert gw2(sigma, w, (0, 0)) == expected


def test_gw2_of_structure_sheaf_is_one():
    # a curve neighborhood is again a Schubert variety, so its structure
    # sheaf has Euler characteristic one
    one3 = scalar_class(FL3, 1)
    for w in min_coset_reps(FL3):
        for d in degree_box(2, 2):
            assert gw2(one3, w, d) == laurent(1, 3)
    one4 = scalar_class(GR24, 1)
    for w in min_coset_reps(GR24):
        for d in degree_box(1, 2):
            assert gw2(one4, w, d) == laurent(1, 4)


def test_two_point_determinant_vanishing():
    # the localization computation must reproduce the vanishing of
    # <det S_j, O_w>_d whenever d_j > 0; nothing in gw2 branches on d
    cases = [(FL3, 2), (GR24, 2), (FL134, 1), (FlagSpace.full(4), 1)]
    for space, bound in cases:
        for j in range(1, space.k + 1):
            det = det_class(space, j)
            for w in min_coset_reps(space):
                for d in degree_box(space.k, bound):
                    if d[j - 1] == 0:
                        continue
                    assert gw2(det, w, d).is_zero()


def test_gw3_oracle_branches():
    oracle = GWOracle("incidence-proven", FL3)
    sigma = bundle_class(FL3, 2, 1)
    for w in min_coset_reps(FL3):
        assert gw3_divisor(oracle, ("det", 1), sigma, w, (1, 0)).is_zero()
        assert gw3_divisor(oracle, ("det", 2), sigma, w, (0, 2)).is_zero()
        g = curve_neighborhood_schubert(FL3, w, (0, 1))
        direct = euler_char(det_class(FL3, 1) * sigma * schubert_class(FL3, g, "B"))
        assert gw3_divisor(oracle, ("det", 1), sigma, w, (0, 1)) == direct
        classical = euler_char(det_class(FL3, 1) * sigma * schubert_class(FL3, w, "B"))
        assert gw3_divisor(oracle, ("det", 1), sigma, w, (0, 0)) == classical


def test_gw3_affine_descriptor_is_linear():
    oracle = GWOracle("incidence-proven", FL3)
    sigma = bundle_quotient_class(FL3, 1, 1)
    c1 = LaurentPolynomial.variable(3, 2)
    for w in min_coset_reps(FL3):
        for d in degree_box(2, 1):
            combo = gw3_divisor(oracle, ("affine", 2, c1, 2), sigma, w, d)
            parts = laurent(2, 3) * gw2(sigma, w, d) \
                + laurent(c1, 3) * gw3_divisor(oracle, ("det", 2), sigma, w, d)
            assert combo == parts


def test_opposite_divisor_class_identity():
    # 1 - O^{s_r} equals det S_j twisted by its value at the identity coset
    for space, j in [(FL3, 1), (FL3, 2), (GR24, 1), (FL134, 2)]:
        n, r = space.n, space.ranks[j - 1]
        s = simple_reflection(n, r)
        minv = LaurentPolynomial(n, {tuple(-1 if a < r else 0 for a in range(n)): 1})
        opp = schubert_class(space, s, "B-")
        expected = scalar_class(space, 1) - det_class(space, j) * minv
        assert opp == expected


def test_opposite_descriptor_matches_direct_pairing():
    oracle = GWOracle("incidence-proven", FL3)
    sigma = bundle_class(FL3, 2, 2)
    s2 = simple_reflection(3, 2)
    opp = schubert_class(FL3, s2, "B-")
    for w in min_coset_reps(FL3):
        # positive degree along step 2 leaves the plain two-point value
        assert gw3_divisor(oracle, ("opposite", 2), sigma, w, (0, 1)) == gw2(sigma, w, (0, 1))
        # degree zero along step 2 pairs the opposite divisor classically
        for d in [(0, 0), (1, 0), (2, 0)]:
            g = curve_neighborhood_schubert(FL3, w, d)
            direct = euler_char(opp * sigma * schubert_class(FL3, g, "B"))
            assert gw3_divisor(oracle, ("opposite", 2), sigma, w, d) == direct


def test_first_step_line_products_recurse_to_two_point():
    # <det S_1, det(S_2/S_1), O_w>_d telescopes into two-point values of
    # det S_2 at d and at d lowered along the first step
    for space, bound in [(FL3, 2), (FL134, 1)]:
        oracle = GWOracle("incidence-proven", space)
        dq = bundle_quotient_class(space, 1, space.ranks[1] - space.ranks[0])
        det2 = det_class(space, 2)
        for w in min_coset_reps(space):
            for d in degree_box(2, bound):
                lhs = gw3_divisor(oracle, ("det", 1), dq, w, d)
                rhs = gw2(det2, w, d)
                if d[0] > 0:
                    rhs = rhs - gw2(det2, w, (d[0] - 1, d[1]))
                assert lhs == rhs


def test_invariant_values_are_laurent():
    oracle = GWOracle("incidence-proven", FL3)
    sigma = bundle_class(FL3, 2, 1)
    for w in min_coset_reps(FL3):
        for d in degree_box(2, 1):
            for value in (gw2(sigma, w, d), gw3_divisor(oracle, ("det", 2), sigma, w, d)):
                assert isinstance(value, LaurentPolynomial) and value.nvars == 3


def test_pairing_vectors_match_single_invariants(drop_vanishing):
    # a table read off one expansion per class must agree with the
    # single-value route, one euler_char per (u, d), with the vanishing rule
    # on step j kept and dropped
    for space, bound in [(FL3, 2), (FL134, 1)]:
        sigma = bundle_class(space, 2, 1)
        oracle = GWOracle("incidence-proven", space)
        for j in (0, 1, 2):
            for dropped in ((), (j,)):
                with drop_vanishing(*dropped):
                    vec = qk._pairing_vector(j, sigma, bound)
                    for u in min_coset_reps(space):
                        for d in degree_box(2, bound):
                            if j == 0:
                                expected = gw2(sigma, u, d)
                            else:
                                expected = gw3_divisor(oracle, ("det", j), sigma, u, d)
                            assert vec.at(u).coeffs.get(d, laurent(0, space.n)) == expected


def test_quantum_gram_constant_term_is_bruhat_indicator():
    for space in (FL3, GR24):
        gram = quantum_gram(space, 1)
        n = space.n
        for u in min_coset_reps(space):
            for v in min_coset_reps(space):
                c0 = gram[u][v].constant_term()
                if bruhat_leq(v, u):
                    assert c0 == laurent(1, n)
                else:
                    assert c0.is_zero()


def test_quantum_gram_entries_match_invariants():
    # the metric is built from Bruhat order alone; Euler characteristics
    # of the opposite classes over the neighborhoods are the reference
    for space, bound in [(FL3, 1), (GR24, 2), (FL134, 1), (FlagSpace.full(4), 1)]:
        gram = quantum_gram(space, bound)
        for u in min_coset_reps(space):
            for v in min_coset_reps(space):
                opp = schubert_class(space, v, "B-")
                for d in degree_box(space.k, bound):
                    expected = gw2(opp, u, d)
                    got = gram[u][v].coeffs.get(d, laurent(0, space.n))
                    assert got == expected


def test_identity_line_bundle_acts_trivially():
    oracle = GWOracle("incidence-proven", FL3)
    reps = min_coset_reps(FL3)
    sigma = basis_element(FL3, reps[3], 2)
    assert line_bundle_product(oracle, ("affine", 1, 0, 1), sigma) == sigma
    tau = embed_classical(bundle_class(FL3, 2, 1), 2)
    assert line_bundle_product(oracle, ("affine", 1, 0, 1), tau) == tau


def test_product_with_unit_is_embedding():
    # det S_j * 1 has no quantum corrections at all
    oracle = GWOracle("incidence-proven", FL3)
    unit = embed_classical(scalar_class(FL3, 1), 2)
    for j in (1, 2):
        got = line_bundle_product(oracle, ("det", j), unit)
        assert got == embed_classical(det_class(FL3, j), 2)


def test_product_degree_zero_part_is_classical():
    oracle = GWOracle("incidence-proven", FL3)
    for w in min_coset_reps(FL3):
        got = line_bundle_product(oracle, ("det", 1), basis_element(FL3, w, 1))
        expected = det_class(FL3, 1) * schubert_class(FL3, w, "B")
        assert classical_part(got) == expected


def test_opposite_divisor_product_degree_zero_part_is_classical():
    # ("opposite", j) has a nonzero constant part c0, which is applied
    # without the metric; the q = 0 part must still be the classical product
    oracle = GWOracle("incidence-proven", FL3)
    for j in (1, 2):
        opp = schubert_class(FL3, simple_reflection(3, FL3.ranks[j - 1]), "B-")
        for w in min_coset_reps(FL3):
            got = line_bundle_product(oracle, ("opposite", j), basis_element(FL3, w, 2))
            assert classical_part(got) == opp * schubert_class(FL3, w, "B")


def test_adjacent_determinant_products():
    # det S_j times the determinant of the next quotient picks up 1 - q_j
    oracle = GWOracle("incidence-proven", FL3)
    one_q = QSeries.one(2, 3, 2)
    q1 = QSeries.q(2, 3, 2, 1)
    q2 = QSeries.q(2, 3, 2, 2)
    got = line_bundle_product(
        oracle, ("det", 1), embed_classical(bundle_quotient_class(FL3, 1, 1), 2))
    assert got == embed_classical(det_class(FL3, 2), 2) * (one_q - q1)
    got = line_bundle_product(
        oracle, ("det", 2), embed_classical(bundle_quotient_class(FL3, 2, 1), 2))
    assert got == embed_classical(scalar_class(FL3, t_elem(3, 3)), 2) * (one_q - q2)


def test_adjacent_determinant_products_bigger_space():
    oracle = GWOracle("incidence-proven", FL134)
    one_q = QSeries.one(2, 4, 1)
    q1 = QSeries.q(2, 4, 1, 1)
    dq = bundle_quotient_class(FL134, 1, 2)
    got = line_bundle_product(oracle, ("det", 1), embed_classical(dq, 1))
    assert got == embed_classical(det_class(FL134, 2), 1) * (one_q - q1)


def test_wedge_ladder_products():
    # det S_2 * (e_ell - wedge^ell S_2) on the rank (1, 2) space
    oracle = GWOracle("incidence-proven", FL3)
    q2 = QSeries.q(2, 3, 2, 2)
    e_top = t_elem(3, 3)
    for ell in range(1, 4):
        mid = scalar_class(FL3, t_elem(3, ell)) - bundle_class(FL3, 2, ell)
        lhs = line_bundle_product(oracle, ("det", 2), embed_classical(mid, 2))
        rhs = (embed_classical(bundle_class(FL3, 2, ell - 1), 2)
               - embed_classical(bundle_class(FL3, 1, ell - 1), 2) * q2) * e_top
        assert lhs == rhs


def test_products_commute():
    oracle = GWOracle("incidence-proven", FL3)
    a = line_bundle_product(oracle, ("det", 1), embed_classical(det_class(FL3, 2), 2))
    b = line_bundle_product(oracle, ("det", 2), embed_classical(det_class(FL3, 1), 2))
    assert a == b
    for w in min_coset_reps(FL3)[:3]:
        sigma = basis_element(FL3, w, 2)
        ab = line_bundle_product(oracle, ("det", 1),
                                 line_bundle_product(oracle, ("det", 2), sigma))
        ba = line_bundle_product(oracle, ("det", 2),
                                 line_bundle_product(oracle, ("det", 1), sigma))
        assert ab == ba


def _whole_vector_det_product(space, j, sigma, bound, mode="incidence-proven"):
    # dense reference for det S_j * sigma: one solve of the whole quantum
    # metric against sigma's summed three-point pairings, not a sum of
    # per-basis-element columns through the factored metric
    k, n = space.k, space.n
    oracle = GWOracle(mode, space)
    reps = min_coset_reps(space)
    b = {}
    for u in reps:
        acc = QSeries.zero(k, n, bound)
        for w, qs in sigma.coords.items():
            cls = schubert_class(space, w, "B")
            acc = acc + qs * QSeries(k, n, bound, {
                d: gw3_divisor(oracle, ("det", j), cls, u, d)
                for d in degree_box(k, bound)})
        b[u] = acc
    gram = quantum_gram(space, bound)
    # every entry but the constant diagonal 1, as the solver's sparse terms
    rows = [(u, [(t, v, a) for v, qs in gram[u].items() for t, a in qs.coeffs.items()
                 if v != u or any(t)]) for u in reps]
    sol = qk._triangular_solve(rows, b)
    out = QKElement(space, bound, {})
    for v, qs in sol.items():
        opp = expand_schubert(schubert_class(space, v, "B-"), "B")
        out = out + QKElement(space, bound, {u: qs * c for u, c in opp.items()})
    return out


def test_det_columns_match_dense_reference(drop_vanishing):
    # each cached column solves the factored metric P * Z; the dense metric
    # is the reference
    for space, bound, mode in [(FL3, 2, "incidence-proven"),
                               (FL3, 4, "incidence-proven"),
                               (GR24, 2, "grassmannian-proven"),
                               (FL134, 2, "incidence-proven")]:
        for j in range(1, space.k + 1):
            for w in min_coset_reps(space):
                sigma = basis_element(space, w, bound)
                assert qk._det_column(space, j, bound, w) == \
                    _whole_vector_det_product(space, j, sigma, bound, mode)
    # with the vanishing rule dropped on every step P' = P, so the column is
    # classical
    for space, bound in [(FL3, 2), (GR24, 2), (FL134, 1)]:
        with drop_vanishing(*range(1, space.k + 1)):
            for j in range(1, space.k + 1):
                for w in min_coset_reps(space):
                    classical = det_class(space, j) * schubert_class(space, w, "B")
                    assert qk._det_column(space, j, bound, w) == \
                        embed_classical(classical, bound)


@pytest.mark.parametrize("space, bound", [
    (FL3, 2), (FL4, 2), (FL134, 2), (GR24, 3), (FL235, 1),
], ids=["Fl(3)-qdeg2", "Fl(4)-qdeg2", "Fl(1,3;4)-qdeg2", "Gr(2,4)-qdeg3", "Fl(2,3;5)-qdeg1"])
def test_opposite_rows_match_class_neighborhoods(space, bound):
    # the product columns pair against the opposite classes at the w0-twisted
    # labels Gamma_d(X^v) = X^(v_d); the Demazure operators along z_d that
    # move the class O^v itself are the reference
    full, one = FlagSpace.full(space.n), laurent(1, space.n)
    rows = qk._opposite_rows(space, bound)
    assert [v for v, _ in rows] == min_coset_reps(space)
    for v, terms in rows:
        assert [d for d, _, _ in terms] == degree_box(space.k, bound)[1:]
        opp = schubert_class(space, v, "B-")
        for d, label, a in terms:
            assert a == one
            assert class_neighborhood(opp, d) == schubert_class(full, label, "B-"), (v, d)


@pytest.mark.parametrize("space, step", [
    (FL3, 1), (FL4, 1), (GR24, 1), (FL134, 1), (FL235, 1), (FlagSpace.full(5), 6),
], ids=["Fl(3)", "Fl(4)", "Gr(2,4)", "Fl(1,3;4)", "Fl(2,3;5)", "Fl(5)-every-6th"])
def test_chevalley_terms_match_expansion(space, step):
    # the product columns build their right-hand sides from the Chevalley
    # chains; the substitution expansion of det S_j * O_w is the reference
    for j in range(1, space.k + 1):
        det = det_class(space, j)
        for w in min_coset_reps(space)[::step]:
            expected = {v: c for v, c in expand_schubert(
                det * schubert_class(space, w, "B"), "B").items() if not c.is_zero()}
            assert {v: det.at(w) * c for v, c in qk._chevalley_terms(space, j, w)} == \
                expected, (j, w)


@pytest.mark.parametrize("space, bound", [(FL4, 2), (FL134, 3), (FL235, 2)],
                         ids=["Fl(4)-qdeg2", "Fl(1,3;4)-qdeg3", "Fl(2,3;5)-qdeg2"])
def test_neighborhoods_match_per_degree_labels(space, bound, monkeypatch,
                                               fresh_qk_caches):
    # one label per basis label and distinct z_d, asked through the name
    # qk.curve_neighborhood_schubert, stands for every degree with that z_d
    asked = []
    monkeypatch.setattr(qk, "curve_neighborhood_schubert",
                        lambda s, u, d: asked.append(d) or curve_neighborhood_schubert(s, u, d))
    box = degree_box(space.k, bound)
    reps = min_coset_reps(space)
    assert qk._neighborhoods(space, bound) == {
        u: [(d, curve_neighborhood_schubert(space, u, d)) for d in box] for u in reps}
    assert len(asked) == len(reps) * len({z_d(space, d) for d in box}) < len(reps) * len(box)


def _seeded_full_classes(n, t):
    # every complete-flag O_w ("B") and O^w ("B-") restricted to every
    # permutation at the seed t, by Fraction Demazure steps from the point
    # classes at the identity and at the longest element:
    # (op_i s)(x) = (s(x) - X s(x s_i)) / (1 - X) with X = t_{x(i)} / t_{x(i+1)}
    perms = sorted(permutations(range(1, n + 1)), key=length)
    classes = {}
    for variant, order in (("B", perms), ("B-", perms[::-1])):
        start = order[0]
        point = prod(1 - t[start[a] - 1] / t[start[b] - 1]
                     for a in range(n) for b in range(a + 1, n))
        classes[variant, start] = {x: point if x == start else Fraction(0) for x in perms}
        for w in order[1:]:
            # a descent of w for O_w, an ascent for O^w: w s_i comes earlier
            i = next(i for i in range(1, n) if (w[i - 1] > w[i]) == (variant == "B"))
            prev, cls = classes[variant, right_mul(w, i)], {}
            for x in perms:
                X = t[x[i - 1] - 1] / t[x[i] - 1]
                cls[x] = (prev[x] - X * prev[right_mul(x, i)]) / (1 - X)
            classes[variant, w] = cls
    return classes


def _seeded_columns(space, bound, t):
    # every det S_j * O_w at the seed t: b by localization sums, the factored
    # solve P y = P' b degree by degree, s_h = y_h - sum_{v < h} s_v, and the
    # column sum_h s_h O^h in the O_u basis, all in Fraction arithmetic
    n, k, reps = space.n, space.k, min_coset_reps(space)
    full = _seeded_full_classes(n, t)
    # on a partial flag O_w restricts the class of the coset's longest
    # element, O^w the class of w itself
    lower = {w: {x: full["B", coset_max(space, w)][x] for x in reps} for w in reps}
    upper = {w: {x: full["B-", w][x] for x in reps} for w in reps}
    block = [b for b, (lo, hi) in enumerate(space.block_bounds()) for _ in range(lo, hi)]
    tangent = {x: prod(1 - t[x[a] - 1] / t[x[c] - 1] for a in range(n)
                       for c in range(a + 1, n) if block[a] != block[c]) for x in reps}
    # O^h in the O_u basis: O_u vanishes at x unless x <= u, so walk x down
    change = {}
    for h in reps:
        change[h] = {}
        for x in reversed(reps):
            rest = sum(c * lower[u][x] for u, c in change[h].items())
            change[h][x] = (upper[h][x] - rest) / lower[x][x]
    into = {u: [(h, c) for h in reps if (c := change[h][u])] for u in reps}
    below = {h: [v for v in reps if v != h and bruhat_leq(v, h)] for h in reps}
    box = degree_box(k, bound)
    label = {u: {d: curve_neighborhood_schubert(space, u, d) for d in box} for u in reps}
    columns = {}
    for j in range(1, k + 1):
        det = {x: prod(t[a - 1] for a in x[:space.ranks[j - 1]]) for x in reps}
        for w in reps:
            weight = {x: det[x] * c / tangent[x] for x, c in lower[w].items() if c}
            b = {g: sum(c * lower[g][x] for x, c in weight.items()) for g in reps}
            y = {u: {} for u in reps}
            for d in box:
                # every d - e with e != 0 comes earlier in degree_box order
                for u in reps:
                    acc = b[label[u][d]] if d[j - 1] == 0 else Fraction(0)
                    for e in box:
                        if any(e) and all(map(int.__le__, e, d)):
                            acc -= y[label[u][e]][tuple(map(sub, d, e))]
                    y[u][d] = acc
            s = {}
            for h in reps:
                s[h] = {d: y[h][d] - sum(s[v][d] for v in below[h]) for d in box}
            columns[j, w] = {u: {d: sum(s[h][d] * c for h, c in into[u] if s[h][d])
                                 for d in box} for u in reps}
    return columns


@pytest.mark.parametrize("space, bound", [(FL3, 2), (GR24, 2), (FL134, 2), (FL4, 1)],
                         ids=["Fl(1,2;3)-qdeg2", "Gr(2,4)-qdeg2", "Fl(1,3;4)-qdeg2",
                              "Fl(4)-qdeg1"])
def test_det_columns_match_seeded_localization(space, bound):
    # an independent recomputation of every product column at two seeded
    # torus points: Fraction localization values only, no Laurent division,
    # no Chevalley chains and no qk table: labels come from
    # curve_neighborhood_schubert degree by degree
    for seed in (0, 1):
        t = presentation._seed_values(seed, space.n)
        seeded = _seeded_columns(space, bound, t)
        for (j, w), column in seeded.items():
            exact = qk._det_column(space, j, bound, w)
            for u, at_u in column.items():
                coeffs = exact.at(u).coeffs
                for d, value in at_u.items():
                    c = coeffs.get(d)
                    assert (0 if c is None else presentation._eval_laurent(c, t)) == value, \
                        (seed, j, w, u, d)


@st.composite
def _triangular_systems(draw):
    # rows 0..m-1 in solving order; a q^0 term reads only an earlier row, a
    # q-positive term any row, and coefficients and right-hand sides are
    # Laurent polynomials in two variables, most of them not units
    k, bound, m = draw(st.integers(1, 2)), draw(st.integers(0, 3)), draw(st.integers(1, 4))
    n = 2
    degrees = st.tuples(*[st.integers(0, bound)] * k)
    laurent = st.dictionaries(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                              st.integers(-3, 3), min_size=1, max_size=3).map(
        lambda terms: LaurentPolynomial(n, terms))
    rows = []
    for r in range(m):
        terms = []
        for t, c, a in draw(st.lists(st.tuples(degrees, st.integers(0, m - 1), laurent),
                                     max_size=4)):
            if any(t) or c < r:
                terms.append((t, c, a))
        rows.append((r, terms))
    rhs = {r: QSeries(k, n, bound, draw(st.dictionaries(degrees, laurent, max_size=4)))
           for r in range(m)}
    return rows, rhs


@settings(max_examples=60, deadline=None)
@given(system=_triangular_systems())
def test_triangular_solve_round_trip(system):
    # no reference solver: multiplying the rows back into the solution gives
    # the right-hand side within the truncation
    rows, rhs = system
    x = qk._triangular_solve(rows, rhs)
    for r, terms in rows:
        k, n, bound = rhs[r].k, rhs[r].nvars, rhs[r].bound
        back = x[r]
        for t, c, a in terms:
            back = back + QSeries(k, n, bound, {t: a}) * x[c]
        assert back == rhs[r]


def test_triangular_solve_refuses_forward_q0_term():
    # a q^0 term must read a row solved before its own; pushing a value into
    # a row that is already closed would drop it, so indexing raises
    one = LaurentPolynomial.one(2)
    rhs = {r: QSeries(1, 2, 1, {(0,): one}) for r in "ab"}
    with pytest.raises(RuntimeError, match="not solved before it"):
        qk._triangular_solve([("a", [((0,), "b", one)]), ("b", [])], rhs)
    with pytest.raises(RuntimeError, match="not solved before it"):
        qk._triangular_solve([("a", [((0,), "a", one)]), ("b", [])], rhs)
    # the same term read by the later row, or through q, solves
    assert qk._triangular_solve([("a", []), ("b", [((0,), "a", one)])], rhs)["b"].is_zero()
    assert qk._triangular_solve([("a", [((1,), "b", one)]), ("b", [])], rhs)["a"] == \
        QSeries(1, 2, 1, {(0,): one, (1,): -one})


@settings(max_examples=12, deadline=None)
@given(a=st.integers(-3, 3), b=st.integers(-3, 3),
       iu=st.integers(0, 5), iv=st.integers(0, 5))
def test_line_bundle_product_is_linear(a, b, iu, iv):
    oracle = GWOracle("incidence-proven", FL3)
    reps = min_coset_reps(FL3)
    u, v = reps[iu], reps[iv]
    sigma = basis_element(FL3, u, 1) * a + basis_element(FL3, v, 1) * b
    lhs = line_bundle_product(oracle, ("det", 2), sigma)
    rhs = line_bundle_product(oracle, ("det", 2), basis_element(FL3, u, 1)) * a \
        + line_bundle_product(oracle, ("det", 2), basis_element(FL3, v, 1)) * b
    assert lhs == rhs
    # products are sums of cached columns, so linearity alone is built in;
    # compare with a single solve of the combined pairings as well
    assert lhs == _whole_vector_det_product(FL3, 2, sigma, 1)


def _mixed_element(space, cls, bound):
    # a class with several O_w coordinates plus a q_1 multiple of a basis
    # element, so that products mix columns and degrees
    w = min_coset_reps(space)[1]
    q1 = QSeries.q(space.k, space.n, bound, 1)
    sigma = embed_classical(cls, bound) + basis_element(space, w, bound) * q1
    assert len(sigma.coords) > 1
    return sigma


def _truncate(el, bound):
    k, n = el.space.k, el.space.n
    return QKElement(el.space, bound, {
        w: QSeries(k, n, bound, {d: c for d, c in qs.coeffs.items() if max(d) <= bound})
        for w, qs in el.coords.items()})


MIXED_CASES = [
    (FL3, ("det", 2), bundle_class(FL3, 2, 1)),
    (FL3, ("det", 1), bundle_quotient_class(FL3, 1, 1)),
    (FL134, ("det", 1), bundle_quotient_class(FL134, 1, 2)),
    (FL134, ("sub1",), bundle_class(FL134, 2, 2)),
]


def test_line_bundle_solve_inverts_products():
    # the solve substitutes through the operator's columns in reverse basis
    # order, so the round trip cross-checks the summed product columns
    for space, L, cls in MIXED_CASES:
        oracle = GWOracle("incidence-proven", space)
        for bound in (1, 2):
            sigma = _mixed_element(space, cls, bound)
            prod = line_bundle_product(oracle, L, sigma)
            assert line_bundle_solve(oracle, L, prod) == sigma


def test_line_bundle_solve_with_negative_unit_diagonal():
    # -det S_j restricts to -T^e at every fixed point, so each pre-scaled row
    # and rhs entry carries a sign, at every truncation including q = 0
    for space, cls in [(FL3, bundle_class(FL3, 2, 1)),
                       (FL134, bundle_quotient_class(FL134, 1, 2))]:
        oracle = GWOracle("incidence-proven", space)
        for j in range(1, space.k + 1):
            L = ("affine", 0, -1, j)
            for bound in (0, 1, 2):
                sigma = _mixed_element(space, cls, bound)
                prod = line_bundle_product(oracle, L, sigma)
                assert line_bundle_solve(oracle, L, prod) == sigma
                assert line_bundle_solve(oracle, L, sigma) == \
                    -line_bundle_solve(oracle, ("det", j), sigma)


def test_line_bundle_solve_refuses_opposite_divisor():
    # O^{s_r} vanishes at the identity coset, so it is not a unit: dividing
    # by it is a usage error, not a failed internal invariant.  The same
    # holds for the zero class and for T1 - det S_1, which vanish there too,
    # and for 2 + det S_1, which vanishes nowhere but restricts to 2 + T_a.
    for oracle in (GWOracle("incidence-proven", FL3),
                   GWOracle("full-flag-conjectural", FL3),
                   GWOracle("incidence-proven", FL134)):
        n = oracle.space.n
        sigma = embed_classical(scalar_class(oracle.space, 1), 1)
        descriptors = [("opposite", j) for j in range(1, oracle.space.k + 1)]
        descriptors += [("affine", 0, 0, 1),
                        ("affine", LaurentPolynomial.variable(n, 1), -1, 1),
                        ("affine", 2, 1, 1)]
        for L in descriptors:
            with pytest.raises(ValueError, match="not a unit"):
                line_bundle_solve(oracle, L, sigma)


def test_products_are_compatible_with_truncation():
    for space, L, cls in MIXED_CASES:
        oracle = GWOracle("incidence-proven", space)
        high = line_bundle_product(oracle, L, _mixed_element(space, cls, 2))
        low = line_bundle_product(oracle, L, _mixed_element(space, cls, 1))
        assert _truncate(high, 1) == low


def test_mutated_oracle_caught_after_proven_columns_are_cached(drop_vanishing):
    # solved columns are cached with no mark of the vanishing rule: warming
    # the det S_2 columns with the proven oracle must not hide the mutated
    # one, and the mutated columns must not outlive it
    proven = GWOracle("incidence-proven", FL134)
    for w in min_coset_reps(FL134):
        line_bundle_product(proven, ("det", 2), basis_element(FL134, w, 2))
    with drop_vanishing(2):
        report = verify_qk_whitney(FL134, 2)
    assert report["status"] == "FAIL"
    assert all(wit["d"][1] > 0 for wit in report["witnesses"])
    # the invariant-level relations read no cached column; the product-level
    # ones must fail too
    relations = {wit["relation"] for wit in report["witnesses"]}
    assert {"det-wedge-products", "quotient-series-rearrangement"} <= relations
    assert verify_qk_whitney(FL134, 2)["status"] == "PASS"


def test_oracle_licensing():
    with pytest.raises(ValueError):
        GWOracle("incidence-proven", GR24)
    with pytest.raises(ValueError):
        GWOracle("grassmannian-proven", FL3)
    with pytest.raises(ValueError):
        GWOracle("full-flag-conjectural", FL134)
    with pytest.raises(ValueError):
        GWOracle("plausible", FL3)
    gr = GWOracle("grassmannian-proven", GR24)
    assert gr.proven
    with pytest.raises(ValueError):
        gw3_divisor(gr, ("det", 2), scalar_class(GR24, 1), identity(4), (0,))
    with pytest.raises(ValueError):
        gw3_divisor(gr, ("sub1",), scalar_class(GR24, 1), identity(4), (0,))
    assert not GWOracle("full-flag-conjectural", FL3).proven


def test_grassmannian_oracle_values():
    gr = GWOracle("grassmannian-proven", GR24)
    det = det_class(GR24, 1)
    for w in min_coset_reps(GR24):
        assert gw3_divisor(gr, ("det", 1), det, w, (1,)).is_zero()
        classical = euler_char(det * det * schubert_class(GR24, w, "B"))
        assert gw3_divisor(gr, ("det", 1), det, w, (0,)) == classical


def test_qk_element_validation():
    one_q = QSeries.one(2, 3, 1)
    with pytest.raises(ValueError):
        # (1, 3, 2, 4) has its descent away from the rank marks of FL134
        QKElement(FL134, 1, {(1, 3, 2, 4): QSeries.one(2, 4, 1)})
    with pytest.raises(ValueError):
        QKElement(FL3, 2, {identity(3): one_q})  # bound mismatch
    a = basis_element(FL3, identity(3), 1)
    b = basis_element(FL3, simple_reflection(3, 1), 2)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a.at((2, 1, 4, 3))
    assert a.at(simple_reflection(3, 1)).is_zero()
    assert (a - a).is_zero()


def test_embedding_of_basis_class_is_delta():
    for w in min_coset_reps(FL3):
        sigma = embed_classical(schubert_class(FL3, w, "B"), 1)
        assert sigma == basis_element(FL3, w, 1)


def test_whitney_verification_passes(monkeypatch):
    # every invariant is read off a pairing table, never one euler_char each
    def refuse(sigma):
        raise AssertionError("euler_char called")

    monkeypatch.setattr(qk, "euler_char", refuse)
    report = verify_qk_whitney(FL3, 2)
    assert report["status"] == "PASS"
    assert report["witnesses"] == []
    assert report["check"] == "incidence-whitney"
    assert report["space"] == {"n": 3, "ranks": [1, 2]}
    assert report["truncation"] == 2


@pytest.mark.parametrize("space, bound, digest", [
    (FL3, 2, "81f3c401417be78afb9b1185f897aae27d4e4f167bd4c2d474d540beb140ec50"),
    (FL134, 1, "f1887c3e39516f8edd776437b755a2d747a20eb8d20cafbc017ddda71ab1c395"),
    (FL134, 2, "338539ffbe16ec5738f33dace5f391e1ee2cc92406b372e4f070aa69a9d33a50"),
], ids=["fl123-qdeg2", "fl134-qdeg1", "fl134-qdeg2"])
def test_whitney_verification_catches_mutated_oracle(space, bound, digest,
                                                     drop_vanishing):
    with drop_vanishing(2):
        report = verify_qk_whitney(space, bound)
    assert report["status"] == "FAIL"
    assert len(report["witnesses"]) >= 1
    for wit in report["witnesses"]:
        assert set(wit) == {"relation", "w", "d", "y_power"}
        # dropping the vanishing rule on step 2 only disturbs terms that
        # carry a positive power of q_2
        assert wit["d"][1] > 0
    # the witnesses, their order and the report shape are pinned
    pinned = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert pinned == digest


def test_flag_reduction_passes():
    report = verify_flag_reduction(3, 2)
    assert report["status"] == "PASS"
    assert report["witnesses"] == []
    assert report["check"] == "flag-reduction"


def test_flag_reduction_catches_skipped_surgery(skip_surgery):
    for nmax, bound, digest in [
        (3, 2, "395943866c283e4995fbe0a5428429eebeac74a81e17317d1200d6e00644b54c"),
        (4, 1, "a26e04206d8bb10335fe7eef804c97709e48408ec9175f2504290f73e66d6566"),
    ]:
        report = verify_flag_reduction(nmax, bound)
        assert report["status"] == "FAIL"
        relations = {wit["relation"] for wit in report["witnesses"]}
        assert "degree-drop-word" in relations
        # the witnesses, their order and the report shape are pinned
        pinned = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
        assert pinned == digest, nmax


def _relations(report):
    return {wit["relation"] for wit in report["witnesses"]}


def test_whitney_catches_mutated_sub_line_invariant(monkeypatch, fresh_qk_caches):
    # three-point values through the rank-one subbundle that are off by one
    # must break the invariant-level splitting of S_2
    real = qk._pairing_vector

    def shifted(j, sigma, bound):
        out = real(j, sigma, bound)
        if j != 1:
            return out
        space = sigma.space
        ones = QSeries(space.k, space.n, bound,
                       {d: LaurentPolynomial.one(space.n) for d in degree_box(space.k, bound)})
        return out + QKElement(space, bound, {u: ones for u in min_coset_reps(space)})

    # solved columns read the same tables and are cached; fresh_qk_caches
    # keeps every corrupted column inside this test
    monkeypatch.setattr(qk, "_pairing_vector", shifted)
    report = verify_qk_whitney(FL3, 1)
    assert report["status"] == "FAIL"
    assert "sub-line-invariants" in _relations(report)


def _report_digest(report):
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def test_flag_reduction_catches_wrong_neighborhood_images(monkeypatch):
    # without the isobaric differences the degree-drop identity compares
    # e_ell(x_1..x_i) with e_ell(x_1..x_{i-1}) directly
    monkeypatch.setattr(qk, "_isobaric", lambda i, f: f)
    for nmax, digest in [
        (3, "b34e659957f42cb0fe0c33ca8c42f4b50a23718c54b06bdfda2007e74d9641c7"),
        (4, "f929bda2640fbc02faad0c7830974581fd9fa29bc333355eba92b28ddd715f51"),
    ]:
        report = verify_flag_reduction(nmax, 1)
        assert report["status"] == "FAIL"
        assert "degree-drop-neighborhoods" in _relations(report)
        # the witnesses, their order and the report shape are pinned
        assert _report_digest(report) == digest, nmax


def test_flag_reduction_catches_wrong_pairings(monkeypatch):
    real = qk.pairings
    monkeypatch.setattr(qk, "pairings",
                        lambda sigma: {g: c + 1 for g, c in real(sigma).items()})
    report = verify_flag_reduction(3, 1)
    assert report["status"] == "FAIL"
    assert "adjacent-det-pairing" in _relations(report)
    assert _report_digest(report) == \
        "bef1789310bf2fc74b930d64a8746363fe05e9cf5b6b55c617047bc272b1d196"


def test_flag_reduction_builds_no_demazure_class(monkeypatch):
    # both identities are checked on polynomials, so no class-level
    # Demazure operator runs
    def refuse(i, sigma):
        raise RuntimeError("a class-level Demazure image was built")

    monkeypatch.setattr(ktheory, "demazure_op", refuse)
    assert verify_flag_reduction(5, 2)["status"] == "PASS"


def test_conjectural_products_small_flag():
    products, report = conjectural_product_fln(3, 1)
    assert report["status"] == "CONDITIONAL-PASS"
    assert report["witnesses"] == []
    # the class of the whole space is the unit, so multiplying it by a
    # determinant line just embeds that line
    top = longest_element(3)
    assert products[(1, top)] == embed_classical(det_class(FL3, 1), 1)
    w = simple_reflection(3, 2)
    assert classical_part(products[(2, w)]) == det_class(FL3, 2) * schubert_class(FL3, w, "B")


@pytest.mark.parametrize("n, bound, digest", [
    (3, 5, "8720a0f2e15ab00ce05df75f936c7c143d924a44ab6b33bcb70022b0669db87a"),
    (4, 2, "a4e3fa0c79ff5160a4dee3591a3060e181c163e51e426edf5a4a73eab1795be4"),
    (5, 1, "b33a0dc3ac0e393add4a745205e85bb13ae68eb31f213177e186229f6633c95b"),
], ids=["fl3-qdeg5", "fl4-qdeg2", "fl5-qdeg1"])
def test_conjectural_product_tables_pinned(n, bound, digest):
    # every entry of the complete-flag product tables, rendered line by line
    # as the benchmark's fl3-products workload renders them
    products, report = conjectural_product_fln(n, bound)
    assert report["status"] == "CONDITIONAL-PASS"
    reps = min_coset_reps(FlagSpace.full(n))
    table = hashlib.sha256()
    for i in range(1, n):
        for w in reps:
            for u in reps:
                table.update(f"{i} {w} {u} {render_qseries(products[(i, w)].at(u))}\n".encode())
    assert table.hexdigest() == digest
