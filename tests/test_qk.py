"""Quantum products through curve neighborhoods.

Two- and three-point invariants, the quantum metric, products with line
bundles, and the verification reports.  Expected values come from classical
Euler characteristics computed directly, plus the structural facts that the
degree-zero sector is classical and that pairings against a determinant
line vanish in positive degree along its own step.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkflag import qk
from qkflag.algebra import LaurentPolynomial, QSeries, RationalFunction, t_elem
from qkflag.curves import curve_neighborhood_schubert
from qkflag.ktheory import (
    bundle_class,
    bundle_quotient_class,
    det_class,
    euler_char,
    expand_schubert,
    one_class,
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
    identity,
    longest_element,
    min_coset_reps,
    simple_reflection,
)

FL3 = FlagSpace(3, (1, 2))
FL134 = FlagSpace(4, (1, 3))
GR24 = FlagSpace(4, (2,))


def rf(x, n):
    return RationalFunction.of(x, n)


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
    one3 = one_class(FL3)
    for w in min_coset_reps(FL3):
        for d in degree_box(2, 2):
            assert gw2(one3, w, d) == rf(1, 3)
    one4 = one_class(GR24)
    for w in min_coset_reps(GR24):
        for d in degree_box(1, 2):
            assert gw2(one4, w, d) == rf(1, 4)


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
            parts = rf(2, 3) * gw2(sigma, w, d) \
                + rf(c1, 3) * gw3_divisor(oracle, ("det", 2), sigma, w, d)
            assert combo == parts


def test_opposite_divisor_class_identity():
    # 1 - O^{s_r} equals det S_j twisted by its value at the identity coset
    for space, j in [(FL3, 1), (FL3, 2), (GR24, 1), (FL134, 2)]:
        n, r = space.n, space.ranks[j - 1]
        s = simple_reflection(n, r)
        minv = LaurentPolynomial.monomial(n, tuple(-1 if a < r else 0 for a in range(n)))
        opp = schubert_class(space, s, "B-")
        expected = one_class(space) - det_class(space, j) * rf(minv, n)
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
            assert gw2(sigma, w, d).is_laurent()
            assert gw3_divisor(oracle, ("det", 2), sigma, w, d).is_laurent()


def test_quantum_gram_constant_term_is_bruhat_indicator():
    for space in (FL3, GR24):
        gram = quantum_gram(space, 1)
        n = space.n
        for u in min_coset_reps(space):
            for v in min_coset_reps(space):
                c0 = gram[u][v].constant_term()
                if bruhat_leq(v, u):
                    assert c0 == rf(1, n)
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
                    got = gram[u][v].coeffs.get(d, rf(0, space.n))
                    assert got == expected


def test_identity_line_bundle_acts_trivially():
    oracle = GWOracle("incidence-proven", FL3)
    reps = min_coset_reps(FL3)
    sigma = basis_element(FL3, reps[3], 2)
    assert line_bundle_product(oracle, ("affine", 1, 0, 1), sigma, 2) == sigma
    tau = embed_classical(bundle_class(FL3, 2, 1), 2)
    assert line_bundle_product(oracle, ("affine", 1, 0, 1), tau, 2) == tau


def test_product_with_unit_is_embedding():
    # det S_j * 1 has no quantum corrections at all
    oracle = GWOracle("incidence-proven", FL3)
    unit = embed_classical(one_class(FL3), 2)
    for j in (1, 2):
        got = line_bundle_product(oracle, ("det", j), unit, 2)
        assert got == embed_classical(det_class(FL3, j), 2)


def test_product_degree_zero_part_is_classical():
    oracle = GWOracle("incidence-proven", FL3)
    for w in min_coset_reps(FL3):
        got = line_bundle_product(oracle, ("det", 1), basis_element(FL3, w, 1), 1)
        expected = det_class(FL3, 1) * schubert_class(FL3, w, "B")
        assert got.classical_part() == expected


def test_opposite_divisor_product_degree_zero_part_is_classical():
    # ("opposite", j) has a nonzero constant part c0, which is applied
    # without the metric; the q = 0 part must still be the classical product
    oracle = GWOracle("incidence-proven", FL3)
    for j in (1, 2):
        opp = schubert_class(FL3, simple_reflection(3, FL3.ranks[j - 1]), "B-")
        for w in min_coset_reps(FL3):
            got = line_bundle_product(oracle, ("opposite", j),
                                      basis_element(FL3, w, 2), 2)
            assert got.classical_part() == opp * schubert_class(FL3, w, "B")


def test_adjacent_determinant_products():
    # det S_j times the determinant of the next quotient picks up 1 - q_j
    oracle = GWOracle("incidence-proven", FL3)
    one_q = QSeries.one(2, 3, 2)
    q1 = QSeries.q(2, 3, 2, 1)
    q2 = QSeries.q(2, 3, 2, 2)
    got = line_bundle_product(
        oracle, ("det", 1), embed_classical(bundle_quotient_class(FL3, 1, 1), 2), 2)
    assert got == embed_classical(det_class(FL3, 2), 2) * (one_q - q1)
    got = line_bundle_product(
        oracle, ("det", 2), embed_classical(bundle_quotient_class(FL3, 2, 1), 2), 2)
    assert got == embed_classical(scalar_class(FL3, t_elem(3, 3)), 2) * (one_q - q2)


def test_adjacent_determinant_products_bigger_space():
    oracle = GWOracle("incidence-proven", FL134)
    one_q = QSeries.one(2, 4, 1)
    q1 = QSeries.q(2, 4, 1, 1)
    dq = bundle_quotient_class(FL134, 1, 2)
    got = line_bundle_product(oracle, ("det", 1), embed_classical(dq, 1), 1)
    assert got == embed_classical(det_class(FL134, 2), 1) * (one_q - q1)


def test_wedge_ladder_products():
    # det S_2 * (e_ell - wedge^ell S_2) on the rank (1, 2) space
    oracle = GWOracle("incidence-proven", FL3)
    q2 = QSeries.q(2, 3, 2, 2)
    e_top = rf(t_elem(3, 3), 3)
    for ell in range(1, 4):
        mid = scalar_class(FL3, t_elem(3, ell)) - bundle_class(FL3, 2, ell)
        lhs = line_bundle_product(oracle, ("det", 2), embed_classical(mid, 2), 2)
        rhs = (embed_classical(bundle_class(FL3, 2, ell - 1), 2)
               - embed_classical(bundle_class(FL3, 1, ell - 1), 2) * q2) * e_top
        assert lhs == rhs


def test_products_commute():
    oracle = GWOracle("incidence-proven", FL3)
    a = line_bundle_product(oracle, ("det", 1), embed_classical(det_class(FL3, 2), 2), 2)
    b = line_bundle_product(oracle, ("det", 2), embed_classical(det_class(FL3, 1), 2), 2)
    assert a == b
    for w in min_coset_reps(FL3)[:3]:
        sigma = basis_element(FL3, w, 2)
        ab = line_bundle_product(oracle, ("det", 1),
                                 line_bundle_product(oracle, ("det", 2), sigma, 2), 2)
        ba = line_bundle_product(oracle, ("det", 2),
                                 line_bundle_product(oracle, ("det", 1), sigma, 2), 2)
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
    sol = qk._triangular_solve(space, bound, [(u, gram[u]) for u in reps], b)
    out = QKElement(space, "B", bound, {})
    for v, qs in sol.items():
        opp = expand_schubert(schubert_class(space, v, "B-"), "B")
        out = out + QKElement(space, "B", bound, {u: qs * c for u, c in opp.items()})
    return out


def test_det_columns_match_dense_reference():
    # each cached column solves the factored metric P * Z; the dense metric
    # is the reference
    for space, bound, mode in [(FL3, 2, "incidence-proven"),
                               (GR24, 2, "grassmannian-proven")]:
        for j in GWOracle(mode, space).divisor_steps():
            for w in min_coset_reps(space):
                sigma = basis_element(space, w, bound)
                assert qk._det_column(space, j, False, bound, w) == \
                    _whole_vector_det_product(space, j, sigma, bound, mode)
    # with the vanishing rule dropped P' = P, so the column is classical
    for space, bound in [(FL3, 2), (GR24, 2), (FL134, 1)]:
        for j in range(1, space.k + 1):
            for w in min_coset_reps(space):
                classical = det_class(space, j) * schubert_class(space, w, "B")
                assert qk._det_column(space, j, True, bound, w) == \
                    embed_classical(classical, bound)


@settings(max_examples=12, deadline=None)
@given(a=st.integers(-3, 3), b=st.integers(-3, 3),
       iu=st.integers(0, 5), iv=st.integers(0, 5))
def test_line_bundle_product_is_linear(a, b, iu, iv):
    oracle = GWOracle("incidence-proven", FL3)
    reps = min_coset_reps(FL3)
    u, v = reps[iu], reps[iv]
    sigma = basis_element(FL3, u, 1) * a + basis_element(FL3, v, 1) * b
    lhs = line_bundle_product(oracle, ("det", 2), sigma, 1)
    rhs = line_bundle_product(oracle, ("det", 2), basis_element(FL3, u, 1), 1) * a \
        + line_bundle_product(oracle, ("det", 2), basis_element(FL3, v, 1), 1) * b
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
    return QKElement(el.space, el.basis, bound, {
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
            prod = line_bundle_product(oracle, L, sigma, bound)
            assert line_bundle_solve(oracle, L, prod, bound) == sigma


def test_line_bundle_solve_refuses_opposite_divisor():
    # O^{s_r} vanishes at the identity coset, so it is not a unit: dividing
    # by it is a usage error, not a failed internal invariant.  The same
    # holds for the zero class and for T1 - det S_1, which vanish there too.
    for oracle in (GWOracle("incidence-proven", FL3),
                   GWOracle("full-flag-conjectural", FL3),
                   GWOracle("incidence-proven", FL134)):
        n = oracle.space.n
        sigma = embed_classical(one_class(oracle.space), 1)
        descriptors = [("opposite", j) for j in range(1, oracle.space.k + 1)]
        descriptors += [("affine", 0, 0, 1),
                        ("affine", LaurentPolynomial.variable(n, 1), -1, 1)]
        for L in descriptors:
            with pytest.raises(ValueError, match="not a unit"):
                line_bundle_solve(oracle, L, sigma, 1)


def test_products_are_compatible_with_truncation():
    for space, L, cls in MIXED_CASES:
        oracle = GWOracle("incidence-proven", space)
        high = line_bundle_product(oracle, L, _mixed_element(space, cls, 2), 2)
        low = line_bundle_product(oracle, L, _mixed_element(space, cls, 1), 1)
        assert _truncate(high, 1) == low


def test_mutated_oracle_caught_after_proven_columns_are_cached():
    # solved columns are cached per vanishing rule: warming the det S_2
    # columns with the proven oracle must not hide the mutated one
    proven = GWOracle("incidence-proven", FL134)
    for w in min_coset_reps(FL134):
        line_bundle_product(proven, ("det", 2), basis_element(FL134, w, 2), 2)
    report = verify_qk_whitney(FL134, 2, negative_control=True)
    assert report["status"] == "FAIL"
    assert all(wit["d"][1] > 0 for wit in report["witnesses"])
    # the invariant-level relations read no cached column; the product-level
    # ones must fail too
    relations = {wit["relation"] for wit in report["witnesses"]}
    assert {"det-wedge-products", "quotient-series-rearrangement"} <= relations


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
    assert gr.divisor_steps() == (1,)
    assert gr.proven
    with pytest.raises(ValueError):
        gw3_divisor(gr, ("det", 2), one_class(GR24), identity(4), (0,))
    with pytest.raises(ValueError):
        gw3_divisor(gr, ("sub1",), one_class(GR24), identity(4), (0,))
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
        QKElement(FL3, "left", 1, {identity(3): one_q})
    with pytest.raises(ValueError):
        # (1, 3, 2, 4) has its descent away from the rank marks of FL134
        QKElement(FL134, "B", 1, {(1, 3, 2, 4): QSeries.one(2, 4, 1)})
    with pytest.raises(ValueError):
        QKElement(FL3, "B", 2, {identity(3): one_q})  # bound mismatch
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


def test_whitney_verification_passes():
    report = verify_qk_whitney(FL3, 2)
    assert report["status"] == "PASS"
    assert report["witnesses"] == []
    assert report["check"] == "incidence-whitney"
    assert report["space"] == {"n": 3, "ranks": [1, 2]}
    assert report["truncation"] == 2


def test_whitney_verification_catches_mutated_oracle():
    report = verify_qk_whitney(FL3, 2, negative_control=True)
    assert report["status"] == "FAIL"
    assert len(report["witnesses"]) >= 1
    for wit in report["witnesses"]:
        assert set(wit) == {"relation", "w", "d", "y_power"}
        # dropping the vanishing rule on step 2 only disturbs terms that
        # carry a positive power of q_2
        assert wit["d"][1] > 0


def test_flag_reduction_passes():
    report = verify_flag_reduction(3, 2)
    assert report["status"] == "PASS"
    assert report["witnesses"] == []
    assert report["check"] == "flag-reduction"


def test_flag_reduction_catches_skipped_surgery():
    report = verify_flag_reduction(3, 2, negative_control=True)
    assert report["status"] == "FAIL"
    relations = {wit["relation"] for wit in report["witnesses"]}
    assert "degree-drop-word" in relations


def test_conjectural_products_small_flag():
    products, report = conjectural_product_fln(3, 1)
    assert report["status"] == "CONDITIONAL-PASS"
    assert report["witnesses"] == []
    # the class of the whole space is the unit, so multiplying it by a
    # determinant line just embeds that line
    top = longest_element(3)
    assert products[(1, top)] == embed_classical(det_class(FL3, 1), 1)
    w = simple_reflection(3, 2)
    assert products[(2, w)].classical_part() == det_class(FL3, 2) * schubert_class(FL3, w, "B")
