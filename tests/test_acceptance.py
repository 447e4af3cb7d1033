"""Acceptance gate: one test per criterion, one pass/fail line each.

Run with `python3 -m pytest tests/test_acceptance.py -v` for the per-criterion
pass/fail lines, add `-s` to see the timing summaries.  Every check is exact;
the stated time caps are asserted where the criterion carries one.
"""

import itertools
import time

from qkflag.algebra import LaurentPolynomial, QSeries, t_elem
from qkflag.curves import curve_neighborhood_schubert
from qkflag.ktheory import (
    bundle_quotient_class,
    demazure_op,
    det_class,
    euler_char,
    schubert_class,
)
from qkflag.presentation import (
    coulomb_equivalence,
    groebner_dimension,
    ideal_generators,
    pres_one,
    pres_q,
    pres_scalar,
    pres_var,
    psi_evaluate,
    render_pres,
)
from qkflag.qk import (
    GWOracle,
    conjectural_product_fln,
    embed_classical,
    line_bundle_product,
    verify_flag_reduction,
    verify_qk_whitney,
)
from qkflag.weyl import (
    FlagSpace,
    length,
    min_coset_reps,
    right_mul,
    z_d,
)

from reference import incidence_neighborhood_label, z_d_choices


def report_line(num, slug, t0):
    print(f"ACCEPTANCE {num:02d} {slug}: PASS ({time.monotonic() - t0:.1f}s)")


def test_criterion_01_classical_presentation_dimensions():
    t0 = time.monotonic()
    cases = [
        ((3, (1, 2)), 6),
        ((3, (1,)), 3),
        ((4, (1, 3)), 12),
        ((4, (2,)), 6),
    ]
    for (n, ranks), expected in cases:
        space = FlagSpace(n, ranks)
        spec = ideal_generators(space, "classical")
        dim = groebner_dimension(spec, seed=0)
        assert dim == expected
        assert dim == len(min_coset_reps(space))
    assert time.monotonic() - t0 < 30
    report_line(1, "classical-dimensions", t0)


def test_criterion_02_demazure_schubert_engine():
    t0 = time.monotonic()
    for n in (2, 3, 4):
        space = FlagSpace.full(n)
        for u in min_coset_reps(space):
            cls = schubert_class(space, u, "B")
            assert euler_char(cls) == 1
            for i in range(1, n):
                image = demazure_op(i, cls)
                assert demazure_op(i, image) == image
                usi = right_mul(u, i)
                target = usi if length(usi) > length(u) else u
                assert image == schubert_class(space, target, "B")
            for i, j in itertools.combinations(range(1, n), 2):
                if j == i + 1:
                    lhs = demazure_op(i, demazure_op(j, demazure_op(i, cls)))
                    rhs = demazure_op(j, demazure_op(i, demazure_op(j, cls)))
                else:
                    lhs = demazure_op(i, demazure_op(j, cls))
                    rhs = demazure_op(j, demazure_op(i, cls))
                assert lhs == rhs
    assert time.monotonic() - t0 < 60
    report_line(2, "demazure-schubert", t0)


def test_criterion_03_curve_neighborhoods():
    t0 = time.monotonic()
    for n in range(2, 6):
        for r in range(1, n):
            for ranks in itertools.combinations(range(1, n), r):
                space = FlagSpace(n, ranks)
                for d in itertools.product(range(4), repeat=len(ranks)):
                    choices = z_d_choices(space, d)
                    assert choices == frozenset({z_d(space, d)})
    for n in (3, 4):
        space = FlagSpace(n, (1, n - 1))
        for w in min_coset_reps(space):
            for d in itertools.product(range(3), repeat=2):
                assert incidence_neighborhood_label(space, w, d) == \
                    curve_neighborhood_schubert(space, w, d)
    report_line(3, "curve-neighborhoods", t0)


def test_criterion_04_degree_lowering_demazure_identity():
    t0 = time.monotonic()
    report = verify_flag_reduction(4, 2)
    assert report["status"] == "PASS"
    assert report["witnesses"] == []
    report_line(4, "degree-lowering", t0)


def test_criterion_05_incidence_whitney_relations():
    t0 = time.monotonic()
    for n in (3, 4):
        report = verify_qk_whitney(FlagSpace(n, (1, n - 1)), 2)
        assert report["status"] == "PASS"
        assert report["witnesses"] == []
    assert time.monotonic() - t0 < 300
    report_line(5, "incidence-whitney", t0)


def test_criterion_06_determinant_products_from_metric_inversion():
    t0 = time.monotonic()
    bound = 2
    for n in (3, 4):
        space = FlagSpace(n, (1, n - 1))
        oracle = GWOracle("incidence-proven", space)
        quot_rank = {1: n - 2, 2: 1}
        for i in (1, 2):
            quot_det = bundle_quotient_class(space, i, quot_rank[i])
            lhs = line_bundle_product(
                oracle, ("det", i), embed_classical(quot_det, bound))
            e_i = tuple(1 if a == i - 1 else 0 for a in range(2))
            one_minus_qi = QSeries(2, n, bound, {
                (0, 0): LaurentPolynomial.one(n),
                e_i: -LaurentPolynomial.one(n),
            })
            rhs = embed_classical(det_class(space, i + 1), bound) * one_minus_qi
            assert (lhs - rhs).is_zero()
    report_line(6, "determinant-products", t0)


def test_criterion_07_three_step_golden_presentation():
    t0 = time.monotonic()
    space = FlagSpace(3, (1, 2))
    gens = ideal_generators(space, "quantum-polynomial").generators
    x1 = pres_var(space, "eX1_1")
    y1 = pres_var(space, "eY1_1")
    a1 = pres_var(space, "eX2_1")
    a2 = pres_var(space, "eX2_2")
    c = pres_var(space, "eY2_1")
    one = pres_one(space)
    q1 = pres_q(space, 1)
    q2 = pres_q(space, 2)
    nv = space.n + space.k  # the T's, then q1, q2
    e1 = pres_scalar(space, t_elem(3, 1, nv))
    e2 = pres_scalar(space, t_elem(3, 2, nv))
    e3 = pres_scalar(space, t_elem(3, 3, nv))
    golden = [
        x1 + y1 - a1,
        x1 * y1 - (one - q1) * a2,
        (one - q2) * (a1 + c - e1),
        (a1 - q2 * x1) * c - (one - q2) * (e2 - a2),
        a2 * c - (one - q2) * e3,
    ]
    assert list(gens) == golden
    rendered = [render_pres(g) for g in gens]
    assert rendered == [
        "eX1_1 + (-1)*eX2_1 + eY1_1",
        "eX1_1*eY1_1 + (q1 - 1)*eX2_2",
        "(-q2 + 1)*eX2_1 + (-q2 + 1)*eY2_1 + (T1*q2 + T2*q2 + T3*q2 - T1 - T2 - T3)",
        "(-q2)*eX1_1*eY2_1 + eX2_1*eY2_1 + (-q2 + 1)*eX2_2 "
        "+ (T1*T2*q2 + T1*T3*q2 + T2*T3*q2 - T1*T2 - T1*T3 - T2*T3)",
        "eX2_2*eY2_1 + (T1*T2*T3*q2 - T1*T2*T3)",
    ]
    for g in gens:
        assert psi_evaluate(g, 2).is_zero()
    kernel = a1 + c - e1
    assert psi_evaluate(kernel, 2).is_zero()
    report_line(7, "three-step-golden", t0)


def test_criterion_08_coulomb_equivalence():
    t0 = time.monotonic()
    for n in (3, 4):
        report = coulomb_equivalence(FlagSpace(n, (1, n - 1)))
        assert report["status"] == "PASS"
        assert report["witnesses"] == []
    report_line(8, "coulomb-equivalence", t0)


def test_criterion_09_conditional_complete_flag_mode():
    t0 = time.monotonic()
    products, report = conjectural_product_fln(4, 2)
    assert report["status"] == "CONDITIONAL-PASS"
    assert report["witnesses"] == []
    assert products
    report_line(9, "conditional-full-flag", t0)


def test_criterion_10_negative_controls(drop_vanishing, skip_surgery, drop_unit):
    t0 = time.monotonic()
    space = FlagSpace(3, (1, 2))
    with drop_vanishing(2):
        dropped_q2 = verify_qk_whitney(space, 2)
    assert dropped_q2["status"] == "FAIL"
    assert len(dropped_q2["witnesses"]) >= 1
    skipped_adjustment = verify_flag_reduction(3, 2)
    assert skipped_adjustment["status"] == "FAIL"
    assert len(skipped_adjustment["witnesses"]) >= 1
    dropped_unit = coulomb_equivalence(space)
    assert dropped_unit["status"] == "FAIL"
    assert len(dropped_unit["witnesses"]) >= 1
    report_line(10, "negative-controls", t0)
