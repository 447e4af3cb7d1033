"""Presentation-level checks: ideal flavors, quotient dimensions, the
critical-locus comparison, and evaluation into the localization model."""

import hashlib
import json

import pytest

from qkflag import (
    FlagSpace,
    IdealSpec,
    LaurentPolynomial,
    PresPoly,
    QSeries,
    RationalFunction,
    clear_q_units,
    coulomb_equivalence,
    det_class,
    embed_classical,
    groebner_dimension,
    ideal_generators,
    min_coset_reps,
    pres_names,
    pres_one,
    pres_q,
    pres_q0,
    pres_scalar,
    pres_substitute,
    pres_var,
    pres_zero,
    psi_evaluate,
    render_pres,
)
from qkflag.algebra import elem_sym

INC3 = FlagSpace(3, (1, 2))
GR13 = FlagSpace(3, (1,))
INC4 = FlagSpace(4, (1, 3))
GR24 = FlagSpace(4, (2,))
FULL4 = FlagSpace(4, (1, 2, 3))


def t_elem(space, m):
    nv = space.n + space.k
    tv = [LaurentPolynomial.variable(nv, i) for i in range(1, space.n + 1)]
    e = elem_sym(tv, m)
    return LaurentPolynomial.constant(nv, e) if isinstance(e, int) else e


def test_generator_layouts():
    assert pres_names(INC3) == ("eX1_1", "eX2_1", "eX2_2", "eY1_1", "eY2_1")
    assert pres_names(INC4) == ("eX1_1", "eX2_1", "eX2_2", "eX2_3",
                                 "eY1_1", "eY1_2", "eY2_1")
    assert pres_names(GR24) == ("eX1_1", "eX1_2", "eY1_1", "eY1_2")
    assert pres_names(INC3, auxiliary=True) == (
        "eX1_1", "eX2_1", "eX2_2", "eY1_1", "eY2_1", "eXbar1_1", "Xbar2_1")
    with pytest.raises(ValueError):
        pres_names(GR24, auxiliary=True)


def test_pres_poly_arithmetic():
    x = pres_var(INC3, "eX1_1")
    y = pres_var(INC3, "eY1_1")
    assert (x + y) * (x - y) == x * x - y * y
    assert (x - x).is_zero()
    assert x * 0 == pres_zero(INC3)
    assert 2 * x == x + x
    with pytest.raises(ValueError):
        pres_var(INC3, "eX9_1")
    with pytest.raises(ValueError):
        x + pres_var(INC3, "eXbar1_1", auxiliary=True)
    with pytest.raises(ValueError):
        PresPoly(INC3, pres_names(INC3), {(1, 0): 1})


def test_substitution_engine():
    x = pres_var(INC3, "eX1_1")
    y = pres_var(INC3, "eY1_1")
    p = x * x + y
    images = {nm: pres_var(INC3, nm) for nm in pres_names(INC3)}
    assert pres_substitute(p, images) == p
    images["eX1_1"] = x + pres_one(INC3)
    assert pres_substitute(p, images) == x * x + 2 * x + pres_one(INC3) + y


def test_clear_q_units_multiplies_through():
    nv = 5
    q1 = LaurentPolynomial.variable(nv, 4)
    q2 = LaurentPolynomial.variable(nv, 5)
    one = LaurentPolynomial.one(nv)
    x = pres_var(INC3, "eX1_1")
    y = pres_var(INC3, "eY1_1")
    p = x * RationalFunction(one, (one - q1) * (one - q1)) \
        + y * RationalFunction(one, one - q2)
    assert clear_q_units(p) == x * (one - q2) + y * ((one - q1) * (one - q1))


def test_generator_counts():
    assert len(ideal_generators(INC3, "classical").generators) == 5
    assert len(ideal_generators(FULL4, "classical").generators) == 9
    assert len(ideal_generators(GR24, "classical").generators) == 4
    for flavor in ("quantum-polynomial", "quantum-power-series", "coulomb"):
        assert len(ideal_generators(INC4, flavor).generators) == 7


def test_flavor_and_space_validation():
    for flavor in ("quantum-power-series", "quantum-polynomial", "coulomb"):
        with pytest.raises(ValueError, match="incidence"):
            ideal_generators(GR24, flavor)
        with pytest.raises(ValueError, match="incidence"):
            ideal_generators(FULL4, flavor)
    with pytest.raises(ValueError, match="flavor"):
        ideal_generators(INC3, "quantum")


def test_grassmannian_classical_relations():
    gens = ideal_generators(GR24, "classical").generators
    g1 = pres_var(GR24, "eX1_1") + pres_var(GR24, "eY1_1") \
        - pres_scalar(GR24, t_elem(GR24, 1))
    assert gens[0] == g1
    g4 = pres_var(GR24, "eX1_2") * pres_var(GR24, "eY1_2") \
        - pres_scalar(GR24, t_elem(GR24, 4))
    assert gens[3] == g4


def test_fl3_quantum_polynomial_generators_are_the_known_five():
    spec = ideal_generators(INC3, "quantum-polynomial")
    x1 = pres_var(INC3, "eX1_1")
    y1 = pres_var(INC3, "eY1_1")
    a1 = pres_var(INC3, "eX2_1")
    a2 = pres_var(INC3, "eX2_2")
    c = pres_var(INC3, "eY2_1")
    one = pres_one(INC3)
    q1 = pres_q(INC3, 1)
    q2 = pres_q(INC3, 2)
    e1 = pres_scalar(INC3, t_elem(INC3, 1))
    e2 = pres_scalar(INC3, t_elem(INC3, 2))
    e3 = pres_scalar(INC3, t_elem(INC3, 3))
    golden = [
        x1 + y1 - a1,
        x1 * y1 - (one - q1) * a2,
        (one - q2) * (a1 + c - e1),
        (a1 - q2 * x1) * c - (one - q2) * (e2 - a2),
        a2 * c - (one - q2) * e3,
    ]
    assert list(spec.generators) == golden


def test_quantum_specializes_to_classical_at_q_zero():
    for space in (INC3, INC4):
        cl = ideal_generators(space, "classical").generators
        for flavor in ("quantum-power-series", "quantum-polynomial"):
            qg = ideal_generators(space, flavor).generators
            assert [pres_q0(g) for g in qg] == list(cl)


def test_unit_multiples_connect_the_quantum_flavors():
    for space in (INC3, INC4):
        n = space.n
        u1 = pres_one(space) - pres_q(space, 1)
        u2 = pres_one(space) - pres_q(space, 2)
        series = ideal_generators(space, "quantum-power-series").generators
        poly = ideal_generators(space, "quantum-polynomial").generators
        for m in range(1, n):
            lhs = series[m - 1] * u1 if m == n - 1 else series[m - 1]
            assert lhs == poly[m - 1]
        for m in range(1, n + 1):
            assert series[n - 2 + m] * u2 == poly[n - 2 + m]


def test_render_is_stable():
    g = ideal_generators(INC3, "quantum-polynomial").generators[1]
    s = render_pres(g)
    assert s == render_pres(g)
    assert "eX1_1*eY1_1" in s
    assert render_pres(pres_zero(INC3)) == "0"


def test_quotient_dimension_counts_fixed_points():
    for space in (INC3, GR13, INC4, GR24):
        spec = ideal_generators(space, "classical")
        assert groebner_dimension(spec) == len(min_coset_reps(space))


def test_quantum_dimension_at_q0_matches_classical():
    for flavor in ("quantum-polynomial", "quantum-power-series"):
        assert groebner_dimension(ideal_generators(INC3, flavor)) == 6
    assert groebner_dimension(ideal_generators(INC4, "quantum-polynomial"),
                              seeds=(3, 7)) == 12


def test_exact_dimension_mode():
    assert groebner_dimension(ideal_generators(INC3, "classical"),
                              exact=True) == 6
    with pytest.raises(ValueError, match="n <= 3"):
        groebner_dimension(ideal_generators(INC4, "classical"), exact=True)


def test_positive_dimensional_quotient_is_refused():
    gens = ideal_generators(GR24, "classical").generators
    partial = IdealSpec("classical", GR24, gens[:-1])
    with pytest.raises(RuntimeError, match="zero-dimensional"):
        groebner_dimension(partial)


def test_coulomb_equivalence_passes():
    rep = coulomb_equivalence(INC3)
    assert rep["check"] == "coulomb-equivalence"
    assert rep["space"] == {"n": 3, "ranks": [1, 2]}
    assert rep["truncation"] is None
    assert rep["status"] == "PASS"
    assert rep["witnesses"] == []


def test_coulomb_negative_control_fails():
    rep = coulomb_equivalence(INC3, negative_control=True)
    assert rep["status"] == "FAIL"
    assert rep["witnesses"]
    for wit in rep["witnesses"]:
        assert set(wit) == {"relation", "remainder"}
        assert wit["relation"].startswith("critical-locus-")
        assert wit["remainder"] != "0"


def test_coulomb_negative_control_witnesses_pinned():
    # the remainders are normal forms modulo the Groebner basis, so a change
    # to the reduction path must reproduce them byte for byte
    rep = coulomb_equivalence(INC3, negative_control=True)
    assert [w["relation"] for w in rep["witnesses"]] == ["critical-locus-1", "critical-locus-2"]
    digest = hashlib.sha256(json.dumps(rep["witnesses"], sort_keys=True).encode()).hexdigest()
    assert digest == "0acc45ce3a0e66a51674193956e9b284580b55f0759fd3309915e7ac097fa395"


def test_coulomb_needs_incidence():
    with pytest.raises(ValueError):
        coulomb_equivalence(GR24)


def test_psi_kills_the_quantum_generators():
    for flavor in ("quantum-polynomial", "quantum-power-series"):
        for g in ideal_generators(INC3, flavor).generators:
            assert psi_evaluate(g, 2).is_zero()
    for g in ideal_generators(INC4, "quantum-polynomial").generators:
        assert psi_evaluate(g, 1).is_zero()


def test_psi_kills_the_linear_kernel_element():
    ker = pres_var(INC3, "eX2_1") + pres_var(INC3, "eY2_1") \
        - pres_scalar(INC3, t_elem(INC3, 1))
    assert psi_evaluate(ker, 2).is_zero()


def test_psi_on_classical_relation_sees_the_quantum_correction():
    # X1 * Y1 - e2(S2) is only a classical relation; its image is the
    # quantum correction -q1 det(S2).
    cl = ideal_generators(INC3, "classical").generators
    img = psi_evaluate(cl[1], 2)
    det2 = embed_classical(det_class(INC3, 2), 2)
    q1 = QSeries(2, 3, 2, {(1, 0): RationalFunction.of(1, 3)})
    assert (img + det2 * q1).is_zero()


def test_psi_images_are_polynomial_in_q():
    x1y1 = pres_var(INC3, "eX1_1") * pres_var(INC3, "eY1_1")
    img = psi_evaluate(x1y1, 3)
    assert not img.is_zero()
    for qs in img.coords.values():
        assert all(sum(d) <= 1 for d in qs.coeffs)
    a2c = pres_var(INC3, "eX2_2") * pres_var(INC3, "eY2_1")
    img = psi_evaluate(a2c, 3)
    for qs in img.coords.values():
        assert all(sum(d) <= 1 for d in qs.coeffs)


def test_psi_refuses_unproven_products():
    a1 = pres_var(INC3, "eX2_1")
    with pytest.raises(ValueError, match="not computable"):
        psi_evaluate(a1 * a1, 1)
    two_plain = pres_var(INC4, "eX2_1") * pres_var(INC4, "eY1_1")
    with pytest.raises(ValueError, match="not computable"):
        psi_evaluate(two_plain, 1)


def test_psi_refuses_auxiliary_and_foreign_input():
    with pytest.raises(ValueError, match="auxiliary"):
        psi_evaluate(pres_var(INC3, "eXbar1_1", auxiliary=True), 1)
    with pytest.raises(ValueError, match="incidence"):
        psi_evaluate(ideal_generators(GR24, "classical").generators[0], 1)
