"""Presentation-level checks: ideal flavors, quotient dimensions, the
critical-locus comparison, and evaluation into the localization model."""

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from qkflag import (
    FlagSpace,
    IdealSpec,
    LaurentPolynomial,
    PresPoly,
    QSeries,
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
from qkflag import presentation
from qkflag.algebra import elem_sym, render_qseries
from qkflag.cli import dispatch

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
    # the power of the units carries over with the coefficients
    q = presentation._over_unit(x, 1) + y
    assert pres_substitute(q, images) == q
    images["eX1_1"] = x + pres_one(INC3)
    assert pres_substitute(p, images) == x * x + 2 * x + pres_one(INC3) + y
    assert pres_substitute(q, images) == \
        presentation._over_unit(x + pres_one(INC3), 1) + y


def test_clear_q_units_multiplies_through():
    nv = 5
    q1 = LaurentPolynomial.variable(nv, 4)
    q2 = LaurentPolynomial.variable(nv, 5)
    one = LaurentPolynomial.one(nv)
    x = pres_var(INC3, "eX1_1")
    y = pres_var(INC3, "eY1_1")
    p = presentation._over_unit(presentation._over_unit(x, 1), 1) \
        + presentation._over_unit(y, 2)
    assert p.den == (2, 1)
    assert clear_q_units(p) == x * (one - q2) + y * ((one - q1) * (one - q1))
    # the whole numerator over the expanded power of the units
    assert render_pres(p) == ("((-q2 + 1)*eX1_1 + (q1^2 - 2*q1 + 1)*eY1_1)"
                              "/(-q1^2*q2 + q1^2 + 2*q1*q2 - 2*q1 - q2 + 1)")
    # multiplying by a unit lowers den instead of keeping a common factor
    lowered = p * (one - q2)
    assert lowered.den == (2, 0)
    assert lowered == presentation._over_unit(presentation._over_unit(x * (one - q2), 1), 1) + y


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


def test_generator_texts_pinned():
    # every generator of every flavor on Fl(1,n-1;n), n = 3, 4, 5, with its
    # (1 - q_j) denominators cleared and at q = 0
    h = hashlib.sha256()
    for n in (3, 4, 5):
        space = FlagSpace(n, (1, n - 1))
        for flavor in presentation.FLAVORS:
            for i, g in enumerate(ideal_generators(space, flavor).generators):
                h.update(f"{n} {flavor} {i} {render_pres(clear_q_units(g))} | "
                         f"{render_pres(pres_q0(g))}\n".encode())
    assert h.hexdigest() == \
        "b97808ecc08c00e5dd4dd95c759cd3aca929a6071e45a88e4829e61c2869a0fb"


def test_psi_images_pinned():
    # g + eX1_1 is not in the ideal, so its image is a nonzero class whose
    # q-series carry the geometric expansion of the (1 - q_j) denominators
    h = hashlib.sha256()
    for n in (3, 4):
        space = FlagSpace(n, (1, n - 1))
        for flavor in ("quantum-power-series", "quantum-polynomial"):
            for i, g in enumerate(ideal_generators(space, flavor).generators):
                el = psi_evaluate(g + pres_var(space, "eX1_1"), 2)
                for w in min_coset_reps(space):
                    h.update(f"{n} {flavor} {i} {w} {render_qseries(el.at(w))}\n".encode())
    assert h.hexdigest() == \
        "860b08037b319ed01a59d3669c83e32f3b41c63fe66d07608f79abb4b8ca401e"


def test_quotient_dimension_counts_fixed_points():
    for space in (INC3, GR13, INC4, GR24):
        spec = ideal_generators(space, "classical")
        assert groebner_dimension(spec) == len(min_coset_reps(space))


def test_quantum_dimension_at_q0_matches_classical():
    for flavor in ("quantum-polynomial", "quantum-power-series"):
        assert groebner_dimension(ideal_generators(INC3, flavor)) == 6
    assert groebner_dimension(ideal_generators(INC4, "quantum-polynomial"),
                              seed=3) == 12


def test_exact_dimension_mode():
    assert groebner_dimension(ideal_generators(INC3, "classical"), seed=None) == 6
    assert groebner_dimension(ideal_generators(INC4, "classical"), seed=None) == 12
    # the engine runs over Laurent coefficients, and a presentation
    # polynomial holds nothing else: a fraction, or a Laurent polynomial in
    # the torus weights alone, is refused as a coefficient
    g = ideal_generators(INC3, "classical").generators[0]
    for c in (Fraction(1, 2), LaurentPolynomial.one(INC3.n)):
        with pytest.raises(ValueError, match="Laurent"):
            PresPoly(INC3, g.names, {e: c for e in g.terms})


@pytest.mark.parametrize("space, flavor, dim", [
    (INC4, "classical", 12),
    (INC4, "quantum-polynomial", 12),
    (FlagSpace(4, (1, 2)), "classical", 12),
    (GR24, "classical", 6),
    (FULL4, "classical", 24),
    (FlagSpace(5, (1, 4)), "classical", 20),
    (FlagSpace(5, (1, 4)), "quantum-polynomial", 20),
    (FlagSpace(5, (1, 2, 3, 4)), "classical", 120),
    (FlagSpace(5, (1, 3)), "classical", 30),
    (FlagSpace(5, (2, 3)), "classical", 30),
], ids=["Fl(1,3;4)-classical", "Fl(1,3;4)-quantum", "Fl(1,2;4)", "Gr(2,4)",
        "Fl(4)", "Fl(1,4;5)-classical", "Fl(1,4;5)-quantum", "Fl(5)", "Fl(1,3;5)",
        "Fl(2,3;5)"])
def test_exact_dimension_matches_seeded(space, flavor, dim):
    # the seeded runs carry Fraction coefficients at random weights, the exact
    # run Laurent ones, so agreement checks the Laurent arithmetic; on
    # Fl(1,3;5) and Fl(2,3;5) the exact basis has leading coefficients such
    # as e_1(T) that are no unit, so it pseudo-reduces
    spec = ideal_generators(space, flavor)
    assert groebner_dimension(spec, seed=None) == groebner_dimension(spec) == dim


def _seeded_classical(space):
    # (generators, number of variables)
    tvals = presentation._seed_values(0, space.n)
    gens = [{presentation._monomial(e): v for e, c in g.terms.items()
             if (v := presentation._eval_laurent(c, tvals)) != 0}
            for g in ideal_generators(space, "classical").generators]
    return gens, len(pres_names(space))


def _laurent_classical(space):
    # the q = 0 generators over Laurent coefficients in the torus weights
    q0 = (0,) * space.k
    gens = [{presentation._monomial(e): presentation._split_q(c, space.n, space.k)[q0]
             for e, c in g.terms.items()}
            for g in ideal_generators(space, "classical").generators]
    return gens, len(pres_names(space))


@pytest.mark.parametrize("make_gens", [
    lambda: ([presentation._gb_from_pres(g) for g in
              ideal_generators(INC3, "quantum-polynomial").generators],
             len(pres_names(INC3)) + INC3.k),
    lambda: _seeded_classical(INC4),
    lambda: _seeded_classical(FlagSpace(5, (1, 4))),
    lambda: _laurent_classical(FlagSpace(5, (2, 3))),
], ids=["laurent-Fl(1,2;3)-quantum", "seeded-Fl(1,3;4)", "seeded-Fl(1,4;5)",
        "laurent-Fl(2,3;5)"])
def test_groebner_basis_invariants(make_gens):
    gens, nv = make_gens()
    guards = presentation._layout(nv)[0]
    basis = presentation._buchberger(gens, nv)
    reduce = presentation._reduce_full
    # Buchberger's criterion over every pair, whatever the engine pruned
    for i, a in enumerate(basis):
        for b in basis[i + 1:]:
            assert reduce(presentation._spoly(a, b), basis, nv) == {}
    for g in gens:
        assert reduce(g, basis, nv) == {}
    # normalized exactly when the leading coefficient is a unit
    for lead, terms in basis:
        lc = terms[lead]
        assert max(terms, key=presentation._layout(nv)[1]) == lead
        assert lc == 1 or not lc.is_unit()
    # minimal: no leading term divides another
    leads = [lead for lead, _ in basis]
    for i, a in enumerate(leads):
        assert not any(presentation._divides(a, b, guards)
                       for j, b in enumerate(leads) if j != i)


def _reduce_by_max_scan(p, basis, nv):
    # the division loop before heap division: the lead is the max of the
    # working dict, and each update builds a new coefficient
    guards, key = presentation._layout(nv)
    work = dict(p)
    out = {}
    while work:
        lead = max(work, key=key)
        c = work.pop(lead)
        for blt, bterms in basis:
            if not (lead - blt) & guards:
                break
        else:
            out[lead] = c
            continue
        lc = bterms[blt]
        if lc != 1:
            work = {e: x * lc for e, x in work.items()}
            out = {e: x * lc for e, x in out.items()}
        shift, c = lead - blt, -c
        for be, bc in bterms.items():
            if be == blt:
                continue
            ke = be + shift
            prev = work.get(ke)
            nc = c * bc if prev is None else prev + c * bc
            if nc == 0:
                work.pop(ke, None)
            else:
                work[ke] = nc
    return out


def _random_division(rng, nv, laurent, monic):
    # a basis of random elements (each led by its largest monomial) and a
    # dividend that is a random combination of their multiples plus junk,
    # so that many pending sums cancel
    key = presentation._layout(nv)[1]
    one = LaurentPolynomial.one(2)

    def coeff():
        if not laurent:
            return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return LaurentPolynomial(2, {(rng.randint(-1, 1), rng.randint(-1, 1)): rng.randint(-2, 2)
                                     for _ in range(rng.randint(1, 2))})

    def poly(terms):
        p = {}
        for _ in range(terms):
            e = presentation._monomial(tuple(rng.randint(0, 2) for _ in range(nv)))
            c = coeff()
            p[e] = p[e] + c if e in p else c
        return {e: c for e, c in p.items() if c != 0}

    basis = []
    for _ in range(rng.randint(1, 4)):
        g = poly(rng.randint(1, 4))
        if not g:
            continue
        lead = max(g, key=key)
        if monic:
            g[lead] = one if laurent else Fraction(1)
        basis.append((lead, g))
    p = poly(rng.randint(0, 5))
    for lead, g in basis:
        m = presentation._monomial(tuple(rng.randint(0, 1) for _ in range(nv)))
        c = coeff()
        for e, x in g.items():
            p[e + m] = p.get(e + m, 0) + c * x
    return {e: c for e, c in p.items() if c != 0}, basis


@pytest.mark.parametrize("laurent,monic", [(True, True), (False, True), (True, False),
                                           (False, False)],
                         ids=["laurent", "fraction", "laurent-pseudo", "fraction-pseudo"])
def test_heap_division_matches_max_scan(laurent, monic):
    rng = random.Random(23 + 2 * laurent + monic)
    nv = 3
    for _ in range(150):
        p, basis = _random_division(rng, nv, laurent, monic)
        assert presentation._reduce_full(p, basis, nv) == _reduce_by_max_scan(p, basis, nv)
    # x*y - y^2 by x - y: the update of y^2 cancels it before it leads
    x, y = presentation._monomial((1, 0, 0)), presentation._monomial((0, 1, 0))
    one = LaurentPolynomial.one(2) if laurent else Fraction(1)
    lc = one if monic else one * 2
    basis = [(x, {x: lc, y: -one})]
    p = {x + y: lc, 2 * y: -one}
    assert presentation._reduce_full(p, basis, nv) == _reduce_by_max_scan(p, basis, nv) == {}


def test_non_unit_leading_coefficient_is_pseudo_reduced(capsys, monkeypatch):
    # doubling the first generator keeps the ideal over the function field,
    # but its leading coefficient 2 divides none of the +-1 in the Laurent
    # ring: the engine keeps that element as it is and cross-multiplies by
    # the 2 when it reduces.  Doubling the leading term alone makes another
    # ideal of the same dimension, one the critical-locus relations miss.
    real = presentation._buchberger
    whole = True

    def skewed(gens, nv):
        first = dict(gens[0])
        lead = max(first, key=presentation._layout(nv)[1])
        for e in (list(first) if whole else [lead]):
            first[e] = first[e] * 2
        return real([first] + gens[1:], nv)

    monkeypatch.setattr(presentation, "_buchberger", skewed)
    for whole, code, witnesses in [
            (True, 0, []),
            (False, 1, [{"relation": "critical-locus-1",
                         "remainder": "(-1)*eX2_1 + (1)*eY1_1"}])]:
        assert groebner_dimension(ideal_generators(INC3, "classical"), seed=None) == 6
        assert dispatch(["verify", "coulomb", "--n", "3"]) == code
        out, err = capsys.readouterr()
        assert json.loads(out)["witnesses"] == witnesses
        assert "internal error" not in err


def _random_exponents(rng, nv, top):
    # entries in [0, top], zeros included, total degree below the guard bit
    while True:
        e = tuple(rng.choice((0, 0, rng.randint(0, top))) for _ in range(nv))
        if sum(e) < presentation._LIMIT:
            return e


def test_guard_bit_divisibility_matches_componentwise():
    rng = random.Random(5)
    limit = presentation._LIMIT
    pairs = [
        ((1, 0), (0, 1)),                  # borrows from the field above
        ((0, 1), (1, 0)),
        ((limit - 1, 0), (0, limit - 1)),  # the widest borrow
        ((3, 0, 2), (3, 1, 1)),            # equal low field, top field short
        ((0, 0, 0), (0, 0, 0)),
    ]
    for _ in range(3000):
        nv = rng.randint(1, 8)
        top = rng.choice((3, 40, limit // nv - 1))
        a = _random_exponents(rng, nv, top)
        b = list(_random_exponents(rng, nv, top))
        if rng.random() < 0.5:
            # b = a plus a nonnegative vector, with one entry perhaps lowered
            b = [x + rng.randint(0, 2) for x in a]
            if rng.random() < 0.5:
                i = rng.randrange(nv)
                b[i] = max(0, a[i] - 1)
            if sum(b) >= limit:
                continue
        pairs.append((a, tuple(b)))
    seen = set()
    for a, b in pairs:
        guards = presentation._layout(len(a))[0]
        packed = presentation._divides(presentation._monomial(a),
                                       presentation._monomial(b), guards)
        expected = all(x <= y for x, y in zip(a, b))
        assert packed == expected, (a, b)
        seen.add(expected)
    assert seen == {True, False}


def test_packed_monomials_refuse_the_guard_bit():
    limit = presentation._LIMIT
    mono, lcm = presentation._monomial, presentation._lcm
    assert mono((0, limit - 1, 0)) == (limit - 1) << presentation._FIELD
    for e in ((limit,), (limit - 1, 1), (0, 0, limit)):
        with pytest.raises(OverflowError):
            mono(e)
    with pytest.raises(OverflowError):
        lcm(mono((limit - 1, 0)), mono((0, 1)))
    assert lcm(mono((limit - 2, 0)), mono((0, 1))) == mono((limit - 2, 1))
    # a pair of coprime leading terms whose lcm would reach the guard bit
    # stops the engine instead of aliasing two monomials
    gens = [{mono((limit // 2, 0)): 1, mono((0, 1)): 1},
            {mono((0, limit // 2)): 1, mono((1, 0)): 1}]
    with pytest.raises(OverflowError):
        presentation._buchberger(gens, 2)


def _box_count(lts, nv):
    bounds = [min(e[v] for e in lts
                  if e[v] and not any(e[:v] + e[v + 1:])) for v in range(nv)]
    return sum(not any(all(x <= y for x, y in zip(e, pt)) for e in lts)
               for pt in itertools.product(*(range(b) for b in bounds)))


def test_staircase_count_matches_box_count():
    rng = random.Random(8)
    for _ in range(200):
        nv = rng.randint(1, 5)
        lts = [tuple(rng.randint(1, 5) if i == v else 0 for i in range(nv))
               for v in range(nv)]
        lts += [tuple(rng.randint(0, 4) for _ in range(nv))
                for _ in range(rng.randint(0, 6))]
        rng.shuffle(lts)
        lead = {presentation._monomial(e) for e in lts}
        assert presentation._quotient_dimension(lead, nv) == _box_count(lts, nv)
    # without a pure power of the last or the first variable the quotient is
    # infinite
    for lts in ([(2, 0, 0), (0, 3, 0), (1, 1, 1), (0, 1, 2)],
                [(0, 3, 0), (0, 0, 2), (1, 1, 0), (4, 0, 1)]):
        assert presentation._quotient_dimension(
            {presentation._monomial(e) for e in lts}, 3) is None
    # the unit ideal has no pure powers and is refused like any other
    assert presentation._quotient_dimension({0}, 2) is None


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


def test_coulomb_negative_control_fails(drop_unit):
    rep = coulomb_equivalence(INC3)
    assert rep["status"] == "FAIL"
    assert rep["witnesses"]
    for wit in rep["witnesses"]:
        assert set(wit) == {"relation", "remainder"}
        assert wit["relation"].startswith("critical-locus-")
        assert wit["remainder"] != "0"


def test_coulomb_negative_control_witnesses_pinned(drop_unit):
    # the remainders are normal forms modulo the Groebner basis, so a change
    # to the reduction path must reproduce them byte for byte
    pins = [
        (INC3, ["critical-locus-1", "critical-locus-2"],
         "0acc45ce3a0e66a51674193956e9b284580b55f0759fd3309915e7ac097fa395"),
        (INC4, ["critical-locus-2", "critical-locus-3"],
         "f4ccaca855fbd4cab13a34278a00a8d5ce0bb8a525cb1cfb77378e8560873731"),
    ]
    for space, relations, want in pins:
        rep = coulomb_equivalence(space)
        assert [w["relation"] for w in rep["witnesses"]] == relations
        digest = hashlib.sha256(json.dumps(rep["witnesses"], sort_keys=True).encode()).hexdigest()
        assert digest == want, space


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
    q1 = QSeries(2, 3, 2, {(1, 0): LaurentPolynomial.one(3)})
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
