"""Polynomial presentations of quantum K rings and their verification.

The quantum K ring of an incidence variety Fl(1, n-1; n) admits a finite
presentation: a polynomial ring on elementary-symmetric generators attached
to the tautological subbundles and their quotients, modulo an explicit ideal
of quantized Whitney relations.  This module builds those ideals abstractly,
computes quotient dimensions with a small Groebner engine, connects the
presentation with the critical-locus relations of the associated gauged
linear sigma model, and evaluates generators through the localization model
to confirm that they really annihilate the ring.

Four ideal flavors are supported.

* ``classical``: the Whitney relations e(S_{j+1}) = e(S_j) e(S_{j+1}/S_j),
  available for every partial flag variety.
* ``quantum-power-series``: the quantized relations with coefficients in
  power series q_j/(1 - q_j); incidence varieties only.
* ``quantum-polynomial``: the same ideal with the (1 - q_j) denominators
  cleared, so generators are honest polynomials in q; incidence only.
* ``coulomb``: relations on an auxiliary set of variables coming from the
  critical locus of the gauge-theory superpotential; incidence only.

Scalars throughout are rational functions in the torus weights T1..Tn and
the quantum parameters q1..qk, in that order.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import product as iproduct
import random

from .algebra import (
    LaurentPolynomial,
    QSeries,
    RationalFunction,
    default_names,
    divexact,
    qs_inverse,
    render_rational,
    t_elem,
)
from .ktheory import bundle_class, bundle_quotient_class
from .qk import (
    GWOracle,
    QKElement,
    _report,
    embed_classical,
    line_bundle_product,
    line_bundle_solve,
)
from .weyl import FlagSpace

FLAVORS = ("classical", "quantum-power-series", "quantum-polynomial", "coulomb")


# -- variable layouts --------------------------------------------------------

@lru_cache(maxsize=None)
def pres_names(space: FlagSpace, auxiliary: bool = False) -> tuple[str, ...]:
    """Generator names for a presentation on this space.

    The X block lists e_l of each subbundle S_j, the Y block lists e_l of
    each quotient S_{j+1}/S_j, both ordered by (j, l).  With ``auxiliary``
    (incidence spaces only) the critical-locus variables follow: e_l of a
    rank n-2 auxiliary bundle and one extra rank-one variable.
    """
    e = space.edges
    names = []
    for j in range(1, space.k + 1):
        for ell in range(1, e[j] + 1):
            names.append(f"eX{j}_{ell}")
    for j in range(1, space.k + 1):
        for ell in range(1, e[j + 1] - e[j] + 1):
            names.append(f"eY{j}_{ell}")
    if auxiliary:
        if not space.is_incidence:
            raise ValueError("auxiliary variables exist for incidence spaces only")
        for ell in range(1, space.n - 1):
            names.append(f"eXbar1_{ell}")
        names.append("Xbar2_1")
    return tuple(names)


@lru_cache(maxsize=None)
def _name_index(space: FlagSpace, auxiliary: bool) -> dict:
    return {nm: i for i, nm in enumerate(pres_names(space, auxiliary))}


def _coeff_names(space: FlagSpace) -> list[str]:
    return default_names(space.n) + [f"q{j}" for j in range(1, space.k + 1)]


# -- presentation polynomials ------------------------------------------------

@dataclass(frozen=True)
class PresPoly:
    """Sparse polynomial in presentation generators.

    ``terms`` maps exponent tuples over ``names`` to coefficients, which are
    rational functions in the n torus weights followed by the k quantum
    parameters.  Exponents are nonnegative; zero coefficients are dropped.
    """

    space: FlagSpace
    names: tuple
    terms: dict

    def __post_init__(self):
        nv = self.space.n + self.space.k
        width = len(self.names)
        clean = {}
        for e, c in self.terms.items():
            e = tuple(e)
            if len(e) != width:
                raise ValueError("exponent width does not match the layout")
            if any(x < 0 for x in e):
                raise ValueError("presentation polynomials have no inverses")
            c = RationalFunction.of(c, nv)
            if c.nvars != nv:
                raise ValueError("coefficient lives in the wrong scalar ring")
            if not c.is_zero():
                clean[e] = c
        object.__setattr__(self, "terms", clean)

    def _check(self, other: "PresPoly"):
        if self.space != other.space or self.names != other.names:
            raise ValueError("mixed presentation layouts")

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, PresPoly):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms[e] + c if e in terms else c
        return PresPoly(self.space, self.names, terms)

    def __neg__(self):
        return PresPoly(self.space, self.names,
                        {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, PresPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, LaurentPolynomial, RationalFunction)):
            c = RationalFunction.of(other, self.space.n + self.space.k)
            return PresPoly(self.space, self.names,
                            {e: co * c for e, co in self.terms.items()})
        if not isinstance(other, PresPoly):
            return NotImplemented
        self._check(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                c = c1 * c2
                terms[e] = terms[e] + c if e in terms else c
        return PresPoly(self.space, self.names, terms)

    __rmul__ = __mul__


def pres_zero(space: FlagSpace, auxiliary: bool = False) -> PresPoly:
    return PresPoly(space, pres_names(space, auxiliary), {})

def pres_scalar(space: FlagSpace, c, auxiliary: bool = False) -> PresPoly:
    names = pres_names(space, auxiliary)
    return PresPoly(space, names, {(0,) * len(names): c})

def pres_one(space: FlagSpace, auxiliary: bool = False) -> PresPoly:
    return pres_scalar(space, 1, auxiliary)

def pres_var(space: FlagSpace, name: str, auxiliary: bool = False) -> PresPoly:
    idx = _name_index(space, auxiliary)
    if name not in idx:
        raise ValueError(f"unknown generator {name!r}")
    names = pres_names(space, auxiliary)
    e = [0] * len(names)
    e[idx[name]] = 1
    return PresPoly(space, names, {tuple(e): 1})

def pres_q(space: FlagSpace, j: int, auxiliary: bool = False) -> PresPoly:
    if not 1 <= j <= space.k:
        raise ValueError("quantum parameter index out of range")
    qv = LaurentPolynomial.variable(space.n + space.k, space.n + j)
    return pres_scalar(space, qv, auxiliary)


def _q_unit(space: FlagSpace, j: int) -> LaurentPolynomial:
    """The Laurent polynomial 1 - q_j."""
    nv = space.n + space.k
    return LaurentPolynomial.one(nv) - LaurentPolynomial.variable(nv, space.n + j)


def pres_q0(p: PresPoly) -> PresPoly:
    """Specialize every quantum parameter to zero."""
    n, k = p.space.n, p.space.k
    terms = {}
    for e, c in p.terms.items():
        num0 = _laurent_q_zero(c.num, n)
        den0 = _laurent_q_zero(c.den, n)
        if den0.is_zero():
            raise ValueError("coefficient has a pole at q = 0")
        if num0.is_zero():
            continue
        terms[e] = RationalFunction(num0, den0)
    return PresPoly(p.space, p.names, terms)


def _laurent_q_zero(p: LaurentPolynomial, n: int) -> LaurentPolynomial:
    terms = {}
    for e, c in p.terms.items():
        q = e[n:]
        if any(x < 0 for x in q):
            raise ValueError("negative power of a quantum parameter")
        if not any(q):
            terms[e] = c
    return LaurentPolynomial(p.nvars, terms)


def _split_q(p: LaurentPolynomial, n: int, k: int) -> dict:
    """Group the terms of an extended-ring Laurent polynomial by q exponent.

    Returns a map from k-tuples of q exponents to Laurent polynomials in the
    torus weights alone.
    """
    parts: dict = {}
    for e, c in p.terms.items():
        q = e[n:]
        if any(x < 0 for x in q):
            raise ValueError("negative power of a quantum parameter")
        parts.setdefault(q, {})[e[:n]] = c
    return {q: LaurentPolynomial(n, t) for q, t in parts.items()}


def pres_substitute(p: PresPoly, images: dict) -> PresPoly:
    """Evaluate p on images of its generators.

    All images must share one target layout; every generator occurring in p
    needs an image.  Coefficients carry over unchanged.
    """
    if not images:
        raise ValueError("no images given")
    model = next(iter(images.values()))
    out = PresPoly(model.space, model.names, {})
    width = len(model.names)
    for e, c in p.terms.items():
        term = PresPoly(model.space, model.names, {(0,) * width: c})
        for i, expo in enumerate(e):
            if expo == 0:
                continue
            name = p.names[i]
            if name not in images:
                raise ValueError(f"no image provided for {name}")
            for _ in range(expo):
                term = term * images[name]
        out = out + term
    return out


def clear_q_units(p: PresPoly) -> PresPoly:
    """Multiply by the least powers of (1 - q_j) that clear all coefficient
    denominators of quantum parameters.  Raises if denominators involve q in
    any other way."""
    space = p.space
    out = p
    for j in range(1, space.k + 1):
        unit = _q_unit(space, j)
        power = 0
        for c in p.terms.values():
            den, m = c.den, 0
            while True:
                try:
                    den = divexact(den, unit)
                except (ValueError, ArithmeticError):
                    break
                m += 1
            power = max(power, m)
        for _ in range(power):
            out = out * RationalFunction.of(unit, space.n + space.k)
    for c in out.terms.values():
        if set(_split_q(c.den, space.n, space.k)) != {(0,) * space.k}:
            raise ValueError("denominator is not a product of (1 - q_j) factors")
    return out


def render_pres(p: PresPoly) -> str:
    """Stable text form: monomials in decreasing graded order."""
    if not p.terms:
        return "0"
    cnames = _coeff_names(p.space)
    pieces = []
    for e in sorted(p.terms, key=_grevlex_key, reverse=True):
        c = p.terms[e]
        mono = "*".join(nm if x == 1 else f"{nm}^{x}"
                        for nm, x in zip(p.names, e) if x)
        cs = render_rational(c, cnames)
        if not mono:
            pieces.append(cs if _is_bare(cs) else f"({cs})")
        elif c.is_one():
            pieces.append(mono)
        else:
            pieces.append(f"({cs})*{mono}")
    return " + ".join(pieces)


def _is_bare(s: str) -> bool:
    return not any(ch in s for ch in "+- ") or (s.startswith("-") and _is_bare(s[1:]))


# -- ideals ------------------------------------------------------------------

@dataclass(frozen=True)
class IdealSpec:
    """A named family of relations presenting (a candidate for) the ring."""

    flavor: str
    space: FlagSpace
    generators: tuple


def ideal_generators(space: FlagSpace, flavor: str) -> IdealSpec:
    """The defining relations of the chosen presentation flavor.

    Classical Whitney relations exist for every space; the quantum and
    critical-locus flavors are proved for incidence varieties and refuse
    other spaces.  Generator count is always the sum of the ranks r_{j+1}.
    """
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    if flavor == "classical":
        gens = _classical_generators(space)
    else:
        if not space.is_incidence:
            raise ValueError(f"flavor {flavor!r} is available for incidence "
                             "varieties Fl(1, n-1; n) only")
        if flavor == "quantum-power-series":
            gens = _incidence_series_generators(space)
        elif flavor == "quantum-polynomial":
            gens = _incidence_polynomial_generators(space)
        else:
            gens = _coulomb_generators(space)
    return IdealSpec(flavor, space, tuple(gens))


def _wedge_var(space: FlagSpace, name: str, rank: int, ell: int,
               auxiliary: bool = False) -> PresPoly:
    # e_ell of a rank-`rank` bundle whose generators are name_1, name_2, ...
    if ell == 0:
        return pres_one(space, auxiliary)
    if ell > rank:
        return pres_zero(space, auxiliary)
    return pres_var(space, f"{name}_{ell}", auxiliary)


def _xvar(space: FlagSpace, j: int, ell: int) -> PresPoly:
    # e_ell of S_j, with S_{k+1} the trivial rank n bundle
    if j == space.k + 1 and 0 < ell <= space.n:
        return pres_scalar(space, t_elem(space.n, ell, space.n + space.k))
    return _wedge_var(space, f"eX{j}", space.edges[j], ell)


def _yvar(space: FlagSpace, j: int, ell: int) -> PresPoly:
    # e_ell of the quotient S_{j+1}/S_j
    return _wedge_var(space, f"eY{j}", space.edges[j + 1] - space.edges[j], ell)


def _classical_generators(space: FlagSpace) -> list:
    gens = []
    for j in range(1, space.k + 1):
        for ell in range(1, space.edges[j + 1] + 1):
            g = pres_zero(space)
            for i in range(ell + 1):
                g = g + _xvar(space, j, i) * _yvar(space, j, ell - i)
            gens.append(g - _xvar(space, j + 1, ell))
    return gens


def _incidence_series_generators(space: FlagSpace) -> list:
    n = space.n
    nv = n + space.k
    x1 = pres_var(space, "eX1_1")
    qq1 = RationalFunction(LaurentPolynomial.variable(nv, n + 1), _q_unit(space, 1))
    qq2 = RationalFunction(LaurentPolynomial.variable(nv, n + 2), _q_unit(space, 2))
    gens = []
    for m in range(1, n):
        g = _yvar(space, 1, m) + x1 * _yvar(space, 1, m - 1) - _xvar(space, 2, m)
        if m == n - 1:
            g = g + _yvar(space, 1, n - 2) * x1 * qq1
        gens.append(g)
    c = pres_var(space, "eY2_1")
    for m in range(1, n + 1):
        g = _xvar(space, 2, m) + _xvar(space, 2, m - 1) * c \
            - pres_scalar(space, t_elem(space.n, m, space.n + space.k))
        inner = _xvar(space, 2, m - 1)
        if m == 1:
            inner = inner - pres_one(space)
        if m == 2:
            inner = inner - x1
        gens.append(g + c * inner * qq2)
    return gens


def _incidence_polynomial_generators(space: FlagSpace) -> list:
    n = space.n
    x1 = pres_var(space, "eX1_1")
    q1 = pres_q(space, 1)
    q2 = pres_q(space, 2)
    gens = []
    for m in range(1, n):
        g = _yvar(space, 1, m) + x1 * _yvar(space, 1, m - 1) - _xvar(space, 2, m)
        if m == n - 1:
            g = g + q1 * _xvar(space, 2, n - 1)
        gens.append(g)
    c = pres_var(space, "eY2_1")
    for m in range(1, n + 1):
        em = pres_scalar(space, t_elem(space.n, m, space.n + space.k))
        g = _xvar(space, 2, m) + _xvar(space, 2, m - 1) * c - em
        corr = em - _xvar(space, 2, m)
        if m == 1:
            corr = corr - c
        if m == 2:
            corr = corr - c * x1
        gens.append(g + q2 * corr)
    return gens


def _coulomb_generators(space: FlagSpace) -> list:
    n = space.n
    x1 = pres_var(space, "eX1_1", auxiliary=True)
    q1 = pres_q(space, 1, auxiliary=True)
    q2 = pres_q(space, 2, auxiliary=True)
    z = pres_var(space, "Xbar2_1", auxiliary=True)

    xv = partial(_wedge_var, space, "eX2", n - 1, auxiliary=True)
    aux = partial(_wedge_var, space, "eXbar1", n - 2, auxiliary=True)
    gens = []
    for ell in range(1, n):
        g = aux(ell) + x1 * aux(ell - 1) - xv(ell)
        if ell == n - 2:
            g = g - q1 * aux(n - 2)
        gens.append(g)
    for ell in range(1, n + 1):
        em = pres_scalar(space, t_elem(space.n, ell, space.n + space.k), auxiliary=True)
        g = xv(ell) + xv(ell - 1) * z - em
        if ell == 1:
            g = g - q2 * z
        if ell == 2:
            g = g - q2 * x1 * z
        gens.append(g)
    return gens


# -- Groebner engine ---------------------------------------------------------
#
# Polynomials are dicts from exponent tuples to field elements (Fraction, or
# RationalFunction in the torus weights).  Graded reverse lexicographic
# order throughout.  Basis elements are kept monic: _monic is the one place
# that divides by a leading coefficient, so reduction and S-polynomials
# only multiply and subtract.

def _grevlex_key(e: tuple) -> tuple:
    return (sum(e), tuple(-x for x in reversed(e)))


def _divides(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _lt(p: dict) -> tuple:
    return max(p, key=_grevlex_key)


def _monic(p: dict) -> tuple:
    """The basis element (leading exponent, p / leading coefficient)."""
    lead = _lt(p)
    c = p[lead]
    return lead, {e: x / c for e, x in p.items()}


def _reduce_full(p: dict, basis: list) -> dict:
    """Remainder of p on full division by the monic basis, largest first."""
    work = dict(p)
    out = {}
    while work:
        lead = max(work, key=_grevlex_key)
        c = work.pop(lead)
        if c == 0:
            continue
        hit = next((b for b in basis if _divides(b[0], lead)), None)
        if hit is None:
            out[lead] = c
            continue
        blt, bterms = hit
        shift = tuple(x - y for x, y in zip(lead, blt))
        for be, bc in bterms.items():
            if be == blt:
                continue
            ke = tuple(x + y for x, y in zip(be, shift))
            prev = work.get(ke)
            nc = -(c * bc) if prev is None else prev - c * bc
            if nc == 0:
                work.pop(ke, None)
            else:
                work[ke] = nc
    return out


def _spoly(a: tuple, b: tuple) -> dict:
    (alt, aterms), (blt, bterms) = a, b
    lcm = tuple(max(x, y) for x, y in zip(alt, blt))
    fa = tuple(x - y for x, y in zip(lcm, alt))
    fb = tuple(x - y for x, y in zip(lcm, blt))
    out = {tuple(x + y for x, y in zip(e, fa)): c for e, c in aterms.items()}
    for e, c in bterms.items():
        ke = tuple(x + y for x, y in zip(e, fb))
        prev = out.get(ke)
        nc = -c if prev is None else prev - c
        if nc == 0:
            out.pop(ke, None)
        else:
            out[ke] = nc
    return out


def _buchberger(gens: list) -> list:
    """Monic Groebner basis of the ideal the given polynomials generate."""
    basis = [_monic(g) for g in gens if g]
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        best = min(pairs, key=lambda ij: _grevlex_key(
            tuple(max(x, y) for x, y in zip(basis[ij[0]][0], basis[ij[1]][0]))))
        pairs.remove(best)
        i, j = best
        alt, blt = basis[i][0], basis[j][0]
        if all(x == 0 or y == 0 for x, y in zip(alt, blt)):
            continue
        r = _reduce_full(_spoly(basis[i], basis[j]), basis)
        if r:
            basis.append(_monic(r))
            pairs.extend((t, len(basis) - 1) for t in range(len(basis) - 1))
    return basis


def _quotient_dimension(basis: list, nv: int):
    """Number of standard monomials, or None if not zero-dimensional."""
    lts = [blt for blt, _ in basis]
    bounds = []
    for v in range(nv):
        pure = [e[v] for e in lts
                if e[v] > 0 and all(x == 0 for i, x in enumerate(e) if i != v)]
        if not pure:
            return None
        bounds.append(min(pure))
    count = 0
    for pt in iproduct(*(range(b) for b in bounds)):
        if not any(_divides(l, pt) for l in lts):
            count += 1
    return count


# -- dimension of the quotient at q = 0 --------------------------------------

def _seed_values(seed: int, n: int) -> list:
    rng = random.Random(seed)
    vals: list = []
    while len(vals) < n:
        f = Fraction(rng.choice((-1, 1)) * rng.randint(1, 60), rng.randint(1, 24))
        if f not in vals:
            vals.append(f)
    return vals


def _eval_fraction(c: RationalFunction, tvals: list, n: int) -> Fraction:
    def ev(p):
        total = Fraction(0)
        for e, co in p.terms.items():
            if any(e[n:]):
                raise ValueError("quantum parameters survived specialization")
            v = Fraction(co)
            for i in range(n):
                if e[i]:
                    v *= tvals[i] ** e[i]
            total += v
        return total
    den = ev(c.den)
    if den == 0:
        raise RuntimeError("torus specialization hit a pole; change the seed")
    return ev(c.num) / den


def groebner_dimension(spec: IdealSpec, seeds: tuple = (0, 1),
                       exact: bool = False) -> int:
    """Dimension over the function field of the quotient by the ideal at q=0.

    The torus weights are specialized to seeded distinct nonzero rationals
    and the count of standard monomials is required to agree across seeds.
    With ``exact`` the computation runs over honest rational functions in
    the weights instead, which is affordable for n <= 3.  Raises if the
    specialized quotient fails to be zero-dimensional.
    """
    if not spec.generators:
        raise ValueError("empty ideal")
    n, k = spec.space.n, spec.space.k
    if exact and n > 3:
        raise ValueError("exact coefficient mode is supported for n <= 3")
    gens0 = [pres_q0(g) for g in spec.generators]
    nv = len(spec.generators[0].names)
    q0 = (0,) * k

    def value(c, tvals):
        # the q-free coefficient over the weights, or its value at tvals
        if tvals is None:
            return RationalFunction(_split_q(c.num, n, k)[q0], _split_q(c.den, n, k)[q0])
        return _eval_fraction(c, tvals, n)

    counts = []
    for tvals in [None] if exact else [_seed_values(seed, n) for seed in seeds]:
        polys = [{e: v for e, c in g.terms.items() if (v := value(c, tvals)) != 0}
                 for g in gens0]
        d = _quotient_dimension(_buchberger(polys), nv)
        if d is None:
            raise RuntimeError("quotient at q = 0 is not zero-dimensional")
        counts.append(d)
    if len(set(counts)) != 1:
        raise RuntimeError(f"seeded dimension counts disagree: {counts}")
    return counts[0]


# -- critical locus versus Whitney ideal -------------------------------------

def _gb_from_pres(p: PresPoly) -> dict:
    """Flatten a presentation polynomial into the membership ring, where the
    quantum parameters become honest polynomial variables after the torus
    weights are pushed into the coefficient field."""
    n, k = p.space.n, p.space.k
    out: dict = {}
    for e, c in p.terms.items():
        den_parts = _split_q(c.den, n, k)
        if set(den_parts) != {(0,) * k}:
            raise ValueError("clear the (1 - q_j) denominators first")
        den0 = den_parts[(0,) * k]
        for qe, pnum in _split_q(c.num, n, k).items():
            key = e + qe
            v = RationalFunction(pnum, den0)
            prev = out.get(key)
            v = v if prev is None else prev + v
            if v.is_zero():
                out.pop(key, None)
            else:
                out[key] = v
    return out


def _render_member(p: dict, names: list, n: int) -> str:
    tnames = default_names(n)
    pieces = []
    for e in sorted(p, key=_grevlex_key, reverse=True):
        mono = "*".join(nm if x == 1 else f"{nm}^{x}"
                        for nm, x in zip(names, e) if x)
        cs = render_rational(p[e], tnames)
        pieces.append(f"({cs})*{mono}" if mono else f"({cs})")
    return " + ".join(pieces) if pieces else "0"


def coulomb_equivalence(space: FlagSpace, negative_control: bool = False) -> dict:
    """Check that the critical-locus relations present the same ideal.

    Auxiliary variables are eliminated by their closed-form images: e_l of
    the auxiliary bundle maps to e_l of the quotient S_2/S_1, with the top
    one divided by (1 - q_1), and the rank-one variable maps to the quotient
    line divided by (1 - q_2).  After clearing denominators each transformed
    relation must lie in the quantized Whitney ideal up to further (1 - q_j)
    unit factors, since those are invertible wherever the presentations are
    compared.  Membership is decided by exact reduction modulo a Groebner
    basis of the Whitney ideal.
    ``negative_control`` omits the 1/(1 - q_1) factor, which must break
    membership.
    """
    if not space.is_incidence:
        raise ValueError("critical-locus comparison needs an incidence variety")
    n, k = space.n, space.k
    nv = n + k
    coul = ideal_generators(space, "coulomb")
    target = ideal_generators(space, "quantum-polynomial")
    inv1 = RationalFunction(LaurentPolynomial.one(nv), _q_unit(space, 1))
    inv2 = RationalFunction(LaurentPolynomial.one(nv), _q_unit(space, 2))
    images = {nm: pres_var(space, nm) for nm in pres_names(space)}
    for ell in range(1, n - 1):
        img = pres_var(space, f"eY1_{ell}")
        if ell == n - 2 and not negative_control:
            img = img * inv1
        images[f"eXbar1_{ell}"] = img
    images["Xbar2_1"] = pres_var(space, "eY2_1") * inv2
    basis = _buchberger([_gb_from_pres(t) for t in target.generators])
    names = list(pres_names(space)) + [f"q{j}" for j in range(1, k + 1)]
    witnesses = []
    # Membership is meant in the ring where the (1 - q_j) are invertible, so
    # a relation counts as a member when some small product of those units
    # multiplies it into the polynomial ideal.
    grid = sorted(iproduct(range(3), repeat=k), key=lambda ab: (sum(ab), ab))
    units = [RationalFunction.of(_q_unit(space, j), nv) for j in range(1, k + 1)]
    for idx, g in enumerate(coul.generators):
        sub = clear_q_units(pres_substitute(g, images))
        scaled = []
        for ab in grid:
            q = sub
            for j, power in enumerate(ab):
                for _ in range(power):
                    q = q * units[j]
            scaled.append(_gb_from_pres(q))
        if not scaled[0]:
            continue
        if any(not _reduce_full(p, basis) for p in scaled):
            continue
        witnesses.append({
            "relation": f"critical-locus-{idx + 1}",
            "remainder": _render_member(_reduce_full(scaled[0], basis), names, n),
        })
    return _report("coulomb-equivalence", space, None,
                   "FAIL" if witnesses else "PASS", witnesses)


# -- evaluation into the localization model ----------------------------------

def _series_of_coeff(c: RationalFunction, space: FlagSpace, bound: int) -> QSeries:
    n, k = space.n, space.k
    num = QSeries(k, n, bound,
                  {qe: RationalFunction(p) for qe, p in _split_q(c.num, n, k).items()})
    den = QSeries(k, n, bound,
                  {qe: RationalFunction(p) for qe, p in _split_q(c.den, n, k).items()})
    return num * qs_inverse(den)


def psi_evaluate(gen: PresPoly, bound: int) -> QKElement:
    """Image of a presentation polynomial in the truncated quantum K ring.

    Generators are sent to tautological classes; products are assembled
    using only the proven line-bundle operators (the rank-one subbundle, the
    determinant of S_2 and of S_2/S_1, and the quotient line, the last two
    acting through exact division).  A monomial needing two factors of
    higher rank is refused, because no proven oracle computes it.
    """
    space = gen.space
    if not space.is_incidence:
        raise ValueError("evaluation is defined for incidence varieties only")
    n = space.n
    base = pres_names(space)
    for e in gen.terms:
        for i, x in enumerate(e):
            if x and gen.names[i] not in base:
                raise ValueError("auxiliary variables have no bundle image")
    orc = GWOracle("incidence-proven", space)
    line_ops = {
        "eX1_1": "sub",
        f"eX2_{n - 1}": "det",
        f"eY1_{n - 2}": "quot-det",
        "eY2_1": "quot-line",
    }
    etop = RationalFunction.of(t_elem(n, n), n)

    def unit_series(j):
        # the scalar 1 - q_j in the truncated series ring
        return _series_of_coeff(RationalFunction(_q_unit(space, j)), space, bound)

    # Multiplication by det(S_2/S_1) and by the quotient line is realized by
    # dividing out a proven product identity: the subbundle line times the
    # quotient determinant is (1 - q_1) det(S_2), and det(S_2) times the
    # quotient line is (1 - q_2) e_n(T).
    def apply_op(kind, x):
        if kind == "sub":
            return line_bundle_product(orc, ("sub1",), x, bound)
        if kind == "det":
            return line_bundle_product(orc, ("det", 2), x, bound)
        if kind == "quot-det":
            y = line_bundle_solve(
                orc, ("sub1",), line_bundle_product(orc, ("det", 2), x, bound), bound)
            return y * unit_series(1)
        return line_bundle_solve(orc, ("det", 2), x, bound) * etop * unit_series(2)

    def plain_class(name):
        kind, rest = name[1], name[2:]
        j, ell = rest.split("_")
        if kind == "X":
            return bundle_class(space, int(j), int(ell))
        return bundle_quotient_class(space, int(j), int(ell))

    total = QKElement(space, bound, {})
    idx = {nm: i for i, nm in enumerate(gen.names)}
    for e, c in gen.terms.items():
        plains = []
        ops = []
        for nm in gen.names:
            x = e[idx[nm]]
            if not x:
                continue
            if nm in line_ops:
                ops.extend([line_ops[nm]] * x)
            else:
                plains.extend([nm] * x)
        if len(plains) > 1:
            raise ValueError("product not computable with proven oracles")
        if plains:
            el = embed_classical(plain_class(plains[0]), bound)
        else:
            el = embed_classical(bundle_class(space, 1, 0), bound)
        for kind in ops:
            el = apply_op(kind, el)
        total = total + el * _series_of_coeff(c, space, bound)
    return total
