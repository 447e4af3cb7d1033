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
* ``quantum-polynomial``: the same relations, each multiplied by the unit
  (1 - q_j) it is stated over, so generators are honest polynomials in q;
  incidence only.
* ``coulomb``: relations on an auxiliary set of variables coming from the
  critical locus of the gauge-theory superpotential; incidence only.

Scalars throughout are Laurent polynomials in the torus weights T1..Tn and
the quantum parameters q1..qk, in that order; the only fractions are powers
of the units (1 - q_j) that divide a whole presentation polynomial.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import count, product as iproduct
from math import prod
import heapq
import random

from .algebra import (
    LaurentPolynomial,
    LaurentSum,
    QSeries,
    _render_monomial,
    default_names,
    divexact,
    qs_inverse,
    render_laurent,
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
    """Sparse polynomial in presentation generators, over a power of each
    unit (1 - q_j).

    ``terms`` maps exponent tuples over ``names`` to coefficients, which are
    Laurent polynomials in the n torus weights followed by the k quantum
    parameters (an int is promoted).  Exponents are nonnegative; zero
    coefficients are dropped.  The value is ``terms`` divided by the product
    of (1 - q_j)^den[j]; ``den`` is lowered while every coefficient is
    divisible by that unit, so equal values compare equal.
    """

    space: FlagSpace
    names: tuple
    terms: dict
    den: tuple = ()

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
            if isinstance(c, int):
                c = LaurentPolynomial.constant(nv, c)
            elif not isinstance(c, LaurentPolynomial) or c.nvars != nv:
                raise ValueError(f"coefficients must be Laurent in {nv} variables")
            if not c.is_zero():
                clean[e] = c
        den = list(self.den or (0,) * self.space.k)
        if len(den) != self.space.k or any(x < 0 for x in den):
            raise ValueError("den needs a nonnegative power of each (1 - q_j)")
        if not clean:
            den = [0] * self.space.k
        for j in range(self.space.k):
            if den[j]:
                unit = _q_unit(self.space, j + 1)
            while den[j]:
                try:
                    clean = {e: divexact(c, unit) for e, c in clean.items()}
                except ValueError:
                    break
                den[j] -= 1
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "den", tuple(den))

    def _check(self, other: "PresPoly"):
        if self.space != other.space or self.names != other.names:
            raise ValueError("mixed presentation layouts")

    def is_zero(self) -> bool:
        return not self.terms

    def _lifted(self, den: tuple) -> dict:
        """The terms over the larger power den of the units."""
        terms = self.terms
        for j, (have, want) in enumerate(zip(self.den, den)):
            if want > have:
                m = _q_unit(self.space, j + 1) ** (want - have)
                terms = {e: c * m for e, c in terms.items()}
        return terms

    def __add__(self, other):
        if not isinstance(other, PresPoly):
            return NotImplemented
        self._check(other)
        a, b, den = self.terms, other.terms, self.den
        if self.den != other.den:
            den = tuple(map(max, self.den, other.den))
            a, b = self._lifted(den), other._lifted(den)
        terms = dict(a)
        for e, c in b.items():
            terms[e] = terms[e] + c if e in terms else c
        return PresPoly(self.space, self.names, terms, den)

    def __neg__(self):
        return PresPoly(self.space, self.names,
                        {e: -c for e, c in self.terms.items()}, self.den)

    def __sub__(self, other):
        if not isinstance(other, PresPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, LaurentPolynomial)):
            return PresPoly(self.space, self.names,
                            {e: co * other for e, co in self.terms.items()}, self.den)
        if not isinstance(other, PresPoly):
            return NotImplemented
        self._check(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                c = c1 * c2
                terms[e] = terms[e] + c if e in terms else c
        return PresPoly(self.space, self.names, terms,
                        tuple(map(sum, zip(self.den, other.den))))

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


def _over_unit(p: PresPoly, j: int) -> PresPoly:
    """p / (1 - q_j)."""
    den = list(p.den)
    den[j - 1] += 1
    return PresPoly(p.space, p.names, p.terms, tuple(den))


def pres_q0(p: PresPoly) -> PresPoly:
    """Specialize every quantum parameter to zero, where each (1 - q_j) is 1."""
    n = p.space.n
    return PresPoly(p.space, p.names,
                    {e: _laurent_q_zero(c, n) for e, c in p.terms.items()})


def _laurent_q_zero(p: LaurentPolynomial, n: int) -> LaurentPolynomial:
    terms = {}
    for e, c in p._items():
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
    for e, c in p._items():
        q = e[n:]
        if any(x < 0 for x in q):
            raise ValueError("negative power of a quantum parameter")
        parts.setdefault(q, {})[e[:n]] = c
    return {q: LaurentPolynomial(n, t) for q, t in parts.items()}


def pres_substitute(p: PresPoly, images: dict) -> PresPoly:
    """Evaluate p on images of its generators.

    All images must share one target layout; every generator occurring in p
    needs an image.  Coefficients and the power ``den`` of the units carry
    over unchanged.
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
    if any(p.den):
        out = out * PresPoly(model.space, model.names, {(0,) * width: 1}, p.den)
    return out


def clear_q_units(p: PresPoly) -> PresPoly:
    """Multiply by the least powers of (1 - q_j) that leave a polynomial:
    the numerator over ``den``."""
    return PresPoly(p.space, p.names, p.terms)


def render_pres(p: PresPoly) -> str:
    """Stable text form: monomials in decreasing graded order, the whole
    over the expanded power of the units when ``den`` is nonzero."""
    if not p.terms:
        return "0"
    cnames = _coeff_names(p.space)
    pieces = []
    for e in sorted(p.terms, key=lambda e: (sum(e), [-x for x in e[::-1]]), reverse=True):
        c = p.terms[e]
        mono = _render_monomial(e, p.names)
        cs = render_laurent(c, cnames)
        if not mono:
            pieces.append(cs if _is_bare(cs) else f"({cs})")
        elif c.is_one():
            pieces.append(mono)
        else:
            pieces.append(f"({cs})*{mono}")
    out = " + ".join(pieces)
    if not any(p.den):
        return out
    den = LaurentPolynomial.one(p.space.n + p.space.k)
    for j, power in enumerate(p.den):
        den = den * _q_unit(p.space, j + 1) ** power
    return f"({out})/({render_laurent(den, cnames)})"


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
    x1 = pres_var(space, "eX1_1")
    r1 = _over_unit(pres_q(space, 1), 1)
    r2 = _over_unit(pres_q(space, 2), 2)
    gens = []
    for m in range(1, n):
        g = _yvar(space, 1, m) + x1 * _yvar(space, 1, m - 1) - _xvar(space, 2, m)
        if m == n - 1:
            g = g + _yvar(space, 1, n - 2) * x1 * r1
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
        gens.append(g + c * inner * r2)
    return gens


def _incidence_polynomial_generators(space: FlagSpace) -> list:
    # each series relation times the unit it is stated over: 1 for the
    # sub-line relations m < n-1, 1 - q_1 for m = n-1 and 1 - q_2 for every
    # det-wedge relation, also where the series correction vanishes (m = 1)
    n = space.n
    units = [1] * (n - 2) + [_q_unit(space, 1)] + [_q_unit(space, 2)] * n
    return [g * u for g, u in zip(_incidence_series_generators(space), units)]


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
# Polynomials are dicts from packed monomials to nonzero coefficients: Fraction
# (seeded dimensions) or LaurentPolynomial in the torus weights (exact
# dimensions, Coulomb membership).  Graded reverse lexicographic order
# throughout.  _monic is the one place that divides by a leading coefficient,
# and only by a unit: every Fraction, and a Laurent +-T^e.  An element whose
# leading coefficient is no unit, such as e_1(T), is kept as it is, and
# reduction and S-polynomials cross-multiply by that coefficient instead
# (pseudo-reduction over an integral domain, Becker and Weispfenning ch. 5),
# so every coefficient stays a Laurent polynomial and the leading terms are
# those of a Groebner basis over the function field.
#
# A monomial in nv variables is one integer (Bachmann and Schoenemann 1998):
# variable i fills bits 16i .. 16i + 14, and bit 16i + 15 is its guard.  A
# product is one addition, and a divides b iff (b - a) & guards == 0, since an
# entry of b - a that goes negative borrows into its own guard bit.  The degree
# is m mod (2^16 - 1), and (degree << 16nv) - m is the grevlex key, the last
# variable in the top field.  Grevlex is degree-compatible, so a degree below
# 2^15 bounds every term that reduction and S-polynomials form; _monomial and
# _lcm raise OverflowError at that bound, and no field reaches its guard.
#
# Division keeps its pending monomials in a heap of negated keys m - (degree <<
# 16nv), whose low 16nv bits are m, and sums each Laurent coefficient in place
# (LaurentSum), built once when its monomial leads or is passed over as zero
# (heap division: Johnson 1974; Monagan and Pearce 2007).
#
# Buchberger's algorithm runs in the Gebauer-Moeller installation of his
# criteria (Gebauer and Moeller 1988, as in Becker and Weispfenning's UPDATE):
# each new element drops its pairs whose lcm another new pair's lcm divides
# (chain criterion) or whose leading terms are coprime (product criterion),
# and the pending pairs it makes redundant.  Pairs wait in a heap keyed once
# by their lcm, smallest first (the normal strategy).  S-polynomials reduce
# against the current set, the elements whose leading term no later element
# divides, and the result is a minimal basis: no leading term divides another.
# Standard monomials are counted over the staircase of the leading terms.

_FIELD = 16
_FMASK = (1 << _FIELD) - 1
_LIMIT = 1 << (_FIELD - 1)   # total degrees lie in [0, _LIMIT)


def _monomial(e: tuple) -> int:
    if sum(e) >= _LIMIT:
        raise OverflowError("a Groebner monomial reaches its guard bit")
    return sum(x << (_FIELD * i) for i, x in enumerate(e))


class _GrevlexKeys(dict):
    """Grevlex keys of monomials in nv variables, kept once computed."""

    def __init__(self, nv: int):
        self.shift = _FIELD * nv

    def __missing__(self, m: int) -> int:
        key = self[m] = ((m % _FMASK) << self.shift) - m
        return key


@lru_cache(maxsize=None)
def _layout(nv: int) -> tuple:
    """(guard bits, grevlex key) in nv variables; the key is a bound method, so
    max and sorted look keys up without a Python frame."""
    return _LIMIT * (((1 << (_FIELD * nv)) - 1) // _FMASK), _GrevlexKeys(nv).__getitem__


def _divides(a: int, b: int, guards: int) -> bool:
    return not (b - a) & guards


def _monic(p: dict, nv: int) -> tuple:
    """The basis element (leading monomial, p / leading coefficient) when that
    coefficient is a unit, (leading monomial, p) otherwise."""
    lead = max(p, key=_layout(nv)[1])
    c = p[lead]
    if isinstance(c, LaurentPolynomial) and not c.is_unit():
        return lead, p
    return lead, {e: x / c for e, x in p.items()}


def _reduce_full(p: dict, basis: list, nv: int) -> dict:
    """Remainder of p on full division by the basis, largest first; a basis
    leading coefficient other than 1 scales what is left by it first, so the
    remainder is that of p times a product of those coefficients."""
    guards, key = _layout(nv)
    low = (1 << (_FIELD * nv)) - 1
    laurent = isinstance(next(iter(p.values()), None), LaurentPolynomial)
    pending = {e: LaurentSum(c) for e, c in p.items()} if laurent else dict(p)
    heap = [-key(e) for e in p]
    heapq.heapify(heap)
    out = {}
    while heap:
        lead = heapq.heappop(heap) & low
        c = pending.pop(lead)
        if laurent:
            if not c.terms:
                continue
            c = c.value()
        elif c == 0:
            continue
        for blt, bterms in basis:
            if not (lead - blt) & guards:
                break
        else:
            out[lead] = c
            continue
        lc = bterms[blt]
        if lc != 1:
            pending = {e: LaurentSum(x.value() * lc) if laurent else x * lc
                       for e, x in pending.items()}
            out = {e: x * lc for e, x in out.items()}
        shift, c = lead - blt, -c
        for be, bc in bterms.items():
            if be == blt:
                continue
            ke = be + shift
            acc = pending.get(ke)
            if acc is None:
                pending[ke] = LaurentSum(c * bc) if laurent else c * bc
                heapq.heappush(heap, -key(ke))
            elif laurent:
                acc.add(bc, c)
            else:
                pending[ke] = acc + c * bc if acc else c * bc   # no 0 + x after a cancel
    return out


def _lcm(a: int, b: int) -> int:
    m = sum(max((a >> pos) & _FMASK, (b >> pos) & _FMASK) << pos
            for pos in range(0, max(a, b).bit_length(), _FIELD))
    if m % _FMASK >= _LIMIT:    # the sum of two degrees stays below 2^16 - 1
        raise OverflowError("a Groebner monomial reaches its guard bit")
    return m


def _spoly(a: tuple, b: tuple) -> dict:
    (alt, aterms), (blt, bterms) = a, b
    lcm = _lcm(alt, blt)
    fa, fb = lcm - alt, lcm - blt
    ca, cb = aterms[alt], bterms[blt]
    if ca != 1 or cb != 1:
        aterms = {e: c * cb for e, c in aterms.items()}
        bterms = {e: c * ca for e, c in bterms.items()}
    out = {e + fa: c for e, c in aterms.items()}
    for e, c in bterms.items():
        ke = e + fb
        prev = out.get(ke)
        nc = -c if prev is None else prev - c
        if nc == 0:
            out.pop(ke, None)
        else:
            out[ke] = nc
    return out


def _buchberger(gens: list, nv: int) -> list:
    """Minimal Groebner basis of the ideal the given polynomials generate, each
    element normalized by its leading coefficient when that is a unit."""
    guards, key = _layout(nv)
    basis = []      # every element ever added
    current = []    # indices of the elements no later leading term divides
    pending = {}    # pair number -> (i, j, lcm of their leading terms)
    heap = []       # (grevlex key of the lcm, pair number)
    numbers = count()

    def update(h):
        hlt = h[0]
        new = []
        for g in current:
            glt = basis[g][0]
            lcm = _lcm(hlt, glt)
            new.append((g, lcm, lcm == hlt + glt))
        # chain criterion among the new pairs; coprime pairs still eliminate
        # others before the product criterion drops them
        kept = []
        for pos, (g, lcm, coprime) in enumerate(new):
            if coprime or not any(_divides(other[1], lcm, guards)
                                  for other in new[pos + 1:] + kept):
                kept.append((g, lcm, coprime))
        # chain criterion on the pending pairs, through h
        for number, (i, j, lcm) in list(pending.items()):
            if (_divides(hlt, lcm, guards) and _lcm(basis[i][0], hlt) != lcm
                    and _lcm(basis[j][0], hlt) != lcm):
                del pending[number]
        k = len(basis)
        basis.append(h)
        for g, lcm, coprime in kept:
            if not coprime:
                number = next(numbers)
                pending[number] = (g, k, lcm)
                heapq.heappush(heap, (key(lcm), number))
        current[:] = [g for g in current if not _divides(hlt, basis[g][0], guards)] + [k]

    for g in gens:
        if g:
            update(_monic(g, nv))
    while heap:
        number = heapq.heappop(heap)[1]
        if number in pending:
            i, j, _ = pending.pop(number)
            r = _reduce_full(_spoly(basis[i], basis[j]), [basis[g] for g in current], nv)
            if r:
                update(_monic(r, nv))
    return [basis[g] for g in current
            if not any(o != g and _divides(basis[o][0], basis[g][0], guards) for o in current)]


def _quotient_dimension(lts: set, nv: int):
    """The number of monomials in nv variables that no element of lts divides,
    None if it is infinite; each power a of the last variable adds the count in
    the others for the lts whose last entry is at most a, once per stretch."""
    if nv == 0:
        return 0 if lts else 1
    low = _FIELD * (nv - 1)
    rest = (1 << low) - 1
    pure = [m >> low for m in lts if m and not m & rest]
    if not pure:
        return None
    cuts = sorted({m >> low for m in lts if m >> low < min(pure)} | {0}) + [min(pure)]
    counts = [_quotient_dimension({m & rest for m in lts if m >> low <= a}, nv - 1)
              for a in cuts[:-1]]
    if None in counts:
        return None
    return sum((hi - lo) * c for lo, hi, c in zip(cuts, cuts[1:], counts))


# -- dimension of the quotient at q = 0 --------------------------------------

def _seed_values(seed: int, n: int) -> list:
    rng = random.Random(seed)
    vals: list = []
    while len(vals) < n:
        f = Fraction(rng.choice((-1, 1)) * rng.randint(1, 60), rng.randint(1, 24))
        if f not in vals:
            vals.append(f)
    return vals


def _eval_laurent(p: LaurentPolynomial, tvals: list) -> Fraction:
    return sum(co * prod(t ** x for t, x in zip(tvals, e)) for e, co in p._items())


def groebner_dimension(spec: IdealSpec, seed: int | None = 0) -> int:
    """Dimension over the function field of the quotient by the ideal at q=0.

    Each q = 0 coefficient must be a Laurent polynomial in the torus weights
    (``ValueError`` otherwise).  With an integer seed s the Groebner engine
    runs over ``Fraction`` twice, with the weights specialized to the
    distinct nonzero rationals of seeds s and s + 1, and the two counts of
    standard monomials must agree; with seed None it runs once over the
    Laurent polynomials, pseudo-reducing.  Raises
    ``RuntimeError`` if the specialized quotient fails to be
    zero-dimensional.
    """
    if not spec.generators:
        raise ValueError("empty ideal")
    n, k = spec.space.n, spec.space.k
    q0 = (0,) * k
    gens0 = [{_monomial(e): _split_q(c, n, k)[q0] for e, c in pres_q0(g).terms.items()}
             for g in spec.generators]
    nv = len(spec.generators[0].names)
    counts = []
    for tvals in [None] if seed is None else [_seed_values(s, n) for s in (seed, seed + 1)]:
        polys = gens0 if tvals is None else [
            {e: v for e, c in g.items() if (v := _eval_laurent(c, tvals)) != 0} for g in gens0]
        d = _quotient_dimension({lt for lt, _ in _buchberger(polys, nv)}, nv)
        if d is None:
            raise RuntimeError("quotient at q = 0 is not zero-dimensional")
        counts.append(d)
    if len(set(counts)) != 1:
        raise RuntimeError(f"seeded dimension counts disagree: {counts}")
    return counts[0]


# -- critical locus versus Whitney ideal -------------------------------------

def _gb_from_pres(p: PresPoly) -> dict:
    """Flatten a presentation polynomial into the membership ring, where the
    quantum parameters become honest polynomial variables and the torus
    weights stay in Laurent coefficients, which the Groebner engine keeps
    Laurent.  Clear the (1 - q_j) denominators first (``ValueError``)."""
    if any(p.den):
        raise ValueError("clear the (1 - q_j) denominators first")
    n, k = p.space.n, p.space.k
    return {_monomial(e + qe): part for e, c in p.terms.items()
            for qe, part in _split_q(c, n, k).items()}


def _render_member(p: dict, names: list) -> str:
    pieces = []
    for m in sorted(p, key=_layout(len(names))[1], reverse=True):
        e = [(m >> (_FIELD * i)) & _FMASK for i in range(len(names))]
        mono = _render_monomial(e, names)
        cs = render_laurent(p[m])
        pieces.append(f"({cs})*{mono}" if mono else f"({cs})")
    return " + ".join(pieces) if pieces else "0"


def _critical_images(space: FlagSpace) -> dict:
    """The images of coulomb_equivalence, by name; Whitney names map to themselves."""
    n = space.n
    images = {nm: pres_var(space, nm) for nm in pres_names(space)}
    for ell in range(1, n - 1):
        img = pres_var(space, f"eY1_{ell}")
        if ell == n - 2:
            img = _over_unit(img, 1)
        images[f"eXbar1_{ell}"] = img
    images["Xbar2_1"] = _over_unit(pres_var(space, "eY2_1"), 2)
    return images


def coulomb_equivalence(space: FlagSpace) -> dict:
    """Check that the critical-locus relations present the same ideal.

    Auxiliary variables are eliminated by their closed-form images: e_l of
    the auxiliary bundle maps to e_l of the quotient S_2/S_1, with the top
    one divided by (1 - q_1), and the rank-one variable maps to the quotient
    line divided by (1 - q_2).  After clearing denominators each transformed
    relation must lie in the quantized Whitney ideal up to further (1 - q_j)
    unit factors, since those are invertible wherever the presentations are
    compared.  Membership is decided by reduction modulo a Groebner basis
    of the Whitney ideal, over the function field in the torus weights.
    """
    if not space.is_incidence:
        raise ValueError("critical-locus comparison needs an incidence variety")
    n, k = space.n, space.k
    nv = n + k
    coul = ideal_generators(space, "coulomb")
    target = ideal_generators(space, "quantum-polynomial")
    images = _critical_images(space)
    names = list(pres_names(space)) + [f"q{j}" for j in range(1, k + 1)]
    width = len(names)
    basis = _buchberger([_gb_from_pres(t) for t in target.generators], width)
    witnesses = []
    # Membership is meant in the ring where the (1 - q_j) are invertible, so
    # a relation counts as a member when some small product of those units
    # multiplies it into the polynomial ideal.
    grid = sorted(iproduct(range(3), repeat=k), key=lambda ab: (sum(ab), ab))
    multipliers = []
    for ab in grid[1:]:
        m = LaurentPolynomial.one(nv)
        for j, power in enumerate(ab):
            m = m * _q_unit(space, j + 1) ** power
        multipliers.append(m)
    for idx, g in enumerate(coul.generators):
        sub = clear_q_units(pres_substitute(g, images))
        remainder = _reduce_full(_gb_from_pres(sub), basis, width)
        if not remainder or any(not _reduce_full(_gb_from_pres(sub * m), basis, width)
                                for m in multipliers):
            continue
        witnesses.append({
            "relation": f"critical-locus-{idx + 1}",
            "remainder": _render_member(remainder, names),
        })
    return _report("coulomb-equivalence", space, None,
                   "FAIL" if witnesses else "PASS", witnesses)


# -- evaluation into the localization model ----------------------------------

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
    etop = t_elem(n, n)

    def unit_series(j):
        # the scalar 1 - q_j in the truncated series ring
        return QSeries.one(2, n, bound) - QSeries.q(2, n, bound, j)

    # Multiplication by det(S_2/S_1) and by the quotient line is realized by
    # dividing out a proven product identity: the subbundle line times the
    # quotient determinant is (1 - q_1) det(S_2), and det(S_2) times the
    # quotient line is (1 - q_2) e_n(T).
    def apply_op(kind, x):
        if kind == "sub":
            return line_bundle_product(orc, ("sub1",), x)
        if kind == "det":
            return line_bundle_product(orc, ("det", 2), x)
        if kind == "quot-det":
            y = line_bundle_solve(orc, ("sub1",), line_bundle_product(orc, ("det", 2), x))
            return y * unit_series(1)
        return line_bundle_solve(orc, ("det", 2), x) * etop * unit_series(2)

    def plain_class(name):
        kind, rest = name[1], name[2:]
        j, ell = rest.split("_")
        if kind == "X":
            return bundle_class(space, int(j), int(ell))
        return bundle_quotient_class(space, int(j), int(ell))

    total = QKElement(space, bound, {})
    k = space.k
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
        total = total + el * QSeries(k, n, bound, _split_q(c, n, k))
    # the (1 - q_j) denominators expand as geometric series
    for j, power in enumerate(gen.den):
        for _ in range(power):
            total = total * qs_inverse(unit_series(j + 1))
    return total
