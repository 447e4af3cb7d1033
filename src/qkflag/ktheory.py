"""Equivariant K-theory of type A flag varieties in the fixed-point model.

A class on Fl(r_1..r_k; n) is a function assigning to every torus-fixed point
(a minimal coset representative) a rational function in the characters
T_1..T_n.  Three conventions anchor everything else:

- the class of the point orbit at the identity restricts there to
  prod_{i<j} (1 - T_i/T_j), and to zero elsewhere;
- the Demazure operator acts on complete-flag classes by
  (op_i sigma)(w) = (sigma(w) - x sigma(w s_i)) / (1 - x)  with
  x = T_{w(i)}/T_{w(i+1)};
- the Euler characteristic sums restrictions against the tangent weights,
  chi(sigma) = sum_w sigma(w) / prod (1 - T_{w(i)}/T_{w(j)}), the product
  over pairs i < j whose positions lie in distinct rank blocks.

Together these make chi of every Schubert structure sheaf equal to 1 and let
op_i move the Schubert basis along right multiplication by s_i; the test
suite pins both facts exhaustively for small n.
"""

import warnings
from dataclasses import dataclass
from functools import lru_cache

from .algebra import (
    LaurentPolynomial,
    RationalFunction,
    divexact,
    elem_sym,
)
from .weyl import (
    FlagSpace,
    Perm,
    _check_min_rep,
    bruhat_leq,
    coset_max,
    coset_min,
    identity,
    longest_element,
    min_coset_reps,
    right_mul,
)


def _tchar(n: int, a: int) -> LaurentPolynomial:
    # torus character T_a, 1-based
    return LaurentPolynomial.variable(n, a)


@dataclass(frozen=True)
class KClass:
    """A K-theory class given by its restrictions to the fixed points."""

    space: FlagSpace
    values: dict

    def __post_init__(self):
        reps = min_coset_reps(self.space)
        if set(self.values) != set(reps):
            raise ValueError("values must be indexed by the minimal coset representatives")
        n = self.space.n
        vals = {}
        for w in reps:
            v = self.values[w]
            if not isinstance(v, RationalFunction) or v.nvars != n:
                raise ValueError("restrictions must be rational functions in T_1..T_n")
            vals[w] = v
        object.__setattr__(self, "values", vals)

    def at(self, w: Perm) -> RationalFunction:
        try:
            return self.values[tuple(w)]
        except KeyError:
            raise ValueError(f"{w} is not a fixed point of {self.space}") from None

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.values.values())

    def _check_same(self, other: "KClass"):
        if self.space != other.space:
            raise ValueError("classes live on different spaces")

    def __add__(self, other):
        if not isinstance(other, KClass):
            return NotImplemented
        self._check_same(other)
        vals = {w: v + other.values[w] for w, v in self.values.items()}
        return KClass(self.space, vals)

    def __sub__(self, other):
        if not isinstance(other, KClass):
            return NotImplemented
        self._check_same(other)
        vals = {w: v - other.values[w] for w, v in self.values.items()}
        return KClass(self.space, vals)

    def __neg__(self):
        return KClass(self.space, {w: -v for w, v in self.values.items()})

    def __mul__(self, other):
        if isinstance(other, KClass):
            self._check_same(other)
            vals = {w: v * other.values[w] for w, v in self.values.items()}
            return KClass(self.space, vals)
        if isinstance(other, (int, LaurentPolynomial, RationalFunction)):
            c = RationalFunction.of(other, self.space.n)
            return KClass(self.space, {w: v * c for w, v in self.values.items()})
        return NotImplemented

    __rmul__ = __mul__


def zero_class(space: FlagSpace) -> KClass:
    z = RationalFunction.of(0, space.n)
    return KClass(space, {w: z for w in min_coset_reps(space)})


def one_class(space: FlagSpace) -> KClass:
    o = RationalFunction.of(1, space.n)
    return KClass(space, {w: o for w in min_coset_reps(space)})


def scalar_class(space: FlagSpace, c) -> KClass:
    """The pullback of c in K_T(pt), constant across the fixed points."""
    v = RationalFunction.of(c, space.n)
    return KClass(space, {w: v for w in min_coset_reps(space)})


# -- tautological bundles ---------------------------------------------------


def _wedge_class(space: FlagSpace, lo: int, hi: int, ell: int) -> KClass:
    # restriction at w: e_ell in T_{w(p)} over the positions lo <= p < hi
    n = space.n
    vals = {}
    for w in min_coset_reps(space):
        e = elem_sym([_tchar(n, w[p]) for p in range(lo, hi)], ell)
        vals[w] = RationalFunction.of(e, n)
    return KClass(space, vals)


def _sub_rank(space: FlagSpace, j: int) -> int:
    if not 0 <= j <= space.k + 1:
        raise ValueError(f"no tautological bundle with index {j}")
    return space.edges[j]


@lru_cache(maxsize=None)
def bundle_class(space: FlagSpace, j: int, ell: int) -> KClass:
    """Exterior power ell of the tautological subbundle S_j.

    j runs from 0 to k+1, where S_0 = 0 and S_{k+1} = C^n.  The restriction
    at w is the elementary symmetric polynomial e_ell in
    T_{w(1)}, ..., T_{w(r_j)}.
    """
    r = _sub_rank(space, j)
    if ell < 0:
        raise ValueError("negative exterior power")
    return _wedge_class(space, 0, r, ell)


@lru_cache(maxsize=None)
def bundle_quotient_class(space: FlagSpace, j: int, ell: int) -> KClass:
    """Exterior power ell of the quotient S_{j+1}/S_j, with S_0 = 0."""
    if not 0 <= j <= space.k:
        raise ValueError(f"no quotient bundle with index {j}")
    if ell < 0:
        raise ValueError("negative exterior power")
    return _wedge_class(space, space.edges[j], space.edges[j + 1], ell)


def det_class(space: FlagSpace, j: int) -> KClass:
    """Determinant line of S_j, the top exterior power; det S_0 = O."""
    return bundle_class(space, j, _sub_rank(space, j))


# -- Demazure operators -----------------------------------------------------


def _exact_div(num: LaurentPolynomial, den: LaurentPolynomial) -> RationalFunction:
    # num / den: the exact quotient in the Laurent ring when den divides num
    # there, else the reduced fraction
    try:
        return RationalFunction(divexact(num, den))
    except ValueError:
        return RationalFunction(num, den)


def _demazure_value(a: RationalFunction, b: RationalFunction, ta: int, tb: int,
                    n: int) -> RationalFunction:
    # (a - x b)/(1 - x) with x = T_ta/T_tb, cleared to (T_tb a - T_ta b)/(T_tb - T_ta)
    va, vb = _tchar(n, ta), _tchar(n, tb)
    num = a.num * (vb * b.den) - b.num * (va * a.den)
    return _exact_div(num, (vb - va) * a.den * b.den)


def demazure_op(i: int, sigma: KClass) -> KClass:
    """Demazure operator for the simple reflection s_i, complete flag only.

    The result takes the same value at w and at w s_i, so it is computed once
    per orbit; for restrictions satisfying the divisibility congruences the
    division is exact and stays in the Laurent ring.
    """
    space = sigma.space
    if not space.is_full:
        raise ValueError("Demazure operators act on the complete flag variety")
    n = space.n
    if not 1 <= i <= n - 1:
        raise ValueError(f"no simple reflection with index {i}")
    out = {}
    for w in min_coset_reps(space):
        if w in out:
            continue
        ws = right_mul(w, i)
        val = _demazure_value(sigma.values[w], sigma.values[ws], w[i - 1], w[i], n)
        out[w] = val
        out[ws] = val
    return KClass(space, out)


def demazure_word(word, sigma: KClass) -> KClass:
    """Apply Demazure operators along a word, first letter first."""
    for i in word:
        sigma = demazure_op(i, sigma)
    return sigma


# -- Schubert classes -------------------------------------------------------


def _tangent_seed(n: int, w: Perm) -> LaurentPolynomial:
    # prod_{i<j} (1 - T_{w(i)}/T_{w(j)})
    p = LaurentPolynomial.one(n)
    for i in range(n):
        for j in range(i + 1, n):
            p = p * (LaurentPolynomial.one(n) - _tchar(n, w[i]) * _tchar(n, w[j]).inverse_unit())
    return p


@lru_cache(maxsize=None)
def _schubert_full(n: int, w: Perm, variant: str) -> KClass:
    # O_w starts at the identity and O^w at the longest element, where the
    # class is the point orbit; the Demazure operator at a right descent of
    # w (an ascent for O^w) comes from the class of w s_i
    start = identity(n) if variant == "B" else longest_element(n)
    if w == start:
        space = FlagSpace.full(n)
        zero = RationalFunction.of(0, n)
        vals = {v: zero for v in min_coset_reps(space)}
        vals[w] = RationalFunction.of(_tangent_seed(n, w), n)
        return KClass(space, vals)
    descent = variant == "B"
    i = next(i for i in range(1, n) if (w[i - 1] > w[i]) == descent)
    return demazure_op(i, _schubert_full(n, right_mul(w, i), variant))


@lru_cache(maxsize=None)
def schubert_class(space: FlagSpace, w: Perm, variant: str = "B") -> KClass:
    """Schubert structure sheaf class O_w ("B") or its opposite O^w ("B-").

    w must be a minimal coset representative.  The B variant is the class of
    the closure of the Borel orbit whose coset contains w; on a partial flag
    its restrictions agree with the complete-flag class of the maximal
    representative, the opposite variant restricts under the same label.
    """
    if variant not in ("B", "B-"):
        raise ValueError("variant must be 'B' or 'B-'")
    w = _check_min_rep(space, w)
    label = coset_max(space, w) if variant == "B" else w
    full = _schubert_full(space.n, label, variant)
    vals = {v: full.values[v] for v in min_coset_reps(space)}
    return KClass(space, vals)


# -- Euler characteristic ---------------------------------------------------


@lru_cache(maxsize=None)
def _euler_data(space: FlagSpace):
    n = space.n
    blk = [0] * n
    for b, (lo, hi) in enumerate(space.block_bounds()):
        for p in range(lo, hi):
            blk[p] = b
    rows = []
    for w in min_coset_reps(space):
        cross_noninv = 0
        mexp = [0] * n
        inblock = LaurentPolynomial.one(n)
        for i in range(n):
            for j in range(i + 1, n):
                if blk[i] == blk[j]:
                    inblock = inblock * (_tchar(n, w[i]) - _tchar(n, w[j]))
                else:
                    mexp[w[j] - 1] += 1
                    if w[i] < w[j]:
                        cross_noninv += 1
        sign = -1 if cross_noninv % 2 else 1
        rows.append((w, sign, tuple(mexp), inblock))
    factors = []
    vandermonde = LaurentPolynomial.one(n)
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            f = _tchar(n, a) - _tchar(n, b)
            factors.append(f)
            vandermonde = vandermonde * f
    return tuple(rows), tuple(factors), vandermonde


def euler_char(sigma: KClass) -> RationalFunction:
    """Equivariant Euler characteristic, an element of K_T(pt).

    Classes of genuine sheaves give a Laurent polynomial; a surviving
    denominator is reported as a RuntimeWarning and the rational function is
    returned as computed.
    """
    rows, factors, vandermonde = _euler_data(sigma.space)
    n = sigma.space.n
    vals = sigma.values
    if all(v.is_laurent() for v in vals.values()):
        num = LaurentPolynomial.zero(n)
        for w, sign, mexp, inblock in rows:
            term = vals[w].as_laurent() * inblock
            if sign < 0:
                term = -term
            num = num + term.shift(mexp)
        remaining = LaurentPolynomial.one(n)
        for f in factors:
            try:
                num = divexact(num, f)
            except ValueError:
                remaining = remaining * f
        result = RationalFunction(num, remaining)
    else:
        total = RationalFunction.of(0, n)
        for w, sign, mexp, inblock in rows:
            lw = inblock.shift(mexp)
            if sign < 0:
                lw = -lw
            total = total + vals[w] * RationalFunction.of(lw, n)
        result = total / RationalFunction.of(vandermonde, n)
    if not result.is_laurent():
        warnings.warn("euler characteristic has a surviving denominator", RuntimeWarning)
    return result


# -- basis expansion --------------------------------------------------------


def expand_schubert(sigma: KClass, basis: str = "B") -> dict:
    """Coordinates of sigma in a Schubert basis, solved by substitution.

    O_w restricts to zero at x unless x <= w, and O^w unless x >= w, so
    walking the fixed points down for "B" (up for "B-") each coordinate is
    a_x = (sigma|_x - sum_{v done} a_v * O_v|_x) / O_x|_x.  Classes outside
    the integral span show up as non-Laurent coordinates, reported with a
    RuntimeWarning.
    """
    if basis not in ("B", "B-"):
        raise ValueError("basis must be 'B' or 'B-'")
    space = sigma.space
    reps = min_coset_reps(space)
    classes = {v: schubert_class(space, v, basis).values for v in reps}
    coords: dict[Perm, RationalFunction] = {}
    for x in (reversed(reps) if basis == "B" else reps):
        acc = sigma.values[x]
        for v, a in coords.items():
            if not (a.is_zero() or classes[v][x].is_zero()):
                acc = acc - a * classes[v][x]
        diag = classes[x][x]
        coords[x] = _exact_div(acc.num * diag.den, acc.den * diag.num)
    if any(not c.is_laurent() for c in coords.values()):
        warnings.warn("expansion has non-Laurent coordinates", RuntimeWarning)
    return {w: coords[w] for w in reps}


def pairings(sigma: KClass) -> dict:
    """The Euler characteristics chi(sigma * O_g) for every fixed point g.

    chi(O^v * O_g) is the Euler characteristic of a Richardson variety: 1
    when v <= g in Bruhat order and 0 otherwise.  So the pairing with O_g
    is the sum of sigma's O^v coordinates over v <= g, and one expansion
    gives every pairing.
    """
    found = [(v, a) for v, a in expand_schubert(sigma, "B-").items() if not a.is_zero()]
    zero = RationalFunction.of(0, sigma.space.n)
    return {g: sum((a for v, a in found if bruhat_leq(v, g)), zero)
            for g in min_coset_reps(sigma.space)}


# -- moving between spaces --------------------------------------------------


def pullback(sigma: KClass) -> KClass:
    """Pull a partial-flag class back to the complete flag variety.

    The value at u is the value at the minimal representative of u's coset.
    """
    space = sigma.space
    full = FlagSpace.full(space.n)
    vals = {u: sigma.values[coset_min(space, u)] for u in min_coset_reps(full)}
    return KClass(full, vals)
