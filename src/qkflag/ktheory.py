"""Equivariant K-theory of type A flag varieties in the fixed-point model.

A class on Fl(r_1..r_k; n) is a function assigning to every torus-fixed point
(a minimal coset representative) a Laurent polynomial in the characters
T_1..T_n, an element of K_T(pt).  Three conventions anchor everything else:

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

from dataclasses import dataclass
from functools import lru_cache
from math import prod

from .algebra import (
    LaurentPolynomial,
    divexact,
    elem_sym,
)
from .weyl import (
    FlagSpace,
    Perm,
    _bruhat_below,
    _check_min_rep,
    coset_max,
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
    """A K-theory class given by its Laurent restrictions to the fixed points."""

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
            if not isinstance(v, LaurentPolynomial) or v.nvars != n:
                raise ValueError("restrictions must be Laurent polynomials in T_1..T_n")
            vals[w] = v
        object.__setattr__(self, "values", vals)

    def at(self, w: Perm) -> LaurentPolynomial:
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
        if isinstance(other, (int, LaurentPolynomial)):
            return KClass(self.space, {w: v * other for w, v in self.values.items()})
        return NotImplemented

    __rmul__ = __mul__


def scalar_class(space: FlagSpace, c) -> KClass:
    """The pullback of c in K_T(pt), constant across the fixed points."""
    v = LaurentPolynomial.one(space.n) * c
    return KClass(space, {w: v for w in min_coset_reps(space)})


# -- tautological bundles ---------------------------------------------------


def _substitute(f: LaurentPolynomial, w: Perm) -> LaurentPolynomial:
    """f(T_{w(1)}, ..., T_{w(n)}): the variable x_a renamed T_{w(a)}."""
    inv = sorted(range(f.nvars), key=w.__getitem__)
    return LaurentPolynomial(f.nvars, {tuple([e[a] for a in inv]): c for e, c in f._items()})


def _poly_class(space: FlagSpace, f: LaurentPolynomial) -> KClass:
    """The class of f in x_1..x_n, restricting at w to f(T_{w(1)}, ...).  At
    the identity that is f itself, so equal classes have equal polynomials."""
    return KClass(space, {w: _substitute(f, w) for w in min_coset_reps(space)})


def _wedge_poly(n: int, lo: int, hi: int, ell: int) -> LaurentPolynomial:
    # e_ell(x_{lo+1}, ..., x_hi), the wedge of the span of those positions
    xs = [_tchar(n, a) for a in range(lo + 1, hi + 1)]
    return LaurentPolynomial.one(n) * elem_sym(xs, ell)


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
    return _poly_class(space, _wedge_poly(space.n, 0, r, ell))


@lru_cache(maxsize=None)
def bundle_quotient_class(space: FlagSpace, j: int, ell: int) -> KClass:
    """Exterior power ell of the quotient S_{j+1}/S_j, with S_0 = 0."""
    if not 0 <= j <= space.k:
        raise ValueError(f"no quotient bundle with index {j}")
    if ell < 0:
        raise ValueError("negative exterior power")
    return _poly_class(space, _wedge_poly(space.n, space.edges[j], space.edges[j + 1], ell))


def det_class(space: FlagSpace, j: int) -> KClass:
    """Determinant line of S_j, the top exterior power; det S_0 = O."""
    return bundle_class(space, j, _sub_rank(space, j))


# -- Demazure operators -----------------------------------------------------


def _demazure_value(a: LaurentPolynomial, b: LaurentPolynomial, ta: int, tb: int,
                    n: int) -> LaurentPolynomial:
    # (a - x b)/(1 - x) with x = T_ta/T_tb, cleared to (T_tb a - T_ta b)/(T_tb - T_ta):
    # the numerator is two shifts and divexact divides it synthetically by
    # the binomial
    if a.is_zero() and b.is_zero():
        # both restrictions vanish on most orbits of a Schubert class: 10500
        # of the 14280 values that build Fl(5)'s
        return a
    va, vb = _tchar(n, ta), _tchar(n, tb)
    ((ea, _),), ((eb, _),) = va._items(), vb._items()
    try:
        return divexact(a.shift(eb) - b.shift(ea), vb - va)
    except ValueError:
        raise ValueError("the class is not in K_T(Fl(n)): a Demazure quotient "
                         "is not a Laurent polynomial") from None


def demazure_op(i: int, sigma: KClass) -> KClass:
    """Demazure operator for the simple reflection s_i, complete flag only.

    The result takes the same value at w and at w s_i, so it is computed once
    per orbit; the division is exact for classes in K_T(Fl(n)), and any
    other class is refused with ValueError.
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


def _isobaric(i: int, f: LaurentPolynomial) -> LaurentPolynomial:
    """pi_i f = (x_{i+1} f - x_i s_i f) / (x_{i+1} - x_i), s_i swapping x_i and
    x_{i+1}: at x = T_w it is the Demazure value, so the class of pi_i f is
    demazure_op(i, ...) of the class of f."""
    s = list(range(1, f.nvars + 1))
    s[i - 1], s[i] = s[i], s[i - 1]
    return _demazure_value(f, _substitute(f, tuple(s)), i, i + 1, f.nvars)


# -- Schubert classes -------------------------------------------------------


def _blocks(space: FlagSpace) -> list[int]:
    # the rank block of each position 0..n-1; the tangent weights at w are
    # the pairs i < j of positions in distinct blocks
    return [b for b, (lo, hi) in enumerate(space.block_bounds()) for _ in range(lo, hi)]


def _tangent_factors(space: FlagSpace, x: Perm, variant: str) -> tuple:
    """The binomials whose product is the diagonal restriction of the
    Schubert class at its own point: O_x|_x (variant "B") is the product of
    1 - T_{x(i)}/T_{x(j)} over the tangent pairs i < j with x(i) < x(j),
    O^x|_x over those with x(i) > x(j)."""
    n = space.n
    blk = _blocks(space)
    one = LaurentPolynomial.one(n)
    return tuple(one - _tchar(n, x[i]) * _tchar(n, x[j]).inverse_unit()
                 for i in range(n) for j in range(i + 1, n)
                 if blk[i] != blk[j] and (x[i] < x[j]) == (variant == "B"))


@lru_cache(maxsize=None)
def _schubert_full(n: int, w: Perm, variant: str) -> KClass:
    # O_w starts at the identity and O^w at the longest element, where the
    # class is the point orbit; the Demazure operator at a right descent of
    # w (an ascent for O^w) comes from the class of w s_i
    start = identity(n) if variant == "B" else longest_element(n)
    if w == start:
        space = FlagSpace.full(n)
        vals = {v: LaurentPolynomial.zero(n) for v in min_coset_reps(space)}
        vals[w] = prod(_tangent_factors(space, w, variant), start=LaurentPolynomial.one(n))
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
    blk = _blocks(space)
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
    factors = tuple(_tchar(n, a) - _tchar(n, b)
                    for a in range(1, n + 1) for b in range(a + 1, n + 1))
    return tuple(rows), factors


def euler_char(sigma: KClass) -> LaurentPolynomial:
    """Equivariant Euler characteristic, an element of K_T(pt).

    The localization sum is divided by the tangent factors T_a - T_b one at
    a time in the Laurent ring.  Every class in K_T(G/P) gives a Laurent
    polynomial; a factor that does not divide means the class is not one,
    and it is refused with ValueError.
    """
    rows, factors = _euler_data(sigma.space)
    n = sigma.space.n
    vals = sigma.values
    num = LaurentPolynomial.zero(n)
    for w, sign, mexp, inblock in rows:
        term = vals[w] * inblock
        if sign < 0:
            term = -term
        num = num + term.shift(mexp)
    for f in factors:
        try:
            num = divexact(num, f)
        except ValueError:
            raise ValueError("the class is not in K_T(G/P): its Euler "
                             "characteristic is not a Laurent polynomial") from None
    return num


# -- basis expansion --------------------------------------------------------


@lru_cache(maxsize=None)
def _diagonal_factors(space: FlagSpace, variant: str) -> dict:
    """_tangent_factors at every fixed point of the space."""
    return {x: _tangent_factors(space, x, variant) for x in min_coset_reps(space)}


def expand_schubert(sigma: KClass, basis: str = "B") -> dict:
    """Coordinates of sigma in a Schubert basis, solved by substitution.

    O_w restricts to zero at x unless x <= w, and O^w unless x >= w, so
    walking the fixed points down for "B" (up for "B-") each coordinate is
    a_x = (sigma|_x - sum_{v done} a_v * O_v|_x) / O_x|_x, divided by the
    binomial factors of the diagonal O_x|_x one at a time.  A class outside
    the basis' span over K_T(pt) has a non-Laurent coordinate: ValueError.
    """
    if basis not in ("B", "B-"):
        raise ValueError("basis must be 'B' or 'B-'")
    space = sigma.space
    reps = min_coset_reps(space)
    classes = {v: schubert_class(space, v, basis).values for v in reps}
    diagonal = _diagonal_factors(space, basis)
    coords: dict[Perm, LaurentPolynomial] = {}
    for x in (reversed(reps) if basis == "B" else reps):
        acc = sigma.values[x]
        for v, a in coords.items():
            if not (a.is_zero() or classes[v][x].is_zero()):
                acc = acc - a * classes[v][x]
        try:
            for f in diagonal[x]:
                acc = divexact(acc, f)
            coords[x] = acc
        except ValueError:
            raise ValueError(f"the class is not in the Schubert span: its coordinate "
                             f"at {x} is not a Laurent polynomial") from None
    return {w: coords[w] for w in reps}


def pairings(sigma: KClass) -> dict:
    """The Euler characteristics chi(sigma * O_g) for every fixed point g.

    chi(O^v * O_g) is the Euler characteristic of a Richardson variety: 1
    when v <= g in Bruhat order and 0 otherwise.  So the pairing with O_g
    is the sum of sigma's O^v coordinates over v <= g, read over the
    space's cached lower intervals, and one expansion gives every pairing.
    The zero class pairs to zero without building a Schubert class.
    """
    space = sigma.space
    zero = LaurentPolynomial.zero(space.n)
    if sigma.is_zero():
        return dict.fromkeys(min_coset_reps(space), zero)
    found = {v: a for v, a in expand_schubert(sigma, "B-").items() if not a.is_zero()}
    below = _bruhat_below(space)
    return {g: sum((found[v] for v in (*below[g], g) if v in found), zero)
            for g in min_coset_reps(space)}
