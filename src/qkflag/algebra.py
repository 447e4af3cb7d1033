"""Exact sparse arithmetic kernel.

Two layers, all over arbitrary-precision integers with no floating point:

* :class:`LaurentPolynomial` -- sparse multivariate Laurent polynomials in
  the torus characters ``T1..Tn``, stored as a map from packed exponent
  vectors (one integer each, a signed field in ``[-2^31, 2^31)`` per
  variable) to nonzero coefficients; an exponent that would leave its field
  raises ``OverflowError`` rather than alias two monomials.
* :class:`QSeries` -- power series in the quantum parameters ``q1..qk``
  truncated componentwise at a bound D, with Laurent polynomial coefficients.

Values are immutable after construction and every operation is pure.
"""

from __future__ import annotations

from functools import lru_cache


def _grlex_key(exp: tuple[int, ...]) -> tuple:
    return (sum(exp), exp)


def _vec_add(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b))


def _vec_sub(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x - y for x, y in zip(a, b))


# -- packed exponent vectors -------------------------------------------------
#
# Entry i of a vector occupies bits 32*i .. 32*i + 31 of its key.  Adding the
# bias sum 2^31 * 2^(32*i) moves every entry into [0, 2^32), so no entry
# borrows from the next one and each reads off by shift and mask; XOR with
# the same bias then leaves the entries' 32-bit two's complement, which one
# struct call unpacks.  Keys are unique while every entry stays in its field;
# the bounds the operations carry make sure of that.

_HALF = 1 << 31          # entries lie in [-_HALF, _HALF)
_MASK = (1 << 32) - 1


def _pack(e: tuple[int, ...]) -> int:
    key = 0
    for x in reversed(e):
        key = (key << 32) + x
    return key


@lru_cache(maxsize=None)
def _layout(nvars: int):
    """(bias, struct) that unpack keys of nvars entries."""
    import struct

    return _HALF * (((1 << (32 * nvars)) - 1) // _MASK), struct.Struct(f"<{nvars}i")


def _unpack(key: int, nvars: int) -> tuple[int, ...]:
    bias, fields = _layout(nvars)
    return fields.unpack(((key + bias) ^ bias).to_bytes(fields.size, "little"))


def _laurent(nvars: int, terms: dict[int, int], bound: int) -> "LaurentPolynomial":
    """The polynomial with these packed terms (nonzero coefficients) and no
    exponent larger than bound in absolute value."""
    if bound >= _HALF:
        raise OverflowError("a Laurent exponent leaves its 32-bit field")
    r = object.__new__(LaurentPolynomial)
    r.nvars = nvars
    r.terms = terms
    r._bound = bound
    r._hash = None
    return r


class LaurentPolynomial:
    """Sparse Laurent polynomial: map packed exponent vector -> nonzero int.

    ``terms`` is keyed by ``sum e_i * 2^(32*i)`` over the 0-based entries of
    each exponent vector, so a product of monomials adds keys; the
    constructor takes a dict keyed by exponent tuples and packs it.
    ``_bound`` is at least every ``|e_i|``: a sum takes the larger bound of
    its operands, a product or shift the sum, and an exact quotient ``a / b``
    the sum too (the Newton polytope of a is that of the quotient plus that
    of b).  A bound of ``2^31`` or more raises ``OverflowError``, so every
    key decodes to the vector that made it.  One number bounds all entries,
    so it can overstate: ``T1^(2^30) * T2^(2^30)`` raises although neither
    entry leaves its field.
    """

    __slots__ = ("nvars", "terms", "_bound", "_hash")

    def __init__(self, nvars: int, terms: dict[tuple[int, ...], int] | None = None):
        packed: dict[int, int] = {}
        bound = 0
        if terms:
            for e, c in terms.items():
                if c:
                    if len(e) != nvars:
                        raise ValueError(f"exponent vector {e} does not have {nvars} entries")
                    bound = max(bound, max(map(abs, e), default=0))
                    packed[_pack(e)] = c
        if bound >= _HALF:
            raise OverflowError("a Laurent exponent leaves its 32-bit field")
        self.nvars = nvars
        self.terms = packed
        self._bound = bound
        self._hash = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "LaurentPolynomial":
        return _laurent(nvars, {}, 0)

    @staticmethod
    def constant(nvars: int, c: int) -> "LaurentPolynomial":
        return _laurent(nvars, {0: c} if c else {}, 0)

    @staticmethod
    def one(nvars: int) -> "LaurentPolynomial":
        return _laurent(nvars, {0: 1}, 0)

    @staticmethod
    def variable(nvars: int, i: int) -> "LaurentPolynomial":
        """The monomial T_i with 1-based variable index i."""
        if not 1 <= i <= nvars:
            raise ValueError(f"variable index {i} out of range 1..{nvars}")
        return _laurent(nvars, {1 << (32 * (i - 1)): 1}, 1)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return len(self.terms) == 1 and self.terms.get(0) == 1

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def is_unit(self) -> bool:
        """+-T^e, the units of the Laurent ring."""
        return len(self.terms) == 1 and abs(next(iter(self.terms.values()))) == 1

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> "LaurentPolynomial":
        if isinstance(other, LaurentPolynomial):
            if other.nvars != self.nvars:
                raise ValueError("variable count mismatch")
            return other
        if isinstance(other, int):
            return LaurentPolynomial.constant(self.nvars, other)
        return NotImplemented

    def __add__(self, other, sign=1):
        """self + sign * other, for a sign +-1, in one pass."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        _add_terms(out, other.terms, sign)
        return _laurent(self.nvars, out, max(self._bound, other._bound))

    __radd__ = __add__

    def __neg__(self):
        return _laurent(self.nvars, {e: -c for e, c in self.terms.items()}, self._bound)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            # a monomial operand: the products are distinct, nothing cancels
            (e1, c1), = a.items()
            out = {e1 + e2: c1 * c2 for e2, c2 in b.items()}
        else:
            out = {}
            _add_products(out, a, b)
        return _laurent(self.nvars, out, self._bound + other._bound)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Exact quotient, see :func:`divexact`."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return divexact(self, other)

    def inverse_unit(self) -> "LaurentPolynomial":
        """Inverse of a unit (+- monomial with coefficient +-1)."""
        if not self.is_unit():
            raise ValueError("not a unit in the Laurent ring")
        (e, c), = self.terms.items()
        return _laurent(self.nvars, {-e: c}, self._bound)

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse_unit() ** (-k)
        result = LaurentPolynomial.one(self.nvars)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            return self.terms == ({0: other} if other else {})
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            terms = self.terms
            if not terms or (len(terms) == 1 and 0 in terms):
                # a constant equals its int, so it hashes as the int
                self._hash = hash(terms.get(0, 0))
            else:
                self._hash = hash((self.nvars, frozenset(terms.items())))
        return self._hash

    def __repr__(self):
        return f"LaurentPolynomial({render_laurent(self)})"

    # -- structure ---------------------------------------------------------

    def _items(self) -> list[tuple[tuple[int, ...], int]]:
        """The terms as (exponent tuple, coefficient) pairs."""
        bias, fields = _layout(self.nvars)
        unpack, size = fields.unpack, fields.size
        return [(unpack(((e + bias) ^ bias).to_bytes(size, "little")), c)
                for e, c in self.terms.items()]

    def shift(self, delta: tuple[int, ...]) -> "LaurentPolynomial":
        if len(delta) != self.nvars:
            raise ValueError("shift vector length does not match the variables")
        moved = _pack(delta)
        if not moved:
            return self
        bound = self._bound + max(map(abs, delta))
        return _laurent(self.nvars, {e + moved: c for e, c in self.terms.items()}, bound)


def _add_terms(out: dict, terms: dict, sign: int) -> None:
    """out += sign * terms over packed terms, in place; zero sums leave out."""
    get = out.get
    for e, c in terms.items():
        s = get(e, 0) + sign * c
        if s:
            out[e] = s
        elif e in out:
            del out[e]


def _add_products(out: dict, a: dict, b: dict) -> None:
    """out += a * b over packed terms, in place; zero sums leave out."""
    get = out.get
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            s = get(e, 0) + c1 * c2
            if s:
                out[e] = s
            elif e in out:
                del out[e]


class LaurentSum:
    """A Laurent polynomial summed in place: ``add(b, a)`` adds a * b, for a
    sign or a polynomial a, with no intermediate polynomial; ``value()`` ends
    the sum, handing its dict to the polynomial.  The bound grows as ``+``
    and ``*`` grow it, so ``value()`` raises ``OverflowError`` where the same
    sum of polynomials would."""

    __slots__ = ("nvars", "terms", "bound")

    def __init__(self, start: LaurentPolynomial):
        self.nvars, self.terms, self.bound = start.nvars, dict(start.terms), start._bound

    def add(self, b: LaurentPolynomial, a: "int | LaurentPolynomial" = 1) -> None:
        if isinstance(a, int):
            _add_terms(self.terms, b.terms, a)
            self.bound = max(self.bound, b._bound)
        else:
            if len(a.terms) > len(b.terms):
                a, b = b, a
            _add_products(self.terms, a.terms, b.terms)
            self.bound = max(self.bound, a._bound + b._bound)

    def value(self) -> LaurentPolynomial:
        return _laurent(self.nvars, self.terms, self.bound)


def _binomial_shape(b: LaurentPolynomial):
    """(c, e, d, i) with b = c * T^e * (T^d - 1), c = +-1, d[i] = 1 and e, d
    packed; None for any other divisor."""
    if len(b.terms) != 2:
        return None
    (e1, c1), (e2, c2) = b.terms.items()
    if c1 + c2 or c1 not in (1, -1):
        return None
    d = _vec_sub(_unpack(e1, b.nvars), _unpack(e2, b.nvars))
    if 1 not in d:
        if -1 not in d:
            return None
        e1, c1, e2, d = e2, c2, e1, tuple(-x for x in d)
    return c1, e2, e1 - e2, d.index(1)


def _divide_binomial(a: LaurentPolynomial, b_bound: int, c: int, e: int, d: int,
                     i: int) -> LaurentPolynomial:
    # synthetic division by y - 1 with y = T^d, then by c * T^e: the
    # exponents of a fall into orbits e + e0 + k*d, keyed by e0 with entry i
    # equal to -e[i] (d[i] = 1, so k is the entry i), and on each orbit the
    # quotient's coefficient at T^(e0 + k*d) is minus c times the running sum
    # of a's coefficients up to y^k, which ends at zero exactly when y - 1
    # divides; the gaps where that sum is 0 are skipped.  |k| <= |a|, |d| <=
    # 2|b| and |e| <= |b| bound the orbit keys, which must stay in their fields.
    a_bound = a._bound
    if a_bound + 2 * a_bound * b_bound + b_bound >= _HALF:
        raise OverflowError("a Laurent exponent leaves its 32-bit field")
    low, _ = _layout(i + 1)   # biases entries 0..i, so entry i reads off alone
    at = 32 * i
    orbits: dict[int, list] = {}
    for ea, ca in a.terms.items():
        k = (((ea + low) >> at) & _MASK) - _HALF
        orbits.setdefault(ea - k * d - e, []).append((k, ca))
    out: dict[int, int] = {}
    for key, run in orbits.items():
        run.sort()
        s = 0
        for (k, ca), (k_next, _) in zip(run, run[1:]):
            s += ca
            if s:
                cq = -s * c
                eq = key + k * d
                for _ in range(k, k_next):
                    out[eq] = cq
                    eq += d
        if s + run[-1][1]:
            raise ValueError("not divisible")
    return _laurent(a.nvars, out, a_bound + b_bound)


def divexact(a: LaurentPolynomial, b: LaurentPolynomial) -> LaurentPolynomial:
    """Exact quotient a/b in the Laurent ring; raises if b does not divide a.

    Two divisor shapes are accepted.  A monomial divides term by term.  A
    binomial c*(T^e1 - T^e2) with c = +-1 and some entry of e1 - e2 equal to
    +-1 -- every T_a - T_b and 1 - T_a/T_b of the Demazure, Euler
    characteristic and Schubert expansion paths -- is divided synthetically,
    one running sum per orbit of T^(e1-e2), in time linear in the terms of a
    and of the quotient.  Any other divisor is refused with ValueError; a
    product of such binomials is divided one factor at a time.
    """
    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if b.is_monomial():
        (eb, cb), = b.terms.items()
        out = {}
        for e, c in a.terms.items():
            if c % cb:
                raise ValueError("not divisible")
            out[e - eb] = c // cb
        return _laurent(a.nvars, out, a._bound + b._bound)
    shape = _binomial_shape(b)
    if shape is None:
        raise ValueError("divexact divides by a monomial or by a binomial "
                         "+-(T^e1 - T^e2) with an exponent gap of +-1, not by "
                         f"{render_laurent(b)}")
    return _divide_binomial(a, b._bound, *shape)


class QSeries:
    """Power series in q1..qk truncated at componentwise degree <= bound.

    Coefficients are Laurent polynomials in the torus variables.  Working at
    bound D means computing in the quotient by the ideal (q_1^{D+1}, ...,
    q_k^{D+1}), so every identity asserted here is an identity of all
    coefficients up to that degree.
    """

    __slots__ = ("k", "nvars", "bound", "coeffs")

    def __init__(self, k: int, nvars: int, bound: int,
                 coeffs: dict[tuple[int, ...], LaurentPolynomial] | None = None):
        self.k = k
        self.nvars = nvars
        self.bound = bound
        clean: dict[tuple[int, ...], LaurentPolynomial] = {}
        if coeffs:
            for d, c in coeffs.items():
                if any(x < 0 for x in d):
                    raise ValueError("negative q exponent")
                if not isinstance(c, LaurentPolynomial) or c.nvars != nvars:
                    raise ValueError(f"coefficients must be Laurent in {nvars} variables")
                if all(x <= bound for x in d) and not c.is_zero():
                    clean[d] = c
        self.coeffs = clean

    @staticmethod
    def zero(k: int, nvars: int, bound: int) -> "QSeries":
        return QSeries(k, nvars, bound)

    @staticmethod
    def one(k: int, nvars: int, bound: int) -> "QSeries":
        return QSeries(k, nvars, bound, {(0,) * k: LaurentPolynomial.one(nvars)})

    @staticmethod
    def q(k: int, nvars: int, bound: int, j: int) -> "QSeries":
        """The monomial q_j with 1-based index j."""
        e = [0] * k
        e[j - 1] = 1
        return QSeries(k, nvars, bound, {tuple(e): LaurentPolynomial.one(nvars)})

    def is_zero(self) -> bool:
        return not self.coeffs

    def constant_term(self) -> LaurentPolynomial:
        return self.coeffs.get((0,) * self.k, LaurentPolynomial.zero(self.nvars))

    def _check(self, other: "QSeries"):
        if self.k != other.k or self.bound != other.bound or self.nvars != other.nvars:
            raise ValueError("mismatched q-series shapes (variables or truncation bound)")

    def _coerce(self, other):
        if isinstance(other, QSeries):
            self._check(other)
            return other
        if isinstance(other, int):
            other = LaurentPolynomial.constant(self.nvars, other)
        if isinstance(other, LaurentPolynomial):
            return QSeries(self.k, self.nvars, self.bound, {(0,) * self.k: other})
        return NotImplemented

    def __add__(self, other, sign=1):
        """self + sign * other, for a sign +-1, in one pass."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.coeffs)
        for d, c in other.coeffs.items():
            s = out.get(d)
            s = (c if s is None else s + c) if sign > 0 else (-c if s is None else s - c)
            if s.is_zero():
                out.pop(d, None)
            else:
                out[d] = s
        r = QSeries(self.k, self.nvars, self.bound)
        r.coeffs = out
        return r

    __radd__ = __add__

    def __neg__(self):
        r = QSeries(self.k, self.nvars, self.bound)
        r.coeffs = {d: -c for d, c in self.coeffs.items()}
        return r

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        bound = self.bound
        out: dict[tuple[int, ...], LaurentPolynomial] = {}
        for d1, c1 in self.coeffs.items():
            for d2, c2 in other.coeffs.items():
                d = _vec_add(d1, d2)
                if any(x > bound for x in d):
                    continue
                p = c1 * c2
                s = out.get(d)
                s = p if s is None else s + p
                if s.is_zero():
                    out.pop(d, None)
                else:
                    out[d] = s
        r = QSeries(self.k, self.nvars, self.bound)
        r.coeffs = out
        return r

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, LaurentPolynomial)):
            other = self._coerce(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        return (self.k, self.nvars, self.bound) == (other.k, other.nvars, other.bound) \
            and self.coeffs == other.coeffs

    def __repr__(self):
        return f"QSeries({render_qseries(self)})"


# -- operations ------------------------------------------------------------


def elem_sym(vars: list, ell: int):
    """Elementary symmetric polynomial e_ell of the inputs.

    e_0 = 1 (empty product), e_ell = 0 for ell > len(vars).  Inputs are
    Laurent polynomials.
    """
    if ell < 0:
        raise ValueError("negative degree")
    if not vars:
        return 1 if ell == 0 else 0
    zero = vars[0] - vars[0]
    e = [zero + 1] + [zero] * ell
    for v in vars:
        for j in range(min(ell, len(vars)), 0, -1):
            e[j] = e[j] + v * e[j - 1]
    return e[ell]


@lru_cache(maxsize=None)
def t_elem(n: int, ell: int, nvars: int | None = None) -> LaurentPolynomial:
    """e_ell(T1..Tn), the class of wedge^ell C^n in K_T(pt), as a Laurent
    polynomial in nvars >= n variables (default n) whose first n are the T's.
    """
    nv = n if nvars is None else nvars
    return elem_sym([LaurentPolynomial.variable(nv, a) for a in range(1, n + 1)], ell)


def qs_inverse(a: QSeries) -> QSeries:
    """Two-sided inverse within the truncation; needs a unit constant term."""
    cinv = a.constant_term().inverse_unit()
    # a = c (1 - x) with x of positive q-order; invert by geometric series
    x = QSeries.one(a.k, a.nvars, a.bound) - a * cinv
    acc = QSeries.one(a.k, a.nvars, a.bound)
    for _ in range(a.k * a.bound):
        acc = QSeries.one(a.k, a.nvars, a.bound) + x * acc
    return acc * cinv


# -- text grammar ----------------------------------------------------------


def default_names(nvars: int) -> list[str]:
    return [f"T{i}" for i in range(1, nvars + 1)]


def _render_monomial(e: tuple[int, ...], names: list[str]) -> str:
    parts = []
    for x, name in zip(e, names):
        if x == 0:
            continue
        parts.append(name if x == 1 else f"{name}^{x}")
    return "*".join(parts)


def render_laurent(p: LaurentPolynomial, names: list[str] | None = None) -> str:
    """Stable text form: terms in decreasing graded-lex order."""
    if names is None:
        names = default_names(p.nvars)
    if not p.terms:
        return "0"
    pieces = []
    for _, e, c in sorted(((sum(e), e, c) for e, c in p._items()), reverse=True):
        mono = _render_monomial(e, names)
        if not mono:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        pieces.append(("-" if c < 0 else "+", body))
    sign, body = pieces[0]
    out = body if sign == "+" else f"-{body}"
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


def render_qseries(s: QSeries) -> str:
    if not s.coeffs:
        return "0"
    qnames = [f"q{i}" for i in range(1, s.k + 1)]
    pieces = []
    for d in sorted(s.coeffs, key=_grlex_key):
        c = s.coeffs[d]
        qmono = _render_monomial(d, qnames)
        body = render_laurent(c)
        if qmono:
            body = f"({body})*{qmono}" if " " in body else (
                qmono if body == "1" else f"-{qmono}" if body == "-1" else f"{body}*{qmono}")
        pieces.append(body)
    return " + ".join(pieces)
