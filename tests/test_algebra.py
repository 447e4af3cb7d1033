"""Arithmetic kernel tests: ring axioms, canonical forms, truncation."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkflag.algebra import (
    LaurentPolynomial,
    LaurentSum,
    QSeries,
    _binomial_shape,
    _pack,
    _unpack,
    divexact,
    elem_sym,
    qs_inverse,
    render_laurent,
)
from qkflag.presentation import _layout, _monomial


def T(i, nvars=2):
    return LaurentPolynomial.variable(nvars, i)


@st.composite
def laurent_polys(draw, nvars=2, max_terms=5, exp_range=3, coeff_range=6):
    count = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(count):
        e = tuple(draw(st.integers(-exp_range, exp_range)) for _ in range(nvars))
        c = draw(st.integers(-coeff_range, coeff_range))
        terms[e] = terms.get(e, 0) + c
    return LaurentPolynomial(nvars, terms)


def _random_poly(rng, nvars=2, max_terms=4, exp_range=2, coeff_range=5):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(-exp_range, exp_range) for _ in range(nvars))
        terms[e] = terms.get(e, 0) + rng.randint(-coeff_range, coeff_range)
    return LaurentPolynomial(nvars, terms)


# -- elementary symmetric polynomials --------------------------------------


def test_elem_sym_three_variables_degree_two():
    vars3 = [T(1, 3), T(2, 3), T(3, 3)]
    expect = T(1, 3) * T(2, 3) + T(1, 3) * T(3, 3) + T(2, 3) * T(3, 3)
    assert elem_sym(vars3, 2) == expect


def test_elem_sym_degree_zero_is_one():
    assert elem_sym([T(1), T(2)], 0) == LaurentPolynomial.one(2)
    assert elem_sym([], 0) == 1


def test_elem_sym_beyond_variable_count_is_zero():
    assert elem_sym([T(1), T(2)], 3) == LaurentPolynomial.zero(2)


def test_elem_sym_top_degree_is_product():
    vars3 = [T(1, 3), T(2, 3), T(3, 3)]
    assert elem_sym(vars3, 3) == T(1, 3) * T(2, 3) * T(3, 3)


# -- Laurent polynomial ring axioms ----------------------------------------


@given(laurent_polys(), laurent_polys(), laurent_polys())
def test_addition_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(laurent_polys(), laurent_polys(), laurent_polys())
def test_multiplication_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(laurent_polys(), laurent_polys())
def test_multiplication_commutes(a, b):
    assert a * b == b * a


@given(laurent_polys())
def test_additive_inverse(a):
    assert (a - a).is_zero()


_STEPS = st.lists(st.tuples(st.sampled_from("+-*"), laurent_polys(), laurent_polys()),
                  max_size=5)


@given(laurent_polys(), _STEPS, st.booleans())
def test_laurent_sum_matches_ring_operations(start, steps, cancel):
    # each step adds b, subtracts b or adds a * b in place; the materialised
    # sum equals the same sum of polynomials, bound included, and the start
    # is left as it was
    kept = LaurentPolynomial(2, dict(start._items()))
    s, ref = LaurentSum(start), start
    for op, a, b in steps:
        if op == "*":
            s.add(b, a)
            ref = ref + a * b
        elif op == "+":
            s.add(b)
            ref = ref + b
        else:
            s.add(b, -1)
            ref = ref - b
    if cancel:
        # the whole sum cancels to zero
        s.add(ref, -1)
        ref = ref - ref
    value = s.value()
    assert value == ref and value._bound == ref._bound
    assert start == kept


@given(st.integers(2 ** 29, 2 ** 31 - 1), st.booleans())
def test_laurent_sum_keeps_the_overflow_contract(e, cancel):
    # a + b*c raises once b*c could leave a field; so does the in-place sum,
    # even when the products cancel and no term is left
    x, one = LaurentPolynomial(2, {(e, 0): 1}), LaurentPolynomial.one(2)
    s = LaurentSum(one)
    s.add(x, x)
    if cancel:
        s.add(x, -x)
    if 2 * e >= 2 ** 31:
        with pytest.raises(OverflowError):
            one + x * x
        with pytest.raises(OverflowError):
            s.value()
    else:
        assert s.value() == (one if cancel else one + x * x)


def test_monomial_unit_inverse():
    m = LaurentPolynomial(2, {(2, -1): -1})
    assert m * m.inverse_unit() == LaurentPolynomial.one(2)
    assert m ** -2 == (m.inverse_unit()) ** 2


# -- packed exponent vectors -----------------------------------------------

_EDGES = [-2**31, -2**31 + 1, -1, 0, 1, 2**31 - 2, 2**31 - 1]


@given(st.lists(st.one_of(st.sampled_from(_EDGES), st.integers(-2**31, 2**31 - 1)),
                max_size=8))
def test_pack_unpack_roundtrip(e):
    e = tuple(e)
    assert _unpack(_pack(e), len(e)) == e


@given(st.lists(st.integers(-2**31 + 1, 2**31 - 1), min_size=1, max_size=6))
def test_monomial_keeps_extreme_exponents(e):
    e = tuple(e)
    assert LaurentPolynomial(len(e), {e: -2})._items() == [(e, -2)]


def test_exponent_overflow_raises():
    # 31 squarings reach T1^(2^31), one past the largest exponent a field holds
    with pytest.raises(OverflowError):
        LaurentPolynomial.variable(2, 1) ** (2 ** 31)
    assert (T(1) ** (2 ** 30))._items() == [((2 ** 30, 0), 1)]
    top = LaurentPolynomial(2, {(0, -(2 ** 31 - 1)): 1})
    for step in (lambda: top * top, lambda: top.shift((0, -2)), lambda: top / T(2) ** 2,
                 lambda: LaurentPolynomial(2, {(0, -2 ** 31 - 1): 1})):
        with pytest.raises(OverflowError):
            step()


def test_exponent_vectors_of_the_wrong_length_are_refused():
    # a longer vector would pack into fields beyond the variables
    with pytest.raises(ValueError):
        LaurentPolynomial(2, {(1, 0, 1): 1})
    with pytest.raises(ValueError):
        T(1).shift((0, 0, 1))


def test_memoized_grevlex_key_orders_as_formula():
    rng = random.Random(11)
    exps = [tuple(rng.randint(0, 4) for _ in range(6)) for _ in range(400)]

    def formula(e):
        return (sum(e), tuple(-x for x in reversed(e)))

    # the packed key of each monomial ranks every pair as the formula does
    key = _layout(6)[1]
    packed = [key(_monomial(e)) for e in exps]
    expected = [formula(e) for e in exps]
    for ka, fa in zip(packed, expected):
        for kb, fb in zip(packed, expected):
            assert (ka < kb, ka == kb) == (fa < fb, fa == fb)
    assert sorted(exps, key=lambda e: key(_monomial(e))) == sorted(exps, key=formula)
    # memoised: every key computed is kept
    assert all(_monomial(e) in key.__self__ for e in exps)


@given(laurent_polys(max_terms=2, exp_range=1, coeff_range=4))
def test_equality_with_int_matches_constant(p):
    for c in (0, 3, -1):
        assert (p == c) == (p == LaurentPolynomial.constant(2, c))
    assert LaurentPolynomial.constant(2, 3) == 3 and LaurentPolynomial.zero(2) == 0


def test_constants_hash_as_the_ints_they_equal():
    # objects that compare equal must hash equal, or a set keeps both
    assert len({LaurentPolynomial.constant(3, 5), 5}) == 1
    assert len({LaurentPolynomial.zero(3), 0}) == 1


# -- exact division ---------------------------------------------------------


@given(laurent_polys(nvars=3, max_terms=4),
       st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)),
       st.sampled_from((1, -1, 2, -3)),
       st.lists(st.sampled_from([(a, b) for a in (1, 2, 3) for b in (1, 2, 3) if a != b]),
                max_size=4))
@settings(max_examples=60)
def test_divexact_recovers_factor(a, exp, coeff, pairs):
    # a product of a monomial and factors T_a - T_b, divided one factor at a time
    factors = [LaurentPolynomial(3, {exp: coeff})] + [T(i, 3) - T(j, 3) for i, j in pairs]
    p = a
    for f in factors:
        p = p * f
    for f in reversed(factors):
        p = divexact(p, f)
    assert p == a
    if pairs:
        f = factors[-1]
        assert (a * f) / f == a


def test_divexact_rejects_nondivisible():
    a = T(1) + 1
    b = T(2) + 1
    with pytest.raises(ValueError):
        divexact(a, b)
    with pytest.raises(ZeroDivisionError):
        divexact(a, LaurentPolynomial.zero(2))
    # `/` on Laurent polynomials is the same exact division
    assert (2 * a * b) / 2 == a * b
    with pytest.raises(ValueError):
        a / b
    with pytest.raises(ValueError):
        a / 2
    with pytest.raises(ZeroDivisionError):
        a / LaurentPolynomial.zero(2)
    with pytest.raises(ZeroDivisionError):
        a / 0


# Binomials c*(T^e1 - T^e2) with c = +-1 and an entry of e1 - e2 equal to
# +-1 are divided synthetically; the last three divisors are refused.
_BINOMIAL_DIVISORS = {
    "T1-T2": (T(1, 3) - T(2, 3), True),
    "T2-T1": (T(2, 3) - T(1, 3), True),
    "monomial*(T1-T3)": (LaurentPolynomial(3, {(-1, 2, 0): -1}) * (T(1, 3) - T(3, 3)),
                         True),
    "T1*T2-T3": (T(1, 3) * T(2, 3) - T(3, 3), True),
    "T1^2-T2^2": (T(1, 3) ** 2 - T(2, 3) ** 2, False),
    "2*T1-2*T2": (T(1, 3) * 2 - T(2, 3) * 2, False),
    "T1+T2": (T(1, 3) + T(2, 3), False),
}


@pytest.mark.parametrize("shape", list(_BINOMIAL_DIVISORS))
@given(a=laurent_polys(nvars=3, max_terms=6))
@settings(max_examples=40)
def test_divexact_binomial_divisors(shape, a):
    b, synthetic = _BINOMIAL_DIVISORS[shape]
    assert (_binomial_shape(b) is not None) == synthetic
    if not synthetic:
        # a divisor of neither accepted shape is refused, whatever the dividend
        for p in (a * b, LaurentPolynomial.zero(3)):
            with pytest.raises(ValueError, match="monomial or by a binomial"):
                divexact(p, b)
        return
    assert divexact(a * b, b) == a
    with pytest.raises(ValueError):
        divexact(a * b + T(1, 3), b)
    assert divexact(LaurentPolynomial.zero(3), b).is_zero()


# -- fractions of Laurent polynomials ---------------------------------------


def test_localization_identity_sums_to_one():
    # 1/(1 - T1/T2) + 1/(1 - T2/T1) = 1, the algebraic heart of the
    # idempotence of divided difference operators, cross-multiplied
    one = LaurentPolynomial.one(2)
    fden = one - T(1) * T(2) ** -1
    gden = one - T(2) * T(1) ** -1
    assert gden + fden == fden * gden


# -- truncated q-series ----------------------------------------------------


def qs_one(k=1, nvars=1, bound=2):
    return QSeries.one(k, nvars, bound)


def test_geometric_series_truncates_to_one():
    one = qs_one()
    q1 = QSeries.q(1, 1, 2, 1)
    a = one - q1
    b = one + q1 + q1 * q1
    assert a * b == one


def test_qs_identity_element():
    rng = random.Random(7)
    coeffs = {}
    for d in [(0,), (1,), (2,)]:
        coeffs[d] = _random_poly(rng, nvars=1)
    a = QSeries(1, 1, 2, coeffs)
    assert a * qs_one() == a


def test_qs_truncation_kills_top_degree():
    q1 = QSeries.q(1, 1, 2, 1)
    top = q1 * q1
    assert (top * q1).is_zero()


def test_qs_mismatched_bounds_rejected():
    with pytest.raises(ValueError):
        QSeries.one(1, 1, 2) * QSeries.one(1, 1, 3)


def test_qs_refuses_coefficients_outside_the_laurent_ring():
    for c in (Fraction(1, 2), Fraction(1, 3) * 3, 1, T(1)):
        with pytest.raises(ValueError, match="Laurent"):
            QSeries(1, 1, 2, {(0,): c})


def test_qs_inverse_geometric():
    a = qs_one() - QSeries.q(1, 1, 2, 1)
    q1 = QSeries.q(1, 1, 2, 1)
    assert qs_inverse(a) == qs_one() + q1 + q1 * q1


def test_qs_inverse_of_one():
    assert qs_inverse(qs_one()) == qs_one()


def test_qs_inverse_nonunit_raises():
    for c in (LaurentPolynomial.zero(1), LaurentPolynomial.one(1) + T(1, 1)):
        a = QSeries.q(1, 1, 2, 1) + c
        with pytest.raises(ValueError, match="not a unit"):
            qs_inverse(a)


@pytest.mark.parametrize("bound", [1, 2, 3])
def test_qs_inverse_involution(bound):
    rng = random.Random(100 + bound)
    for _ in range(5):
        coeffs = {}
        for d0 in range(bound + 1):
            for d1 in range(bound + 1):
                if rng.random() < 0.4:
                    p = _random_poly(rng, nvars=1, max_terms=2, exp_range=1)
                    if not p.is_zero():
                        coeffs[(d0, d1)] = p
        coeffs[(0, 0)] = LaurentPolynomial(1, {(rng.randint(-2, 2),): rng.choice((1, -1))})
        a = QSeries(2, 1, bound, coeffs)
        inv = qs_inverse(a)
        assert a * inv == QSeries.one(2, 1, bound)
        assert qs_inverse(inv) == a


# -- text grammar ----------------------------------------------------------


def test_render_zero():
    assert render_laurent(LaurentPolynomial.zero(2)) == "0"
