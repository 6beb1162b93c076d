"""Cyclotomic field arithmetic and scalar parsing."""

import pickle
from fractions import Fraction
from functools import cache
from itertools import zip_longest
from math import gcd

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from lienil.scalars import (MAX_ORDER, QQ, SHARED_VALUES, CyclotomicField,
                            OrderCapError, ScalarError, cyclotomic_polynomial,
                            format_fraction, parse_scalar)

X = sympy.Symbol("x")


@cache
def sympy_phi(n):
    """sympy's Phi_n over QQ, built once per order."""
    return sympy.Poly(sympy.cyclotomic_poly(n, X), X, domain=sympy.QQ)


def to_sympy(coeffs):
    """A Poly over QQ from ascending coefficients."""
    return sympy.Poly.from_list(list(reversed(coeffs)), X, domain=sympy.QQ)


def from_sympy(p, length=0):
    """The ascending Fraction coefficients of a Poly, zero-padded to
    ``length``."""
    c = [Fraction(int(q.numerator), int(q.denominator))
         for q in reversed(p.rep.to_list())]
    return tuple(c) + (Fraction(0),) * (length - len(c))


def poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@pytest.mark.parametrize("n", range(1, 9))
def test_cyclotomic_product_identity(n):
    """x^n - 1 is the product of Phi_d over divisors d of n."""
    prod = [Fraction(1)]
    for d in range(1, n + 1):
        if n % d == 0:
            prod = poly_mul(prod, list(cyclotomic_polynomial(d)))
    expected = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    assert prod == expected


def test_cyclotomic_matches_sympy():
    """Phi_n has int coefficients equal to sympy's for every allowed order."""
    for n in range(1, MAX_ORDER + 1):
        phi = cyclotomic_polynomial(n)
        assert all(type(c) is int for c in phi), n
        assert phi == from_sympy(sympy_phi(n)), n


def test_cyclotomic_known_values():
    assert cyclotomic_polynomial(1) == (Fraction(-1), Fraction(1))
    assert cyclotomic_polynomial(2) == (Fraction(1), Fraction(1))
    assert cyclotomic_polynomial(3) == (Fraction(1), Fraction(1), Fraction(1))
    assert cyclotomic_polynomial(4) == (Fraction(1), Fraction(0), Fraction(1))
    assert cyclotomic_polynomial(6) == (Fraction(1), Fraction(-1), Fraction(1))


def test_degenerate_orders_are_rational():
    assert CyclotomicField(1).degree == 1
    assert CyclotomicField(2).degree == 1
    assert CyclotomicField(2).e == CyclotomicField(2).from_fraction(-1)
    assert QQ.e == 1


def test_zeta3_relations():
    F = CyclotomicField(3)
    e = F.e
    assert e ** 3 == F.one
    assert F.one + e + e ** 2 == F.zero
    assert (F.one + e) ** 2 == e          # (1+e)^2 = 1+2e+e^2 = e


def test_inverse_and_division():
    F = CyclotomicField(5)
    x = F.element([1, 2, 0, -1])
    assert x * x.inverse() == F.one
    assert (x / x) == F.one
    assert x ** -2 == (x.inverse()) ** 2
    with pytest.raises(ScalarError):
        F.zero.inverse()


def test_primitive_roots():
    """In Q(zeta_m), m <= 30, the root for each divisor n of m has order n:
    its powers first reach one at the n-th."""
    for order in range(1, 31):
        F = CyclotomicField(order)
        for n in (n for n in range(1, order + 1) if order % n == 0):
            r, acc = F.primitive_root(n), F.one
            for k in range(1, n + 1):
                acc = acc * r
                assert (acc == F.one) == (k == n), (order, n, k)
    with pytest.raises(ScalarError):
        CyclotomicField(6).primitive_root(4)
    with pytest.raises(ScalarError):
        QQ.primitive_root(3)


def test_parse_and_format_round_trip():
    F = CyclotomicField(3)
    for text in ("2", "-7/3", "0"):
        x = parse_scalar(F, text)
        assert str(x) == text.lstrip("+")
    x = parse_scalar(F, "[1/2, -3]")
    assert x == F.element([Fraction(1, 2), Fraction(-3)])
    assert parse_scalar(F, str(x)) == x
    assert format_fraction(Fraction(4, 2)) == "2"


def test_parse_scalar_needs_closing_bracket():
    F = CyclotomicField(3)
    for text in ("[1, 2", "[3", "[", " [1/2, -3 "):
        with pytest.raises(ScalarError):
            parse_scalar(F, text)
    assert parse_scalar(F, " [1, 2] ") == F.element([1, 2])


def test_parse_scalar_rejects_zero_denominator():
    F = CyclotomicField(3)
    for text in ("1/0", "[1/0]", "[1, 2/0]", " -0/0 "):
        with pytest.raises(ScalarError):
            parse_scalar(F, text)


def test_hash_agrees_with_eq():
    assert len({QQ.one, 1}) == 1
    q = Fraction(-7, 3)
    for order in (1, 3, 5):
        F = CyclotomicField(order)
        assert F.from_fraction(q) == q
        assert hash(F.from_fraction(q)) == hash(q)
        assert hash(F.one) == hash(1) and F.one == 1
    F3, F5 = CyclotomicField(3), CyclotomicField(5)
    # rational elements of two fields hash alike but are not equal
    assert F3.one != F5.one
    assert len({F3.one, F5.one, F3.e, F5.e}) == 4
    with pytest.raises(ScalarError):
        F3.one + F5.one
    with pytest.raises(ScalarError):
        F3.e * F5.e


def test_order_cap():
    assert CyclotomicField(MAX_ORDER).order == MAX_ORDER
    with pytest.raises(OrderCapError):
        CyclotomicField(MAX_ORDER + 1)
    with pytest.raises(OrderCapError):
        QQ.primitive_root(MAX_ORDER + 1)
    for bad in (0, -3):
        with pytest.raises(ScalarError) as info:
            CyclotomicField(bad)
        assert not isinstance(info.value, OrderCapError)
        with pytest.raises(ScalarError):
            QQ.primitive_root(bad)


def test_equal_values_are_shared():
    F = CyclotomicField(7)
    assert F is CyclotomicField(7)
    F._shared.clear()           # whatever earlier tests left in the table
    assert F.e * F.e is F.element([0, 0, 1])
    assert (F.from_fraction(1) + F.e) is F.element([1, 1])
    x = F.element([Fraction(1, 2), 3])
    y = pickle.loads(pickle.dumps(x))
    assert y == x and y.field is F
    for k in range(2 * SHARED_VALUES):
        F.from_fraction(Fraction(k, 7))
    assert len(F._shared) == SHARED_VALUES


fracs = st.fractions(min_value=-50, max_value=50, max_denominator=9)
polys = st.lists(fracs, min_size=0, max_size=8)
ORDERS = (1, 2, 3, 4, 5, 6, 8, 12)


def reduced(F, p):
    """sympy's p mod Phi_n, a Poly."""
    return p.rem(sympy_phi(F.order))


def assert_normalised(F, x):
    assert x.field is F and len(x.num) == F.degree
    assert all(type(c) is int for c in x.num) and type(x.den) is int
    assert x.den > 0 and gcd(x.den, *x.num) == 1


@pytest.mark.parametrize("order", ORDERS)
@settings(max_examples=40, deadline=None)
@given(a=polys, b=polys, c=polys)
def test_matches_fraction_polynomials(order, a, b, c):
    """+, -, *, inverse and == agree with sympy's Poly.rem and Poly.invert
    modulo Phi_n, and every value is stored in lowest terms."""
    F = CyclotomicField(order)
    x, y = F.element(a), F.element(b)
    ra, rb = reduced(F, to_sympy(a)), reduced(F, to_sympy(b))
    cases = [(x, ra), (y, rb), (x + y, reduced(F, ra + rb)),
             (x - y, reduced(F, ra - rb)), (x * y, reduced(F, ra * rb))]
    if x:
        cases.append((x.inverse(), ra.invert(sympy_phi(order))))
    for value, expected in cases:
        assert_normalised(F, value)
        assert value.coeffs == from_sympy(expected, F.degree)
    assert (x == y) == (ra == rb)
    # the same class reached through an over-long representative
    shifted = from_sympy(sympy_phi(order) * to_sympy(c))
    w = F.element([p + q for p, q in zip_longest(a, shifted, fillvalue=0)])
    assert w == x and hash(w) == hash(x)


@pytest.mark.parametrize("order", (3, 5, 12))
@given(st.lists(fracs, min_size=1, max_size=4),
       st.lists(fracs, min_size=1, max_size=4),
       st.lists(fracs, min_size=1, max_size=4))
def test_field_axioms(order, a, b, c):
    F = CyclotomicField(order)
    x, y, z = F.element(a), F.element(b), F.element(c)
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x
    assert x - x == F.zero
    if x:
        assert x * x.inverse() == F.one
