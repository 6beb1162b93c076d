"""Cyclotomic field arithmetic and scalar parsing."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lienil.scalars import (QQ, CyclotomicField, ScalarError,
                            cyclotomic_polynomial, format_fraction,
                            parse_scalar)


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
    F = CyclotomicField(6)
    for n in (1, 2, 3, 6):
        r = F.primitive_root(n)
        assert r ** n == F.one
        assert all(r ** k != F.one for k in range(1, n))
    with pytest.raises(ScalarError):
        F.primitive_root(4)
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


fracs = st.fractions(min_value=-50, max_value=50, max_denominator=9)


@given(st.lists(fracs, min_size=1, max_size=4),
       st.lists(fracs, min_size=1, max_size=4),
       st.lists(fracs, min_size=1, max_size=4))
def test_field_axioms_zeta5(a, b, c):
    F = CyclotomicField(5)
    x, y, z = F.element(a), F.element(b), F.element(c)
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x
    assert x - x == F.zero
    if x:
        assert x * x.inverse() == F.one
