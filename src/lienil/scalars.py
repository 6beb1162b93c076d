"""Exact base-field arithmetic: rationals and cyclotomic extensions Q(zeta_n).

Rationals are plain ``fractions.Fraction`` values.  A cyclotomic field of
order n is the quotient Q[x]/(Phi_n) where Phi_n is the n-th cyclotomic
polynomial; its elements are coefficient vectors of length deg(Phi_n).
The class of x is the distinguished primitive n-th root of unity ``e``.
Orders 1 and 2 degenerate to Q itself (deg Phi = 1), so all downstream
code is field-generic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


class ScalarError(ArithmeticError):
    pass


# --- exact polynomial helpers over Fraction, ascending coefficient order ---

def _trim(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _trim(out)


def _poly_divmod(a, b):
    """Exact division with remainder; b need not be monic."""
    a = _trim(a)
    b = _trim(b)
    if not b:
        raise ScalarError("polynomial division by zero")
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    lead = b[-1]
    while len(r) >= len(b):
        f = r[-1] / lead
        d = len(r) - len(b)
        q[d] = f
        for i, bi in enumerate(b):
            r[i + d] -= f * bi
        r = _trim(r)
    return _trim(q), r


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n):
    """Phi_n as a tuple of Fractions, ascending powers, monic.

    Computed by exact division of x^n - 1 by the Phi_d of proper divisors.
    """
    if n < 1:
        raise ScalarError("cyclotomic order must be >= 1")
    num = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    for d in _divisors(n):
        if d == n:
            continue
        num, rem = _poly_divmod(num, list(cyclotomic_polynomial(d)))
        if rem:
            raise ScalarError("cyclotomic division left a remainder")
    return tuple(num)


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return _trim([x - y for x, y in zip(a, b)])


def _ext_gcd_poly(a, b):
    """Extended Euclid over Fraction[x]: returns (g, u, v) with u*a + v*b = g."""
    r0, r1 = _trim(a), _trim(b)
    u0, u1 = [Fraction(1)], []
    v0, v1 = [], [Fraction(1)]
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, _poly_sub(u0, _poly_mul(q, u1))
        v0, v1 = v1, _poly_sub(v0, _poly_mul(q, v1))
    return r0, u0, v0


class CyclotomicField:
    """Handle for Q(zeta_n); equality and hashing go by the order n."""

    def __init__(self, order):
        if order < 1:
            raise ScalarError("field order must be a positive integer")
        self.order = order
        self.modulus = cyclotomic_polynomial(order)
        self.degree = len(self.modulus) - 1

    def __eq__(self, other):
        return isinstance(other, CyclotomicField) and other.order == self.order

    def __hash__(self):
        return hash(("CyclotomicField", self.order))

    def __repr__(self):
        return f"CyclotomicField({self.order})"

    def element(self, coeffs):
        """Build an element from ascending Fraction coefficients (any length)."""
        c = [Fraction(x) for x in coeffs]
        if len(c) >= len(self.modulus):
            _, c = _poly_divmod(c, list(self.modulus))
        c += [Fraction(0)] * (self.degree - len(c))
        return Cyc(self, tuple(c))

    def from_fraction(self, q):
        return self.element([Fraction(q)])

    @property
    def zero(self):
        return self.from_fraction(0)

    @property
    def one(self):
        return self.from_fraction(1)

    @property
    def e(self):
        """The distinguished primitive n-th root of unity (class of x)."""
        return self.element([0, 1])

    def primitive_root(self, n):
        """A primitive n-th root of unity in this field, or raise."""
        if n == 1:
            return self.one
        if n == 2:
            return self.from_fraction(-1)
        if self.order % n == 0:
            cand = self.e ** (self.order // n)
            if _is_primitive(cand, n):
                return cand
        raise ScalarError(f"no primitive {n}-th root of unity in Q(zeta_{self.order})")


def _is_primitive(e, n):
    acc = e.field.one
    for k in range(1, n):
        acc = acc * e
        if acc == e.field.one:
            return False
    return (acc * e) == e.field.one


QQ = CyclotomicField(1)


class Cyc:
    """An element of a cyclotomic field: residue class modulo Phi_n."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def _coerce(self, other):
        if isinstance(other, Cyc):
            if other.field != self.field:
                raise ScalarError("mixing elements of different cyclotomic fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_fraction(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyc(self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Cyc(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyc(self.field, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.field.element(_poly_mul(list(self.coeffs), list(o.coeffs)))

    __rmul__ = __mul__

    def inverse(self):
        if not self:
            raise ScalarError("inverse of zero")
        g, u, _ = _ext_gcd_poly(list(self.coeffs), list(self.field.modulus))
        # g is a nonzero constant since Phi_n is irreducible over Q
        if len(g) != 1:
            raise ScalarError("element not invertible modulo the cyclotomic polynomial")
        return self.field.element([ui / g[0] for ui in u])

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = self.field.one
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.field.order, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    @property
    def is_rational(self):
        return not any(self.coeffs[1:])

    def to_fraction(self):
        if not self.is_rational:
            raise ScalarError("element is not rational")
        return self.coeffs[0]

    def __str__(self):
        if self.is_rational:
            return format_fraction(self.coeffs[0])
        return "[" + ", ".join(format_fraction(c) for c in self.coeffs) + "]"

    def __repr__(self):
        return f"Cyc({self.field.order}, {self})"


def format_fraction(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def parse_fraction(text):
    return Fraction(text.strip())


def parse_scalar(field, text):
    """Parse "p/q" or "[c0, c1, ...]" into a field element."""
    t = text.strip()
    if t.startswith("["):
        if not t.endswith("]"):
            raise ScalarError(f"unclosed bracket in scalar {text!r}")
        inner = t[1:-1].strip()
        parts = [p for p in inner.split(",") if p.strip()] if inner else []
        return field.element([parse_fraction(p) for p in parts])
    return field.from_fraction(parse_fraction(t))
