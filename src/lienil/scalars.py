"""Exact base-field arithmetic: rationals and cyclotomic extensions Q(zeta_n).

A cyclotomic field of order n is the quotient Q[x]/(Phi_n) where Phi_n is
the n-th cyclotomic polynomial, of degree d = phi(n), computed over the
integers; every polynomial step here is integer arithmetic, and the tests
check the field operations against sympy.  An element is stored
as d integer numerators over one positive common denominator, in lowest
terms, so equal elements have equal numerators and denominators.  Equal
values are handed out as shared instances.  Products reduce through a
per-field table of x^k mod Phi_n; inverses go through the Galois norm.  The
class of x is the distinguished primitive n-th root of unity ``e``.
Orders 1 and 2 degenerate to Q itself (deg Phi = 1), so all downstream
code is field-generic.  Each order has one shared ``CyclotomicField``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

# Largest field (and root-of-unity) order accepted.  An inverse in Q(zeta_n)
# is phi(n) - 2 products of degree phi(n), so its cost grows as phi(n)^3:
# about 0.2 s at n = 97, the largest degree under this cap (CPython 3.11 on
# one core of an x86-64 Xeon VM).
MAX_ORDER = 100

# Per-field bound on the table of shared element instances.
SHARED_VALUES = 4096


class ScalarError(ArithmeticError):
    pass


class OrderCapError(ScalarError):
    """A field or root-of-unity order above ``MAX_ORDER``."""


def _check_order(n):
    if n < 1:
        raise ScalarError(f"order {n} is not a positive integer")
    if n > MAX_ORDER:
        raise OrderCapError(f"order {n} exceeds the cap {MAX_ORDER}")


# --- integer polynomials, ascending coefficient order ---

def _divmod_monic(num, phi):
    """Quotient and remainder of ``num`` by the monic ``phi``, both integer
    polynomials, by synthetic division; the remainder has len(phi) - 1
    entries when ``num`` has at least that many."""
    d = len(phi) - 1
    r = list(num)
    q = [0] * max(len(r) - d, 0)
    for k in range(len(r) - 1, d - 1, -1):
        c = r[k]
        if c:
            q[k - d] = c
            for i in range(d):          # r -= c x^(k-d) phi, leaving r[k]
                r[k - d + i] -= c * phi[i]
    return q, r[:d]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n):
    """Phi_n as a tuple of ints, ascending powers, monic.

    Computed by exact division of x^n - 1 by the Phi_d of proper divisors.
    """
    if n < 1:
        raise ScalarError("cyclotomic order must be >= 1")
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num, rem = _divmod_monic(num, cyclotomic_polynomial(d))
            if any(rem):
                raise ScalarError("cyclotomic division left a remainder")
    return tuple(num)


# --- integer vectors modulo Phi_n ---

def _powers_mod(phi, count):
    """x^k mod phi for k < count, as integer vectors; phi is monic over Z."""
    d = len(phi) - 1
    top = [-c for c in phi[:d]]          # x^d = top (mod phi)
    out = []
    for k in range(count):
        if k < d:
            v = [0] * d
            v[k] = 1
        else:
            lead = v[-1]
            v = [0] + v[:-1]
            if lead:
                v = [a + lead * t for a, t in zip(v, top)]
        out.append(tuple(v))
    return out


def _fold(out, reduce):
    """The integer vector ``out`` of 2d - 1 coefficients modulo Phi_n, as d
    coefficients; ``reduce[k]`` is x^(d+k) mod Phi_n."""
    d = len(out) + 1 >> 1
    res = out[:d]
    for row, c in zip(reduce, out[d:]):
        if c:
            for j, r in enumerate(row):
                res[j] += c * r
    return res


def _mul(a, b, reduce):
    """Product of integer vectors a, b modulo Phi_n."""
    out = [0] * (2 * len(a) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                out[j] += ai * bj
    return _fold(out, reduce)


def _make(field, num, den=1):
    """The element num/den of ``field``, in lowest terms and shared.

    ``num`` is a list of d ints and ``den`` a positive int.
    """
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    key = (tuple(num), den)
    shared = field._shared
    x = shared.get(key)
    if x is None:
        x = Cyc(field, key[0], den)
        if len(shared) < SHARED_VALUES:
            shared[key] = x
    return x


_FIELDS = {}                 # order -> the one CyclotomicField of that order


class CyclotomicField:
    """Handle for Q(zeta_n): one instance per order, compared by identity."""

    def __new__(cls, order):
        field = _FIELDS.get(order)
        if field is not None:
            return field
        if not isinstance(order, int):
            raise ScalarError("field order must be a positive integer")
        _check_order(order)
        field = super().__new__(cls)
        field.order = order
        field.modulus = cyclotomic_polynomial(order)
        field.degree = d = len(field.modulus) - 1
        field._reduce = _powers_mod(field.modulus, 2 * d - 1)[d:]
        field._conjugates = None
        field._shared = {}
        field._pad = [0] * (d - 1)
        field.zero = _make(field, [0] * d)
        field.one = _make(field, [1] + field._pad)
        _FIELDS[order] = field
        return field

    def __reduce__(self):
        return CyclotomicField, (self.order,)

    def __repr__(self):
        return f"CyclotomicField({self.order})"

    def element(self, coeffs):
        """Build an element from ascending Fraction coefficients (any length)."""
        c = [Fraction(x) for x in coeffs]
        den = lcm(*(x.denominator for x in c))
        num = [x.numerator * (den // x.denominator) for x in c]
        if len(num) > self.degree:
            num = _divmod_monic(num, self.modulus)[1]
        return _make(self, num + [0] * (self.degree - len(num)), den)

    def from_fraction(self, q):
        if type(q) is int:
            return _make(self, [q] + self._pad)
        q = Fraction(q)
        return _make(self, [q.numerator] + self._pad, q.denominator)

    @property
    def e(self):
        """The distinguished primitive n-th root of unity (class of x)."""
        return self.element([0, 1])

    def primitive_root(self, n):
        """A primitive n-th root of unity in this field, or raise."""
        _check_order(n)
        if n == 1:
            return self.one
        if n == 2:
            return self.from_fraction(-1)
        if self.order % n == 0:         # e has order exactly self.order
            return self.e ** (self.order // n)
        raise ScalarError(f"no primitive {n}-th root of unity in Q(zeta_{self.order})")

    def _norm_cofactor(self, num):
        """Product of the conjugates num(zeta^k), 1 < k < n, gcd(k, n) = 1."""
        conj = self._conjugates
        if conj is None:
            n = self.order
            powers = _powers_mod(self.modulus, n)
            conj = self._conjugates = [
                [powers[i * k % n] for i in range(self.degree)]
                for k in range(2, n) if gcd(k, n) == 1]
        d = self.degree
        out = None
        for rows in conj:
            y = [0] * d
            for c, row in zip(num, rows):
                if c:
                    for j, r in enumerate(row):
                        y[j] += c * r
            out = y if out is None else _mul(out, y, self._reduce)
        return out


class Cyc:
    """An element of a cyclotomic field: residue class modulo Phi_n.

    ``num`` holds the integer numerators of the coefficients of
    1, x, ..., x^(d-1) and ``den`` their positive common denominator, with
    gcd(*num, den) = 1.  Build elements through the field, not directly.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field, num, den):
        self.field = field
        self.num = num
        self.den = den

    def _coerce(self, other):
        if isinstance(other, Cyc):
            if other.field != self.field:
                raise ScalarError("mixing elements of different cyclotomic fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_fraction(other)
        return None

    @property
    def coeffs(self):
        """The coefficients of 1, x, ..., x^(d-1) as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def __add__(self, other):
        o = other
        if type(o) is not Cyc or o.field is not self.field:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
        a, b, da, db = self.num, o.num, self.den, o.den
        if da == db:
            if len(a) == 1:
                return _make(self.field, [a[0] + b[0]], da)
            return _make(self.field, [x + y for x, y in zip(a, b)], da)
        return _make(self.field, [x * db + y * da for x, y in zip(a, b)], da * db)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.field, [-c for c in self.num], self.den)

    def __sub__(self, other):
        o = other
        if type(o) is not Cyc or o.field is not self.field:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
        a, b, da, db = self.num, o.num, self.den, o.den
        if da == db:
            if len(a) == 1:
                return _make(self.field, [a[0] - b[0]], da)
            return _make(self.field, [x - y for x, y in zip(a, b)], da)
        return _make(self.field, [x * db - y * da for x, y in zip(a, b)], da * db)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = other
        if type(o) is not Cyc or o.field is not self.field:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
        a, b = self.num, o.num
        if len(a) == 1:
            return _make(self.field, [a[0] * b[0]], self.den * o.den)
        return _make(self.field, _mul(a, b, self.field._reduce),
                     self.den * o.den)

    __rmul__ = __mul__

    def inverse(self):
        num, den, field = self.num, self.den, self.field
        if not any(num):
            raise ScalarError("inverse of zero")
        if len(num) == 1:
            n = num[0]
            return _make(field, [den if n > 0 else -den], abs(n))
        # x * y = N(x) is rational, so 1/x = y / N(x); Q(zeta_n) has no real
        # embedding for n > 2, so N(x) is a product of squared absolute
        # values and positive
        y = field._norm_cofactor(num)
        norm = _mul(num, y, field._reduce)
        if norm[0] <= 0 or any(norm[1:]):
            raise ScalarError("Galois norm is not a positive rational")
        return _make(field, [c * den for c in y], norm[0])

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
        if type(other) is Cyc:
            return (self is other or other.field is self.field
                    and other.num == self.num and other.den == self.den)
        if isinstance(other, (int, Fraction)):
            return self == self.field.from_fraction(other)
        return NotImplemented

    def __hash__(self):
        num = self.num
        if any(num[1:]):
            return hash((self.field.order, num, self.den))
        # a rational element hashes like the Fraction it equals
        return hash(num[0]) if self.den == 1 else hash(Fraction(num[0], self.den))

    def __bool__(self):
        return any(self.num)

    @property
    def is_rational(self):
        return not any(self.num[1:])

    def to_fraction(self):
        if not self.is_rational:
            raise ScalarError("element is not rational")
        return Fraction(self.num[0], self.den)

    def __str__(self):
        if self.is_rational:
            return format_fraction(self.to_fraction())
        return "[" + ", ".join(format_fraction(c) for c in self.coeffs) + "]"

    def __repr__(self):
        return f"Cyc({self.field.order}, {self})"


QQ = CyclotomicField(1)


def format_fraction(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def parse_fraction(text):
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ScalarError(f"zero denominator in scalar {text!r}") from None


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
