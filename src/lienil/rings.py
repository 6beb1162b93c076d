"""Abstract unital ring contract, endomorphisms, commutators, and R[z].

Every concrete ring (Grassmann algebra, commutative oracle, matrix ring,
polynomial ring) subclasses Ring.  Elements carry a ``.ring`` attribute and
overload +, -, *; elements of different rings never mix.  The element
classes subclass RingElement, which lifts scalars and derives subtraction
and the reflected operators from each class's own +, unary - and *.  A
commutative multivariate polynomial ring over Q serves as an oracle for
cross-validating the noncommutative determinant code.  It is backed by
sympy, which is imported only when an oracle ring is built: no other ring
loads it.
"""

from __future__ import annotations

import keyword
import math
import re
from fractions import Fraction

from .scalars import QQ, Cyc


class RingError(Exception):
    pass


class ContextMismatchError(RingError):
    pass


class CostCapError(RingError):
    """The predicted work is over a fixed cap (CLI exit code 3)."""


# Scalars that every ring lifts through ``Ring.from_scalar``.
SCALARS = (int, Fraction, Cyc)


def check_same_ring(x, y):
    if x.ring != y.ring:
        raise ContextMismatchError(
            f"elements of different rings: {x.ring!r} vs {y.ring!r}")


class RingElement:
    """Operators shared by the element classes.  A subclass defines
    ``ring``, ``__add__``, ``__neg__``, ``__mul__`` and ``__eq__`` on itself;
    its ``__add__``, ``__mul__`` and ``__eq__`` start with ``_coerce``.  So
    that == and hash agree, an element equal to a scalar (an R[z] constant:
    to a base element) hashes like that value: a subclass defines that value
    as ``_scalar()`` (None if there is none) and its other content as
    ``_key()``, and rebinds ``__hash__``, since defining ``__eq__`` unsets it."""

    __slots__ = ()

    def _coerce(self, other):
        """``other`` as an element of this ring: a scalar is lifted and an
        element of another ring of the same class is rejected.  Anything
        else gives None, which leaves the other operand to decide (an
        R[z] polynomial lifts an element of R)."""
        if type(other) is type(self):
            check_same_ring(self, other)
            return other
        if isinstance(other, SCALARS):
            return self.ring.from_scalar(other)
        return None

    def __radd__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self + o

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o + (-self)

    def __rmul__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o * self

    def __hash__(self):
        value = self._scalar()
        return hash((self.ring, self._key()) if value is None else value)


class Ring:
    """Base contract: unital ring over a scalar field, with exact equality."""

    field = QQ

    @property
    def zero(self):
        raise NotImplementedError

    @property
    def one(self):
        raise NotImplementedError

    def from_scalar(self, c):
        """Embed a field scalar (or int / Fraction) as a ring element."""
        raise NotImplementedError

    def is_central(self, x):
        raise NotImplementedError

    def try_invert(self, x):
        """Return the inverse of x, or None if x is not a unit (or undecided)."""
        raise NotImplementedError

    def generating_set(self):
        """Elements used to validate endomorphisms at construction."""
        raise NotImplementedError

    def random_element(self, rng):
        raise NotImplementedError

    def coerce_scalar(self, c):
        if isinstance(c, Cyc):
            if c.field != self.field:
                raise ContextMismatchError("scalar from a different field")
            return c
        return self.field.from_fraction(Fraction(c))


def commutator(x, y):
    """xy - yx."""
    check_same_ring(x, y)
    return x * y - y * x


def left_normed_commutator(elems):
    """[[...[[x1,x2],x3],...],x_m] for m >= 2."""
    if len(elems) < 2:
        raise RingError("left-normed commutator needs at least two elements")
    acc = commutator(elems[0], elems[1])
    for e in elems[2:]:
        acc = commutator(acc, e)
    return acc


def is_lie_nilpotent_index(ring, k, witnesses=None):
    """True iff the left-normed commutator of length k+1 vanishes on every
    supplied (k+1)-tuple.  For Grassmann rings an exhaustive basis-monomial
    mode is used when no witnesses are given (see grassmann module)."""
    if witnesses is None:
        exhaustive = getattr(ring, "lie_nilpotent_exhaustive", None)
        if exhaustive is None:
            raise RingError("no witnesses given and ring has no exhaustive mode")
        return exhaustive(k)
    for tup in witnesses:
        if len(tup) != k + 1:
            raise RingError(f"witness tuple must have {k + 1} elements")
        if left_normed_commutator(list(tup)) != ring.zero:
            return False
    return True


class Endomorphism:
    """A named unital ring endomorphism, validated at construction.

    Validation checks delta(1) = 1 plus additivity and multiplicativity on
    all pairs from the ring's generating set (exact equality).
    """

    def __init__(self, name, ring, action, validate=True):
        self.name = name
        self.ring = ring
        self.action = action
        if validate:
            self._validate()

    def _validate(self):
        ring = self.ring
        if self(ring.one) != ring.one:
            raise RingError(f"{self.name}: does not preserve 1")
        gens = list(ring.generating_set())
        pairs = [(x, y) for x in gens for y in gens]
        for x, y in pairs:
            if self(x + y) != self(x) + self(y):
                raise RingError(f"{self.name}: not additive")
            if self(x * y) != self(x) * self(y):
                raise RingError(f"{self.name}: not multiplicative")

    def __call__(self, x):
        if x.ring != self.ring:
            raise ContextMismatchError(f"{self.name}: element from a different ring")
        return self.action(x)

    def iterate(self, k, x):
        """delta^k applied to x (k >= 0)."""
        for _ in range(k):
            x = self(x)
        return x

    def is_identity_on(self, elems):
        return all(self(x) == x for x in elems)

    def __repr__(self):
        return f"Endomorphism({self.name!r}, {self.ring!r})"


def identity_endomorphism(ring):
    return Endomorphism("id", ring, lambda x: x, validate=False)


def fixed_ring_member(delta, x):
    """True iff delta(x) = x."""
    return delta(x) == x


# --------------------------------------------------------------------------
# Polynomials R[z] with a single central indeterminate z
# --------------------------------------------------------------------------

class PolynomialRing(Ring):
    """R[z]; elements are RPolynomial with coefficients in the base ring."""

    def __init__(self, base):
        self.base = base
        self.field = base.field

    def __eq__(self, other):
        return isinstance(other, PolynomialRing) and other.base == self.base

    def __hash__(self):
        return hash(("PolynomialRing", self.base))

    def __repr__(self):
        return f"PolynomialRing({self.base!r})"

    def element(self, coeffs):
        c = list(coeffs)
        while c and c[-1] == self.base.zero:
            c.pop()
        return RPolynomial(self, tuple(c))

    def constant(self, x):
        return self.element([x])

    @property
    def z(self):
        return self.element([self.base.zero, self.base.one])

    @property
    def zero(self):
        return self.element([])

    @property
    def one(self):
        return self.element([self.base.one])

    def from_scalar(self, c):
        return self.constant(self.base.from_scalar(c))

    def is_central(self, p):
        return all(self.base.is_central(c) for c in p.coeffs)

    def try_invert(self, p):
        if p.degree != 0:
            return None
        inv = self.base.try_invert(p.coeffs[0])
        return None if inv is None else self.constant(inv)

    def generating_set(self):
        return [self.constant(g) for g in self.base.generating_set()] + [self.z]

    def random_element(self, rng):
        deg = rng.randrange(0, 3)
        return self.element([self.base.random_element(rng) for _ in range(deg + 1)])


class RPolynomial(RingElement):
    """Polynomial in a central indeterminate z with coefficients in R,
    ascending powers, trailing zeros trimmed."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = coeffs

    @property
    def base(self):
        return self.ring.base

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def coeff(self, i):
        return self.coeffs[i] if i < len(self.coeffs) else self.base.zero

    def _coerce(self, other):
        """Also lifts an element of the base ring to a constant."""
        if getattr(other, "ring", None) == self.base:
            return self.ring.constant(other)
        return super()._coerce(other)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        return self.ring.element([self.coeff(i) + o.coeff(i) for i in range(n)])

    def __neg__(self):
        return self.ring.element([-c for c in self.coeffs])

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.coeffs or not o.coeffs:
            return self.ring.zero
        out = [self.base.zero] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(o.coeffs):
                out[i + j] = out[i + j] + a * b
        return self.ring.element(out)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    __hash__ = RingElement.__hash__

    def _scalar(self):
        return self.coeff(0) if len(self.coeffs) < 2 else None

    def _key(self):
        return self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def subst_right(self, x):
        """Sum x^i * c_i with the coefficients on the right."""
        return substitute(self.coeffs, x, x.ring.one, "right")

    def subst_left(self, x):
        """Sum c_i * x^i with the coefficients on the left."""
        return substitute(self.coeffs, x, x.ring.one, "left")

    def __repr__(self):
        return f"RPolynomial({list(self.coeffs)!r})"


def substitute(coeffs, x, one, side):
    """Sum x^i c_i (side "right") or c_i x^i (side "left") over the
    coefficients c_0, c_1, ..., with x^0 = one; x may be a ring element or a
    square matrix, with one its identity."""
    acc = one - one
    power = one
    for i, c in enumerate(coeffs):
        if i:
            power = power * x
        acc = acc + (power * c if side == "right" else c * power)
    return acc


def extend_endomorphism_to_poly(delta):
    """delta_z on R[z]: apply delta coefficientwise, fix z."""
    ring = PolynomialRing(delta.ring)
    return Endomorphism(
        delta.name + "_z", ring,
        lambda p: ring.element([delta(c) for c in p.coeffs]),
        validate=False)


# --------------------------------------------------------------------------
# Commutative multivariate polynomial oracle (sympy-backed)
# --------------------------------------------------------------------------

def _sympy():
    """sympy, imported on first use: only the oracle ring needs it."""
    import sympy
    return sympy


# Oracle entry text: integers, names, + - * / ** ^ and parentheses.
_NAME = re.compile(r"[A-Za-z_]\w*", re.ASCII)
_TOKEN = re.compile(rf"\d+|{_NAME.pattern}|\*\*|[-+*/^()]", re.ASCII)
_SPACE = re.compile(r"\s*", re.ASCII)
# Predicted size of a parsed entry: upper bounds on its terms once
# expanded, on the bits of its coefficients and on its total degree.
# sympy expands (a+b+c+d+1)**15, 3876 terms, in 2.5 s and **18, 7315
# terms, in 4.8 s.  classical_det of a 4x4 matrix with entries of degree
# 8192 takes 3.6 s; with degree 10^6 it ran over 2 minutes.
MAX_ORACLE_TERMS = 4096
MAX_ORACLE_BITS = 8192     # 2466 digits, under CPython's int-to-str limit
MAX_ORACLE_DEGREE = 8192


class OracleRing(Ring):
    """Exact commutative polynomial ring over Q with classical det/adj
    available; used to cross-validate the noncommutative determinants."""

    def __init__(self, variables):
        self.variables = tuple(variables)
        for v in self.variables:
            if (not isinstance(v, str) or not _NAME.fullmatch(v)
                    or keyword.iskeyword(v)):
                raise RingError(f"oracle variable {v!r} is not a name")
        sympy = _sympy()
        self.symbols = tuple(sympy.Symbol(v) for v in self.variables)
        self.field = QQ

    def __eq__(self, other):
        return isinstance(other, OracleRing) and other.variables == self.variables

    def __hash__(self):
        return hash(("OracleRing", self.variables))

    def __repr__(self):
        return f"OracleRing({list(self.variables)!r})"

    def element(self, expr):
        """The element for a sympy expression or an int (strict sympify
        refuses text, which goes through ``parse``)."""
        expr = _sympy().sympify(expr, strict=True)
        return OracleElement(self, expr.expand())

    def parse(self, text):
        """The polynomial that ``text`` writes, or RingError.  The text holds
        integers, declared variables, + - * / ** and ^ (read as **),
        parentheses and whitespace, with Python's precedence; a divisor must
        be a nonzero constant and an exponent a constant integer >= 0.  The
        sympy expression is built token by token, never evaluated as Python,
        and an entry over MAX_ORACLE_TERMS, MAX_ORACLE_BITS or
        MAX_ORACLE_DEGREE raises CostCapError."""
        if not isinstance(text, str):
            raise RingError(f"an oracle entry must be a string, not {text!r}")
        if not _SPACE.fullmatch(_TOKEN.sub(" ", text)):
            raise RingError(f"oracle entry {text!r} holds a character other "
                            "than digits, names, + - * / ^ ( ) and spaces")
        try:
            expr = _EntryParser(self, text).parse()
        except (RecursionError, ValueError) as exc:   # deep nesting, long ints
            raise RingError(f"oracle entry {text!r}: {exc}") from None
        return OracleElement(self, expr.expand())

    def var(self, name):
        if name not in self.variables:
            raise RingError(f"unknown oracle variable {name!r}")
        return self.element(_sympy().Symbol(name))

    @property
    def zero(self):
        return self.element(0)

    @property
    def one(self):
        return self.element(1)

    def from_scalar(self, c):
        c = self.coerce_scalar(c)
        q = c.to_fraction()
        return self.element(_sympy().Rational(q.numerator, q.denominator))

    def is_central(self, x):
        return True

    def try_invert(self, x):
        if x.expr.is_Rational and x.expr != 0:
            return self.element(1 / x.expr)
        return None

    def generating_set(self):
        return [self.element(s) for s in self.symbols]

    def random_element(self, rng):
        sympy = _sympy()
        terms = rng.randrange(1, 4)
        expr = sympy.Integer(0)
        for _ in range(terms):
            coef = sympy.Integer(rng.randrange(-3, 4))
            mono = sympy.Integer(1)
            for s in self.symbols:
                mono *= s ** rng.randrange(0, 2)
            expr += coef * mono
        return self.element(expr)


class _EntryParser:
    """Recursive descent over the tokens of one oracle entry:
    expr := term (("+"|"-") term)*, term := factor (("*"|"/") factor)*,
    factor := ("+"|"-") factor | atom [("**"|"^") factor],
    atom := integer | variable | "(" expr ")".  Each rule returns
    (sympy expression, terms, bits, degree): upper bounds on the terms once
    expanded, on log2 of the sum of the coefficients' absolute values
    (so on every coefficient's bits; a variable counts 0) and on the total
    degree.  The prediction is checked before the expression is built."""

    def __init__(self, ring, text):
        self.text = text
        self.names = dict(zip(ring.variables, ring.symbols))
        self.tokens = _TOKEN.findall(text) + [""]     # "" ends the text
        self.pos = 0

    def parse(self):
        value = self.expr()
        if self.tokens[self.pos]:
            self.fail(f"unexpected {self.tokens[self.pos]!r}")
        return value[0]

    def fail(self, why):
        raise RingError(f"oracle entry {self.text!r}: {why}")

    def take(self, *ops):
        tok = self.tokens[self.pos]
        if tok in ops:
            self.pos += 1
            return tok
        return None

    def check(self, terms, bits, degree):
        if (terms > MAX_ORACLE_TERMS or bits > MAX_ORACLE_BITS
                or degree > MAX_ORACLE_DEGREE):
            raise CostCapError(
                f"oracle entry {self.text!r}: predicted size over the caps "
                f"{MAX_ORACLE_TERMS} terms, {MAX_ORACLE_BITS} bits, degree "
                f"{MAX_ORACLE_DEGREE}")
        return terms, bits, degree

    def expr(self):
        parts = [self.term()]
        while op := self.take("+", "-"):
            e, *size = self.term()
            parts.append((-e if op == "-" else e, *size))
        t, b, d = self.check(
            sum(p[1] for p in parts),
            max(p[2] for p in parts) + (len(parts) - 1).bit_length(),
            max(p[3] for p in parts))
        return _sympy().Add(*(p[0] for p in parts)), t, b, d

    def term(self):
        e, t, b, d = self.factor()
        while op := self.take("*", "/"):
            f, u, c, h = self.factor()
            if op == "/" and not (f.is_Rational and f):
                self.fail("a divisor must be a nonzero constant")
            t, b, d = self.check(t * u if op == "*" else t, b + c, d + h)
            e = e * f if op == "*" else e / f
        return e, t, b, d

    def factor(self):
        if self.take("-"):
            e, *size = self.factor()
            return -e, *size
        if self.take("+"):
            return self.factor()
        e, t, b, d = self.atom()
        if not self.take("**", "^"):
            return e, t, b, d
        k = self.factor()[0]
        if not (k.is_Integer and k >= 0):
            self.fail("an exponent must be a constant integer >= 0")
        k = int(k)
        # b = d = 0 only for +-1; any other base has k bounded here
        self.check(1, k * b, k * d)
        t, b, d = self.check(math.comb(t + k - 1, k), k * b, k * d)
        return e ** k, t, b, d

    def atom(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        if tok == "(":
            value = self.expr()
            if not self.take(")"):
                self.fail("unbalanced parentheses")
            return value
        if tok in self.names:
            return self.names[tok], 1, 0, 1
        if tok.isdigit():
            n = int(tok)
            t, b, d = self.check(1, max(n.bit_length(), 1), 0)
            return _sympy().Integer(n), t, b, d
        if _NAME.fullmatch(tok):
            self.fail(f"{tok!r} is not a declared variable")
        self.fail(f"unexpected {tok!r}" if tok else "unexpected end")


class OracleElement(RingElement):
    __slots__ = ("ring", "expr")

    def __init__(self, ring, expr):
        self.ring = ring
        self.expr = expr

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return OracleElement(self.ring, (self.expr + o.expr).expand())

    def __neg__(self):
        return OracleElement(self.ring, -self.expr)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return OracleElement(self.ring, (self.expr * o.expr).expand())

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self.expr - o.expr).expand() == 0

    __hash__ = RingElement.__hash__

    def _scalar(self):
        e = self.expr
        return Fraction(int(e.p), int(e.q)) if e.is_Rational else None

    def _key(self):
        return self.expr

    def __bool__(self):
        return self.expr != 0

    def __repr__(self):
        return f"OracleElement({self.expr})"


def oracle_ring(variables):
    return OracleRing(variables)


def _sympy_matrix(A):
    return _sympy().Matrix([[e.expr for e in row] for row in A.rows])


def classical_det(A):
    """Ordinary determinant of a matrix over an OracleRing."""
    return A.ring.element(_sympy_matrix(A).det())


def classical_adj(A):
    """Ordinary adjugate of a matrix over an OracleRing."""
    from .matrices import Matrix
    ring = A.ring
    adj = _sympy_matrix(A).adjugate()
    return Matrix(ring, [[ring.element(adj[i, j]) for j in range(A.ncols)]
                         for i in range(A.nrows)])
