"""Abstract unital ring contract, endomorphisms, commutators, and R[z].

Every concrete ring (Grassmann algebra, commutative oracle, matrix ring,
polynomial ring) subclasses Ring.  Elements carry a ``.ring`` attribute and
overload +, -, *; elements of different rings never mix.  The element
classes subclass RingElement, which lifts scalars and derives subtraction
and the reflected operators from each class's own +, unary - and *.  A
commutative multivariate polynomial ring over Q (backed by sympy) serves as
an oracle for cross-validating the noncommutative determinant code.
"""

from __future__ import annotations

from fractions import Fraction

import sympy

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

class OracleRing(Ring):
    """Exact commutative polynomial ring over Q with classical det/adj
    available; used to cross-validate the noncommutative determinants."""

    def __init__(self, variables):
        self.variables = tuple(variables)
        self.symbols = sympy.symbols(self.variables) if self.variables else ()
        if len(self.variables) == 1:
            self.symbols = (self.symbols,)
        self.field = QQ

    def __eq__(self, other):
        return isinstance(other, OracleRing) and other.variables == self.variables

    def __hash__(self):
        return hash(("OracleRing", self.variables))

    def __repr__(self):
        return f"OracleRing({list(self.variables)!r})"

    def element(self, expr):
        return OracleElement(self, sympy.expand(sympy.sympify(expr)))

    def var(self, name):
        if name not in self.variables:
            raise RingError(f"unknown oracle variable {name!r}")
        return self.element(sympy.Symbol(name))

    @property
    def zero(self):
        return self.element(0)

    @property
    def one(self):
        return self.element(1)

    def from_scalar(self, c):
        c = self.coerce_scalar(c)
        q = c.to_fraction()
        return self.element(sympy.Rational(q.numerator, q.denominator))

    def is_central(self, x):
        return True

    def try_invert(self, x):
        if x.expr.is_Rational and x.expr != 0:
            return self.element(1 / x.expr)
        return None

    def generating_set(self):
        return [self.element(s) for s in self.symbols]

    def random_element(self, rng):
        terms = rng.randrange(1, 4)
        expr = sympy.Integer(0)
        for _ in range(terms):
            coef = sympy.Integer(rng.randrange(-3, 4))
            mono = sympy.Integer(1)
            for s in self.symbols:
                mono *= s ** rng.randrange(0, 2)
            expr += coef * mono
        return self.element(expr)


class OracleElement(RingElement):
    __slots__ = ("ring", "expr")

    def __init__(self, ring, expr):
        self.ring = ring
        self.expr = expr

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return OracleElement(self.ring, sympy.expand(self.expr + o.expr))

    def __neg__(self):
        return OracleElement(self.ring, -self.expr)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return OracleElement(self.ring, sympy.expand(self.expr * o.expr))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return sympy.expand(self.expr - o.expr) == 0

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


def classical_det(A):
    """Ordinary determinant of a matrix over an OracleRing."""
    ring = A.ring
    m = sympy.Matrix([[e.expr for e in row] for row in A.rows])
    return ring.element(sympy.expand(m.det()))


def classical_adj(A):
    """Ordinary adjugate of a matrix over an OracleRing."""
    from .matrices import Matrix
    ring = A.ring
    m = sympy.Matrix([[e.expr for e in row] for row in A.rows])
    adj = m.adjugate()
    return Matrix(ring, [[ring.element(sympy.expand(adj[i, j]))
                          for j in range(A.ncols)] for i in range(A.nrows)])
