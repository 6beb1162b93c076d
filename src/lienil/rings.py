"""Abstract unital ring contract, endomorphisms, commutators, and R[z].

Every concrete ring (the Grassmann algebra, the polynomial ring R[z] here,
the commutative oracle in ``lienil.oracle``) subclasses Ring.  Elements
carry a ``.ring`` attribute and overload +, -, *; elements of different
rings never mix.  A matrix over a ring is a ``matrices.Matrix``, whose
``.ring`` is the ring of its entries; M_n(R) is not itself a Ring here.
The element classes subclass RingElement, which lifts scalars and derives
subtraction and the reflected operators from each class's own +, unary -
and *.  The oracle's names still resolve here (``rings.OracleRing``), but
only on first use, so a Grassmann request never compiles the oracle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .scalars import QQ, Cyc


# Names defined in ``lienil.oracle`` that this module also answers to.
_ORACLE_NAMES = frozenset(
    "OracleRing OracleElement classical_det classical_adj MAX_ORACLE_TERMS "
    "MAX_ORACLE_BITS MAX_ORACLE_DEGREE".split())


def __getattr__(name):                  # PEP 562: the oracle on first use
    if name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracle
    return getattr(oracle, name)


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
    ``ring``, ``__add__``, ``__neg__`` and ``__mul__``, which start with
    ``_coerce``, and two views of its content: ``_key()``, the raw
    coefficient dict or tuple, which == compares and bool tests, and
    ``_scalar()``, the scalar (an R[z] constant: the base element) the
    element equals, or None.  So that == and hash agree, an element equal
    to a scalar hashes like that value; any other hashes by ring and key."""

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

    def __eq__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._key() == o._key()

    def __bool__(self):
        return bool(self._key())

    def __hash__(self):
        value = self._scalar()
        if value is not None:
            return hash(value)
        key = self._key()
        return hash((self.ring, frozenset(key.items())
                     if isinstance(key, dict) else key))


class Ring:
    """Base contract: unital ring over a scalar field, with exact equality.
    A subclass sets, in ``__init__``, ``params`` (the tuple that rings of
    its type compare and hash by) and gives one shared ``zero`` and
    ``one``.  It defines ``from_scalar(c)`` (embed a field scalar, int or
    Fraction).  ``dot(terms)``, the sum of x y, or -(x y) where ``negate``
    is set, over the (x, y, negate) in ``terms``, refuses an operand of
    another ring; here it adds the products left to right from ``zero``.
    The rings that matrices and supermatrix specs are built over, the
    Grassmann algebra and the oracle, also define ``is_central(x)``,
    ``try_invert(x)`` (the inverse, or None if x is not a unit or it is
    undecided), ``generating_set()`` (the elements that validate an
    endomorphism) and ``random_element(rng)``.  R[z], which holds
    characteristic polynomials, defines only ``from_scalar`` and ``dot``."""

    field = QQ

    @cached_property
    def polynomials(self):
        """R[z] over this ring, built on first use and shared after."""
        return PolynomialRing(self)

    def __eq__(self, other):
        return self is other or (type(other) is type(self)
                                 and other.params == self.params)

    def __hash__(self):
        return hash((type(self).__name__, self.params))

    def coerce_scalar(self, c):
        if isinstance(c, Cyc):
            if c.field != self.field:
                raise ContextMismatchError("scalar from a different field")
            return c
        return self.field.from_fraction(c)

    def dot(self, terms):
        return sum((-(x * y) if negate else x * y for x, y, negate in terms),
                   self.zero)


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

    def power_is_identity(self, n):
        """True iff delta^n is the identity on R.  delta is a K-linear ring
        map, so it is enough that delta^n fixes each generator."""
        return all(self.iterate(n, x) == x for x in self.ring.generating_set())

    def __repr__(self):
        return f"Endomorphism({self.name!r}, {self.ring!r})"


def fixed_ring_member(delta, x):
    """True iff delta(x) = x."""
    return delta(x) == x


# --------------------------------------------------------------------------
# Polynomials R[z] with a single central indeterminate z
# --------------------------------------------------------------------------

class PolynomialRing(Ring):
    """R[z]; elements are RPolynomial with coefficients in the base ring.
    Its zero, one and z point back at it, so build it once per base ring,
    as ``base.polynomials``: a ring built per call would leave a reference
    cycle behind every call."""

    def __init__(self, base):
        self.base = base
        self.field = base.field
        self.params = (base,)
        self.zero = RPolynomial(self, ())
        self.one = RPolynomial(self, (base.one,))
        self.z = RPolynomial(self, (base.zero, base.one))

    def __repr__(self):
        return f"PolynomialRing({self.base!r})"

    def element(self, coeffs):
        c = list(coeffs)
        while c and c[-1] == self.base.zero:
            c.pop()
        return RPolynomial(self, tuple(c))

    def constant(self, x):
        return self.element([x])

    def from_scalar(self, c):
        return self.constant(self.base.from_scalar(c))

    def dot(self, terms):
        """One ``base.dot`` per output power of z, over the products of the
        nonzero coefficients of every term that meet in that power."""
        powers = {}
        for x, y, negate in terms:
            if x.ring != self or y.ring != self:
                raise ContextMismatchError(f"dot over {self!r} of elements "
                                           f"of {x.ring!r}, {y.ring!r}")
            right = [(j, b) for j, b in enumerate(y.coeffs) if b]
            for i, a in enumerate(x.coeffs):
                if a:
                    for j, b in right:
                        powers.setdefault(i + j, []).append((a, b, negate))
        return self.element([self.base.dot(powers.get(k, ()))
                             for k in range(max(powers, default=-1) + 1)])


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
        return self.ring.dot(((self, o, False),))

    def _scalar(self):
        return self.coeff(0) if len(self.coeffs) < 2 else None

    def _key(self):
        return self.coeffs

    def __repr__(self):
        return f"RPolynomial({list(self.coeffs)!r})"


def substitute(coeffs, x, one, side):
    """Sum x^i c_i (side "right") or c_i x^i (side "left") over the
    coefficients c_0, c_1, ..., with x^0 = one; x may be a ring element or a
    square matrix, with one its identity.

    By Horner's rule from the top coefficient down: acc = x acc + c on the
    right and acc = acc x + c on the left, so x^i c_i = x (x^(i-1) c_i) keeps
    each coefficient on its side.  Each c is lifted through ``one`` (one c,
    resp. c one), the top one starts acc, and no power of x is built."""
    acc = one - one
    for i, c in enumerate(reversed(coeffs)):
        c = one * c if side == "right" else c * one
        if i:
            c = (x * acc if side == "right" else acc * x) + c
        acc = c
    return acc
