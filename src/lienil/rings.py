"""Abstract unital ring contract, endomorphisms, commutators, and R[z].

Every concrete ring (Grassmann algebra, commutative oracle, polynomial
ring R[z]) subclasses Ring.  Elements carry a ``.ring`` attribute and
overload +, -, *; elements of different rings never mix.  A matrix over a
ring is a ``matrices.Matrix``, whose ``.ring`` is the ring of its
entries; M_n(R) is not itself a Ring here.  The element classes subclass
RingElement, which lifts scalars and derives subtraction and the
reflected operators from each class's own +, unary - and *.  A
commutative multivariate polynomial ring over Q, sparse polynomials with
Fraction coefficients, serves as an oracle for cross-validating the
noncommutative determinant code.
"""

from __future__ import annotations

import keyword
import math
import operator
import re
import weakref
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
    Its zero, one and z point back at it, so it keeps them by weak
    reference: a reference cycle would outlive every charpoly."""

    def __init__(self, base):
        self.base = base
        self.field = base.field
        self.params = (base,)
        self._kept = weakref.WeakValueDictionary()

    def _kept_element(self, name, *coeffs):
        x = self._kept.get(name)
        if x is None:
            x = self._kept[name] = RPolynomial(self, coeffs)
        return x

    zero = property(lambda self: self._kept_element("zero"))
    one = property(lambda self: self._kept_element("one", self.base.one))
    z = property(lambda self: self._kept_element("z", self.base.zero,
                                                  self.base.one))

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

    __slots__ = ("ring", "coeffs", "__weakref__")

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


# --------------------------------------------------------------------------
# Commutative multivariate polynomial oracle: sparse polynomials over Q
# --------------------------------------------------------------------------

# Oracle entry text: integers, names, + - * / ** ^ and parentheses.
_NAME = re.compile(r"[A-Za-z_]\w*", re.ASCII)
_TOKEN = re.compile(rf"\d+|{_NAME.pattern}|\*\*|[-+*/^()]", re.ASCII)
_SPACE = re.compile(r"\s*", re.ASCII)
# Caps on the predicted size of a parsed entry: its terms once expanded,
# the bits of its coefficients (see ``_size``) and its total degree; the
# README gives the timings behind them.
MAX_ORACLE_TERMS = 4096
MAX_ORACLE_BITS = 8192     # 2466 digits, under CPython's int-to-str limit
MAX_ORACLE_DEGREE = 8192


class OracleRing(Ring):
    """Q[x_1, ..., x_m], exact and commutative, with classical det/adj;
    used to cross-validate the noncommutative determinants.  An element
    keeps one exponent slot per variable, the slots in name order
    (``names``), which is the order its terms print in."""

    def __init__(self, variables):
        self.variables = tuple(variables)
        for v in self.variables:
            if (not isinstance(v, str) or not _NAME.fullmatch(v)
                    or keyword.iskeyword(v)):
                raise RingError(f"oracle variable {v!r} is not a name")
        if len(set(self.variables)) < len(self.variables):
            raise RingError(f"oracle variables {self.variables} repeat a name")
        self.names = tuple(sorted(self.variables))
        self.params = self.variables
        self.zero = OracleElement(self, {})
        self.one = self.from_scalar(1)

    def __repr__(self):
        return f"OracleRing({list(self.variables)!r})"

    def element(self, terms):
        """The polynomial sum c x^m over ``terms`` {m: c}, with m an exponent
        tuple in ``names`` order and c a Fraction (zeros are dropped)."""
        return OracleElement(self, {m: c for m, c in terms.items() if c})

    def parse(self, text):
        """The polynomial that ``text`` writes, or RingError.  The text holds
        integers, declared variables, + - * / ** and ^ (read as **),
        parentheses and spaces, with Python's precedence; a divisor must be a
        nonzero constant and an exponent a constant integer >= 0.  It is
        parsed, never evaluated; an entry over the caps raises CostCapError."""
        if not isinstance(text, str):
            raise RingError(f"an oracle entry must be a string, not {text!r}")
        if not _SPACE.fullmatch(_TOKEN.sub(" ", text)):
            raise RingError(f"oracle entry {text!r} holds a character other "
                            "than digits, names, + - * / ^ ( ) and spaces")
        try:
            return _EntryParser(self, text).parse()
        except (RecursionError, ValueError) as exc:   # deep nesting, long ints
            raise RingError(f"oracle entry {text!r}: {exc}") from None

    def var(self, name):
        if name not in self.variables:
            raise RingError(f"unknown oracle variable {name!r}")
        return self.element({tuple(int(v == name) for v in self.names):
                             Fraction(1)})

    def from_scalar(self, c):
        q = self.coerce_scalar(c).to_fraction()
        return self.element({(0,) * len(self.names): q})

    def is_central(self, x):
        return True

    def try_invert(self, x):
        q = x._scalar()
        return self.from_scalar(1 / q) if q else None

    def generating_set(self):
        return [self.var(v) for v in self.variables]

    def random_element(self, rng):
        """One to three terms, exponents 0 or 1, coefficients in -3..3."""
        return self.element({tuple(rng.randrange(0, 2) for _ in self.names):
                             Fraction(rng.randrange(-3, 4))
                             for _ in range(rng.randrange(1, 4))})


def _integral(x):
    """(pairs, L): the terms of x as (exponents, integer) over L = lcm."""
    den = math.lcm(*(c.denominator for c in x.terms.values()))
    return [(m, c.numerator * (den // c.denominator))
            for m, c in x.terms.items()], den


def _size(x):
    """(terms, bits, degree) of a polynomial x.  With ``_integral`` pairs
    (m, h) over L, bits is bitlen(sum |h|) + bitlen(L) - 1: it bounds every
    numerator and denominator, and is about additive under products."""
    pairs, den = _integral(x)
    height = sum(abs(h) for _, h in pairs)
    return (len(pairs), height.bit_length() + den.bit_length() - 1,
            max(map(sum, x.terms), default=0))


def _power(x, k):
    """x**k by the multinomial theorem: one pass over the splits of k among
    the terms of x, as many as the product has terms before collecting."""
    pairs, den = _integral(x)
    splits = [(k, 1, (0,) * len(x.ring.names))]  # (k left, coeff, exponents)
    for i, (m, h) in enumerate(pairs):
        splits = [(left - e, c * math.comb(left, e) * h ** e,
                   tuple(a + e * b for a, b in zip(mono, m)))
                  for left, c, mono in splits
                  for e in (range(left + 1) if i + 1 < len(pairs) else [left])]
    out = {}
    for left, c, mono in splits:
        if not left:                     # x = 0 leaves k > 0 unsplit
            out[mono] = out.get(mono, 0) + c
    return x.ring.element({m: Fraction(c, den ** k) for m, c in out.items()})


class _EntryParser:
    """Recursive descent over the tokens of one oracle entry:
    expr := term (("+"|"-") term)*, term := factor (("*"|"/") factor)*,
    factor := ("+"|"-") factor | atom [("**"|"^") factor],
    atom := integer | variable | "(" expr ")".  Each rule returns an
    OracleElement.  Before a product or a power is built, its size is
    predicted from the operands' ``_size`` and checked: along a run of
    products the terms multiply and the bits and degrees add."""

    def __init__(self, ring, text):
        self.ring = ring
        self.text = text
        self.tokens = _TOKEN.findall(text) + [""]     # "" ends the text
        self.pos = 0

    def parse(self):
        value = self.expr()
        if self.tokens[self.pos]:
            self.fail(f"unexpected {self.tokens[self.pos]!r}")
        self.check(*_size(value))
        return value

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
        acc = self.term()
        while op := self.take("+", "-"):
            acc = acc - self.term() if op == "-" else acc + self.term()
        return acc

    def term(self):
        acc = self.factor()
        t, b, d = _size(acc)
        while op := self.take("*", "/"):
            x = self.factor()
            u, c, h = _size(x)
            if op == "/" and not (q := x._scalar()):
                self.fail("a divisor must be a nonzero constant")
            t, b, d = self.check(t * u if op == "*" else t, b + c, d + h)
            acc = acc * x if op == "*" else acc * (1 / q)
        return acc

    def factor(self):
        if self.take("-"):
            return -self.factor()
        if self.take("+"):
            return self.factor()
        base = self.atom()
        if not self.take("**", "^"):
            return base
        k = self.factor()._scalar()
        if k is None or k.denominator != 1 or k < 0:
            self.fail("an exponent must be a constant integer >= 0")
        t, b, d = _size(base)
        k = int(k)
        # b >= 1 unless base = 0, so k is bounded before comb
        self.check(1, k * b, k * d)
        self.check(math.comb(max(t + k - 1, 0), k), k * b, k * d)
        return _power(base, k)

    def atom(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        if tok == "(":
            value = self.expr()
            if not self.take(")"):
                self.fail("unbalanced parentheses")
            return value
        if tok in self.ring.variables:
            return self.ring.var(tok)
        if tok.isdigit():
            n = int(tok)
            self.check(1, n.bit_length(), 0)
            return self.ring.from_scalar(n)
        if _NAME.fullmatch(tok):
            self.fail(f"{tok!r} is not a declared variable")
        self.fail(f"unexpected {tok!r}" if tok else "unexpected end")


class OracleElement(RingElement):
    """A polynomial over Q: ``terms`` maps exponent tuples (one slot per
    variable, in the ring's ``names`` order) to nonzero Fractions."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for m, c in o.terms.items():
            out[m] = out.get(m, 0) + c
        return self.ring.element(out)

    def __neg__(self):
        return OracleElement(self.ring, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # int products over one denominator: 7x faster than Fractions
        (p, dp), (q, dq) = _integral(self), _integral(o)
        out = {}
        for m, c in p:
            for n, d in q:
                k = tuple(map(operator.add, m, n))
                out[k] = out.get(k, 0) + c * d
        return self.ring.element({m: Fraction(c, dp * dq)
                                  for m, c in out.items()})

    def _scalar(self):
        zero = (0,) * len(self.ring.names)
        constant = self.terms.get(zero, Fraction(0))
        return None if self.terms.keys() - {zero} else constant

    def _key(self):
        return self.terms

    def __str__(self):
        """The expanded form, terms in descending lex order of their
        exponents (``4*a**2*b - 2*c + 1``); a positive constant and a
        negative term of one variable print as ``1 - x``."""
        terms = sorted(self.terms.items(), reverse=True)
        if (len(terms) == 2 and terms[0][1] < 0 < terms[1][1]
                and not any(terms[1][0]) and sum(map(bool, terms[0][0])) == 1):
            terms.reverse()
        out = ""
        for m, c in terms:
            factors = [v if e == 1 else f"{v}**{e}"
                       for v, e in zip(self.ring.names, m) if e]
            p, q = abs(c.numerator), c.denominator
            out += (" - " if c < 0 else " + ") + "*".join(
                ([str(p)] if p != 1 or not factors else []) + factors)
            out += f"/{q}" if q != 1 else ""
        return (out[3:] if out[1] == "+" else "-" + out[3:]) if out else "0"

    def __repr__(self):
        return f"OracleElement({self})"


def classical_det(A):
    """Ordinary determinant of a square matrix over an OracleRing, by
    Laplace expansion along the first row."""
    if A.nrows == 1:
        return A.rows[0][0]
    return sum((a * classical_det(A.minor(1, j)) * (-1) ** (j + 1)
                for j, a in enumerate(A.rows[0], start=1) if a), A.ring.zero)


def classical_adj(A):
    """Ordinary adjugate of a square matrix over an OracleRing: entry (i, j)
    is (-1)^(i+j) times the determinant of A without row j and column i."""
    from .matrices import Matrix
    n = A.nrows
    if n == 1:
        return Matrix.identity(A.ring, 1)
    return Matrix(A.ring, [[classical_det(A.minor(j, i)) * (-1) ** (i + j)
                            for j in range(1, n + 1)] for i in range(1, n + 1)])
