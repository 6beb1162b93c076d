"""The commutative oracle ring Q[x_1, ..., x_m]: sparse polynomials with
Fraction coefficients, the parser of oracle entry text, and the classical
determinant and adjugate.

Over a commutative ring sdet(A) = n! det(A) and A* = (n-1)! adj(A), so the
oracle cross-validates the noncommutative determinant code; a document with
an oracle ring runs every determinant request over it.  Only oracle
documents and the acceptance suite import this module.  Entry text is
parsed, never evaluated, and each entry's predicted size is capped.
"""

from __future__ import annotations

import keyword
import math
import operator
import re
from fractions import Fraction

from .rings import CostCapError, Ring, RingElement, RingError

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
