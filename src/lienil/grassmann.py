"""Grassmann (exterior) algebra on g anticommuting generators.

Elements are sparse maps from generator-index subsets (bitmasks) to nonzero
field scalars.  ``GrassmannAlgebra.dot``, the sum of products under matrix
products, traces, permutation sums and R[z], reads every coefficient as an
integer numerator over one common denominator, sums the signed products
of each output monomial as one int (over Q) or as one unreduced vector of
2 phi(n) - 1 ints (folded modulo Phi_n once), and builds one shared
``Cyc`` per nonzero output monomial; a product of two elements with
several terms each is a one-term dot.  A product with a one-term operand
makes one ``Cyc`` product per disjoint pair: its output monomials are
distinct, so nothing is summed.  A field scalar scales each coefficient.
The paper-style components live here too: homogeneous parts, even/odd
decomposition, the root-of-unity grading, and a linear-constraint solver
that computes bases of {x : delta(x) = t*x} by exact elimination.
"""

from __future__ import annotations

from math import lcm

from .rings import (SCALARS, ContextMismatchError, CostCapError,
                    Endomorphism, Ring, RingElement, RingError,
                    check_same_ring)
from .scalars import QQ, _fold, _make

SOLVER_CAP = 12  # solve_constraint materializes a 2^g x 2^g matrix


def _hops(a):
    """The mask of the generators that an odd number of a's generators hop
    over when monomial a is joined before a disjoint monomial b: a * b is
    minus the sorted monomial a | b exactly when (b & _hops(a)).bit_count()
    is odd.  Each generator of a contributes every bit below it."""
    hops = 0
    while a:
        low = a & -a
        hops ^= low - 1
        a ^= low
    return hops


class GrassmannAlgebra(Ring):
    """E on generators v_1..v_g over a scalar field (default Q)."""

    def __init__(self, g, field=QQ):
        if not 0 <= g <= 64:
            raise RingError("generator count must be between 0 and 64")
        self.g = g
        self.field = field
        self.params = (g, field)
        self.zero = GrassmannElement(self, {})
        self.one = self.from_scalar(1)

    def __repr__(self):
        return f"GrassmannAlgebra(g={self.g}, field={self.field!r})"

    @property
    def dim(self):
        return 1 << self.g

    def element(self, coeffs):
        """Build from {mask: scalar-like}; zero coefficients are dropped."""
        clean = {}
        for mask, c in coeffs.items():
            if mask >> self.g:
                raise RingError(f"monomial mask {mask:b} uses generators beyond g={self.g}")
            c = self.coerce_scalar(c)
            if c:
                clean[mask] = c
        return GrassmannElement(self, clean)

    def from_scalar(self, c):
        return self.element({0: c})

    def generator(self, i):
        """v_i, 1-based."""
        if not 1 <= i <= self.g:
            raise RingError(f"generator index {i} out of range 1..{self.g}")
        return self.element({1 << (i - 1): 1})

    @property
    def generators(self):
        return [self.generator(i) for i in range(1, self.g + 1)]

    def basis_element(self, mask):
        return self.element({mask: 1})

    def basis_masks(self):
        return range(self.dim)

    def is_central(self, x):
        # an odd monomial commutes with every generator only if it contains
        # them all; even monomials are always central
        full = self.dim - 1
        return all(mask.bit_count() % 2 == 0 or mask == full
                   for mask in x.coeffs)

    def try_invert(self, x):
        c = x.coeffs.get(0, self.field.zero)
        if not c:
            return None
        # x = c(1 + y/c) with y nilpotent: invert by a terminating geometric series
        cinv = c.inverse()
        y = self.element({m: v for m, v in x.coeffs.items() if m != 0})
        acc = self.one
        term = self.one
        step = y * (-cinv)
        while True:
            term = term * step
            if not term.coeffs:
                break
            acc = acc + term
        return acc * cinv

    def generating_set(self):
        return self.generators

    def random_element(self, rng):
        """Small-integer coefficients on one to four random monomials."""
        out = {}
        for _ in range(rng.randrange(1, 5)):
            mask = rng.randrange(self.dim)
            c = rng.randrange(-3, 4)
            if c:
                out[mask] = out.get(mask, 0) + c
        return self.element(out)

    def random_unit(self, rng):
        x = self.random_element(rng)
        scalar = rng.choice([-3, -2, -1, 1, 2, 3])
        coeffs = dict(x.coeffs)
        coeffs[0] = self.field.from_fraction(scalar)
        return self.element(coeffs)

    def lie_nilpotent_exhaustive(self, k):
        """Check the length-(k+1) left-normed commutator on all basis
        monomial tuples, working on (mask, parity) pairs directly."""
        if k < 1:
            raise RingError("Lie nilpotency index must be >= 1")

        def comm(a, b):
            # the commutator of monomials a, b is 0 or +-2 (a|b): its
            # monomial, or None for 0
            if a & b:
                return None
            ab = (b & _hops(a)).bit_count()
            ba = (a & _hops(b)).bit_count()
            return a | b if (ab ^ ba) & 1 else None

        def vanishes(tup):
            acc = comm(tup[0], tup[1])
            for m in tup[2:]:
                if acc is None:
                    return True
                acc = comm(acc, m)
            return acc is None

        masks = list(self.basis_masks())

        def rec(tup, depth):
            if depth == k + 1:
                return vanishes(tup)
            return all(rec(tup + (m,), depth + 1) for m in masks)

        return rec((), 0)

    def coordinates(self, x):
        """Dense coordinate vector of x over the monomial basis."""
        return [x.coeffs.get(m, self.field.zero) for m in self.basis_masks()]

    def dot(self, terms):
        """The sum of x y, or -(x y) where ``negate`` is set, over the
        (x, y, negate) in ``terms``.  Every coefficient is read as an
        integer numerator over L, the lcm of all their denominators, so
        every product lies over L^2.  The signed products of each output
        monomial are summed as one int (over Q) or as one unreduced vector
        of 2 phi(n) - 1 ints, folded modulo Phi_n once, and one Cyc is made
        per nonzero output monomial.  A sum that cancels is ``self.zero``."""
        work, L = [], 1
        for x, y, negate in terms:
            if (x.ring is not self and x.ring != self
                    or y.ring is not self and y.ring != self):
                raise ContextMismatchError(
                    f"dot over {self!r} of elements of {x.ring!r}, {y.ring!r}")
            if x.coeffs and y.coeffs:
                work.append((x.coeffs, y.coeffs, -1 if negate else 1))
                for c in (*x.coeffs.values(), *y.coeffs.values()):
                    if L % c.den:
                        L = lcm(L, c.den)
        field, out = self.field, {}
        if field.degree == 1:
            for a, b, sign in work:
                tb = [(mb, c.num[0] * (L // c.den)) for mb, c in b.items()]
                for ma, c in a.items():
                    x = sign * c.num[0] * (L // c.den)
                    hops = _hops(ma)
                    for mb, y in tb:
                        if not ma & mb:
                            m = ma | mb
                            if (mb & hops).bit_count() & 1:
                                out[m] = out.get(m, 0) - x * y
                            else:
                                out[m] = out.get(m, 0) + x * y
            coeffs = {m: _make(field, [s], L * L) for m, s in out.items() if s}
        else:
            width = 2 * field.degree - 1
            for a, b, sign in work:
                tb = [(mb, c.num if c.den == L
                       else [v * (L // c.den) for v in c.num])
                      for mb, c in b.items()]
                for ma, c in a.items():
                    s = sign * L // c.den
                    x = c.num if s == 1 else [v * s for v in c.num]
                    hops = _hops(ma)
                    for mb, y in tb:
                        if not ma & mb:
                            m = ma | mb
                            acc = out.get(m)
                            if acc is None:
                                acc = out[m] = [0] * width
                            flip = (mb & hops).bit_count() & 1
                            for i, xi in enumerate(x):
                                if xi:
                                    if flip:
                                        xi = -xi
                                    for j, yj in enumerate(y, i):
                                        acc[j] += xi * yj
            coeffs = {}
            for m, acc in out.items():
                num = _fold(acc, field._reduce)
                if any(num):
                    coeffs[m] = _make(field, num, L * L)
        return GrassmannElement(self, coeffs) if coeffs else self.zero


_dot = GrassmannAlgebra.dot  # __mul__'s route; a wrapper on .dot misses it


class GrassmannElement(RingElement):
    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = coeffs

    def __add__(self, other):
        if type(other) is not GrassmannElement or other.ring is not self.ring:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            s = out.get(m)
            s = c if s is None else s + c
            if s:
                out[m] = s
            else:
                del out[m]
        # a sum that cancels is the shared zero, as an empty product is
        return GrassmannElement(self.ring, out) if out else self.ring.zero

    def __neg__(self):
        return GrassmannElement(self.ring, {m: -c for m, c in self.coeffs.items()})

    def __mul__(self, other):
        ring, a = self.ring, self.coeffs
        if type(other) is not GrassmannElement:
            if not isinstance(other, SCALARS):
                return NotImplemented
            c = ring.coerce_scalar(other)
            if not a or not c:
                return ring.zero
            return GrassmannElement(ring, {m: x * c for m, x in a.items()})
        if other.ring is not ring:
            check_same_ring(self, other)
        b = other.coeffs
        if not a or not b:
            return ring.zero
        if len(a) == 1 or len(b) == 1:
            # distinct disjoint monomials give distinct products, and a
            # field has no zero divisors: one Cyc product per pair
            out = {}
            for ma, ca in a.items():
                hops = _hops(ma)
                for mb, cb in b.items():
                    if not ma & mb:
                        c = ca * cb
                        out[ma | mb] = -c if (mb & hops).bit_count() & 1 else c
            return GrassmannElement(ring, out)
        return _dot(ring, ((self, other, False),))

    def _scalar(self):
        return None if self.coeffs.keys() - {0} else self.scalar_part

    def _key(self):
        return self.coeffs

    @property
    def scalar_part(self):
        return self.coeffs.get(0, self.ring.field.zero)

    def homogeneous_component(self, k):
        """Part supported on monomials of length exactly k."""
        return GrassmannElement(
            self.ring, {m: c for m, c in self.coeffs.items() if m.bit_count() == k})

    def __str__(self):
        if not self.coeffs:
            return "0"
        out = []
        for m in sorted(self.coeffs, key=lambda m: (m.bit_count(), m)):
            c = self.coeffs[m]
            neg = c.is_rational and c.to_fraction() < 0
            if neg:
                c = -c
            mono = "".join(f"v{i + 1}" for i in range(self.ring.g) if m >> i & 1)
            if not mono:
                body = str(c)
            elif c == self.ring.field.one:
                body = mono
            else:
                body = f"{c}*{mono}" if "," not in str(c) else f"({c})*{mono}"
            if not out:
                out.append(f"-{body}" if neg else body)
            else:
                out.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(out)

    def __repr__(self):
        return f"<{self}>"


# --------------------------------------------------------------------------
# Automorphisms
# --------------------------------------------------------------------------

def epsilon(algebra, validate=True):
    """The parity automorphism: negates odd-length monomials."""
    def act(x):
        return GrassmannElement(
            algebra,
            {m: (-c if m.bit_count() & 1 else c) for m, c in x.coeffs.items()})
    return Endomorphism("epsilon", algebra, act, validate=validate)


def rho(algebra, e, validate=True):
    """v_i -> e*v_i for a root of unity e: scales the length-k part by e^k.
    Every root of unity in Q(zeta_n) is +-zeta_n^j, so its order divides 2n."""
    e = algebra.coerce_scalar(e)
    if e ** (2 * algebra.field.order) != algebra.field.one:
        raise RingError("rho requires a root of unity in the scalar field")
    powers = [e ** k for k in range(algebra.g + 1)]
    def act(x):
        return GrassmannElement(
            algebra, {m: powers[m.bit_count()] * c for m, c in x.coeffs.items()})
    return Endomorphism(f"rho_{e}", algebra, act, validate=validate)


def sigma(algebra, validate=True):
    """Conjugation g -> (1+v1) g (1-v1)."""
    if algebra.g < 1:
        raise RingError("sigma needs at least one generator")
    v1 = algebra.generator(1)
    left, right = algebra.one + v1, algebra.one - v1
    return Endomorphism("sigma", algebra,
                        lambda x: left * x * right, validate=validate)


def endomorphism_from_generator_images(algebra, images):
    """Multiplicative extension of v_i -> images[i]; validated on generators."""
    if len(images) != algebra.g:
        raise RingError("need one image per generator")

    def act(x):
        out = algebra.zero
        for mask, c in x.coeffs.items():
            term = algebra.from_scalar(c)
            for i in range(algebra.g):
                if mask >> i & 1:
                    term = term * images[i]
            out = out + term
        return out

    return Endomorphism("custom", algebra, act)


# --------------------------------------------------------------------------
# Component bases and the constraint solver
# --------------------------------------------------------------------------

class ComponentBasis:
    """A K-subspace of a Grassmann algebra given by a linearly independent
    spanning list of elements.  Independence is checked once, here, so a
    span test is one elimination: x lies in the span iff adding it keeps
    the rank at ``dim``, and two bases of equal ``dim`` span one subspace
    iff their union has that rank too."""

    def __init__(self, algebra, basis):
        from . import linalg        # loaded by the first basis, not by E
        self.algebra = algebra
        self.basis = basis
        coords = self._coords()
        if coords and linalg.rank(coords, algebra.dim) != len(coords):
            raise RingError("basis elements are linearly dependent")

    @property
    def dim(self):
        return len(self.basis)

    def _coords(self):
        return [self.algebra.coordinates(b) for b in self.basis]

    def contains(self, x):
        from . import linalg
        if x.ring != self.algebra:
            raise ContextMismatchError("element from a different algebra")
        coords = self._coords() + [self.algebra.coordinates(x)]
        return linalg.rank(coords, self.algebra.dim) == self.dim

    def same_span(self, other):
        from . import linalg
        if other.algebra != self.algebra:
            raise ContextMismatchError("bases over different algebras")
        return self.dim == other.dim == linalg.rank(
            self._coords() + other._coords(), self.algebra.dim)


def graded_component_basis(algebra, m, n):
    """Basis of E_{m,n} = direct sum of the length-(m+nu) homogeneous parts."""
    if not 0 <= m < n:
        raise RingError("need 0 <= m < n")
    basis = [algebra.basis_element(mask) for mask in algebra.basis_masks()
             if mask.bit_count() % n == m % n]
    return ComponentBasis(algebra, basis)


def solve_constraint(delta, t):
    """Basis of {x in E : delta(x) = t*x}, by exact Gaussian elimination on
    the 2^g x 2^g matrix of the K-linear map x -> delta(x) - t*x."""
    from . import linalg
    algebra = delta.ring
    if not isinstance(algebra, GrassmannAlgebra):
        raise RingError("solve_constraint works on Grassmann algebras")
    if algebra.g > SOLVER_CAP:
        raise CostCapError(f"solver cap exceeded: g={algebra.g} > {SOLVER_CAP}")
    t = algebra.from_scalar(t) if isinstance(t, SCALARS) else t
    dim = algebra.dim
    # column j holds the coordinates of (delta - t*.) applied to basis monomial j
    cols = []
    for mask in algebra.basis_masks():
        b = algebra.basis_element(mask)
        cols.append(algebra.coordinates(delta(b) - t * b))
    rows = [[cols[j][i] for j in range(dim)] for i in range(dim)]
    kernel = linalg.kernel_basis(rows, dim, algebra.field)
    basis = [algebra.element({m: v[m] for m in range(dim) if v[m]}) for v in kernel]
    return ComponentBasis(algebra, basis)
