"""Grassmann (exterior) algebra on g anticommuting generators.

Elements are sparse maps from generator-index subsets (bitmasks) to nonzero
field scalars.  The paper-style components live here too: homogeneous parts,
even/odd decomposition, the root-of-unity grading, and a linear-constraint
solver that computes bases of {x : delta(x) = t*x} by exact elimination.
"""

from __future__ import annotations

from . import linalg
from .rings import (SCALARS, ContextMismatchError, CostCapError,
                    Endomorphism, Ring, RingElement, RingError)
from .scalars import QQ

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


class GrassmannElement(RingElement):
    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = coeffs

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.coeffs)
        for m, c in o.coeffs.items():
            s = out.get(m)
            s = c if s is None else s + c
            if s:
                out[m] = s
            else:
                del out[m]
        return GrassmannElement(self.ring, out)

    def __neg__(self):
        return GrassmannElement(self.ring, {m: -c for m, c in self.coeffs.items()})

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = {}
        for ma, ca in self.coeffs.items():
            hops = _hops(ma)
            for mb, cb in o.coeffs.items():
                if ma & mb:
                    continue
                m = ma | mb
                c = ca * cb
                if (mb & hops).bit_count() & 1:
                    c = -c
                s = out.get(m)
                s = c if s is None else s + c
                if s:
                    out[m] = s
                elif m in out:
                    del out[m]
        return GrassmannElement(self.ring, out)

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

    def max_degree(self):
        return max((m.bit_count() for m in self.coeffs), default=0)

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


def sigma_inverse(algebra, validate=True):
    v1 = algebra.generator(1)
    left, right = algebra.one - v1, algebra.one + v1
    return Endomorphism("sigma_inv", algebra,
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
    spanning list of elements."""

    def __init__(self, algebra, basis):
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
        if x.ring != self.algebra:
            raise ContextMismatchError("element from a different algebra")
        return linalg.in_span(self._coords(), self.algebra.coordinates(x),
                              self.algebra.dim)

    def same_span(self, other):
        if other.algebra != self.algebra:
            raise ContextMismatchError("bases over different algebras")
        return linalg.same_span(self._coords(), other._coords(), self.algebra.dim)


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
