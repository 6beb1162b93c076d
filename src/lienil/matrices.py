"""Generic n x n matrices over a ring, transitive matrices, and the
Hadamard automorphisms Theta_T and the entrywise extension delta_n.

Transitivity (t_ii = 1 and t_ij t_jk = t_ik for all i, j, k) is tested in
O(n^2) products through the first row and column; see ``_failing_triple``."""

from __future__ import annotations

from bisect import bisect_left

from .rings import (SCALARS, ContextMismatchError, CostCapError, RingError,
                    check_same_ring)
from .scalars import MAX_ORDER


class MatrixError(RingError):
    pass


class Matrix:
    """Row-major dense matrix; entries share one ring."""

    __slots__ = ("ring", "rows")

    def __init__(self, ring, rows):
        rows = tuple(tuple(r) for r in rows)
        if not rows or not rows[0]:
            raise MatrixError("empty matrix")
        width = len(rows[0])
        for r in rows:
            if len(r) != width:
                raise MatrixError("ragged rows")
            for e in r:
                if e.ring != ring:
                    raise ContextMismatchError("entry from a different ring")
        self.ring = ring
        self.rows = rows

    @classmethod
    def identity(cls, ring, n):
        return cls(ring, [[ring.one if i == j else ring.zero for j in range(n)]
                          for i in range(n)])

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0])

    @property
    def is_square(self):
        return self.nrows == self.ncols

    def entry(self, i, j):
        """1-based access, matching the written index conventions."""
        return self.rows[i - 1][j - 1]

    def _check_shape(self, other, same=True):
        check_same_ring(self, other)
        if same and (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise MatrixError("dimension mismatch")

    def __add__(self, other):
        self._check_shape(other)
        return Matrix(self.ring, [[a + b for a, b in zip(ra, rb)]
                                  for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Matrix(self.ring, [[-a for a in r] for r in self.rows])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            self._check_shape(other, same=False)
            if self.ncols != other.nrows:
                raise MatrixError("dimension mismatch in product")
            # Entries are immutable, so rows of self (columns of other) that
            # hold the same objects give one product entry, computed once.
            cols = list(zip(*other.rows))
            row_keys = [tuple(map(id, r)) for r in self.rows]
            col_keys = [tuple(map(id, c)) for c in cols]
            rows = dict(zip(row_keys, self.rows))
            cols = dict(zip(col_keys, cols))
            dot = self.ring.dot
            products = {(rk, ck): dot([(a, b, False) for a, b in zip(r, c)])
                        for rk, r in rows.items() for ck, c in cols.items()}
            return Matrix(self.ring, [[products[rk, ck] for ck in col_keys]
                                      for rk in row_keys])
        return self.map_entries(lambda e: e * other)

    def __rmul__(self, other):
        if isinstance(other, SCALARS):      # lift a scalar once
            other = self.ring.from_scalar(other)
        return self.map_entries(lambda e: other * e)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.ring == other.ring and self.rows == other.rows)

    def __hash__(self):
        return hash((self.ring, self.rows))

    def map_entries(self, f, ring=None):
        return Matrix(ring or self.ring, [[f(e) for e in r] for r in self.rows])

    def trace(self):
        if not self.is_square:
            raise MatrixError("trace needs a square matrix")
        return sum((row[i] for i, row in enumerate(self.rows)), self.ring.zero)

    def minor(self, i, j):
        """Delete row i and column j (1-based)."""
        return Matrix(self.ring,
                      [[e for cj, e in enumerate(r, start=1) if cj != j]
                       for ri, r in enumerate(self.rows, start=1) if ri != i])

    def __repr__(self):
        body = "; ".join("[" + ", ".join(repr(e) for e in r) + "]" for r in self.rows)
        return f"Matrix({body})"


def hadamard(A, B):
    """Entrywise product [a_ij * b_ij]."""
    A._check_shape(B)
    return Matrix(A.ring, [[a * b for a, b in zip(ra, rb)]
                           for ra, rb in zip(A.rows, B.rows)])


def _failing_triple(M):
    """A 1-based triple (i, j, k) of the square matrix M with
    t_ij t_jk != t_ik, or None if every triple holds.

    This takes n^2 + n - 1 products and no commutativity.  If the triples
    (i, 1, k) and (1, j, 1) hold, that is t_i1 t_1k = t_ik and
    t_1j t_j1 = t_11, then so does every triple:
    t_ij t_jk = t_i1 (t_1j t_j1) t_1k = t_i1 (t_11 t_1k) = t_i1 t_1k = t_ik."""
    t = M.rows
    n = len(t)
    for i in range(n):
        for k in range(n):
            if t[i][0] * t[0][k] != t[i][k]:
                return i + 1, 1, k + 1
    for j in range(1, n):
        if t[0][j] * t[j][0] != t[0][0]:
            return 1, j + 1, 1
    return None


def is_transitive(M):
    """t_ii = 1 and t_ij t_jk = t_ik for all i, j, k, in O(n^2) products."""
    if not M.is_square:
        return False
    one = M.ring.one
    return (all(row[i] == one for i, row in enumerate(M.rows))
            and _failing_triple(M) is None)


class TransitiveMatrix:
    """A square matrix certified transitive."""

    def __init__(self, matrix):
        if not matrix.is_square:
            raise MatrixError("transitive matrices are square")
        if not is_transitive(matrix):
            raise MatrixError("matrix fails the transitivity triple check")
        self.matrix = matrix

    @property
    def ring(self):
        return self.matrix.ring

    @property
    def n(self):
        return self.matrix.nrows

    def entry(self, i, j):
        return self.matrix.entry(i, j)

    def __eq__(self, other):
        if not isinstance(other, TransitiveMatrix):
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return f"TransitiveMatrix({self.matrix!r})"


def transitive_from_units(ring, units):
    """T = [g_i * g_j^{-1}] for a sequence of invertible elements."""
    units = list(units)
    inverses = []
    for g in units:
        inv = ring.try_invert(g)
        if inv is None:
            raise MatrixError("unit sequence contains a non-invertible element")
        inverses.append(inv)
    rows = [[g * inv for inv in inverses] for g in units]
    return TransitiveMatrix(Matrix(ring, rows))


def factor_transitive(T):
    """Unit sequence g_i = t_{i,1}.  Each is a unit with inverse t_{1,i},
    and g_i g_j^{-1} = t_i1 t_1j = t_ij rebuilds T."""
    return [T.entry(i, 1) for i in range(1, T.n + 1)]


def blow_up(T, cuts):
    """Replace each entry t_ij by a constant block per the cut sequence
    0 = d_0 < d_1 < ... < d_n = m."""
    cuts = list(cuts)
    if len(cuts) != T.n:
        raise MatrixError("cut sequence must have one entry per row of T")
    if any(a >= b for a, b in zip([0] + cuts, cuts)):
        raise MatrixError("cut sequence must be strictly increasing from 0")
    m = cuts[-1]
    # m bounds the m^2 entries and the m^2 + m - 1 products of the
    # transitivity check that TransitiveMatrix runs on them
    if m > MAX_ORDER:
        raise CostCapError(f"blow-up size {m} exceeds the cap {MAX_ORDER}")
    # index p (1-based) lies in block i (0-based) when d_i < p <= d_{i+1}
    block = [bisect_left(cuts, p) for p in range(1, m + 1)]
    t = T.matrix.rows
    return TransitiveMatrix(Matrix(T.ring, [[t[i][j] for j in block]
                                            for i in block]))


def transitive_square(T):
    """T*T, asserting the identity T^2 = nT."""
    sq = T.matrix * T.matrix
    if sq != T.n * T.matrix:
        raise MatrixError("certificate broken: T^2 != nT")
    return sq


def _check_central(T):
    if not all(T.ring.is_central(e) for row in T.matrix.rows for e in row):
        raise MatrixError("Theta_T needs central entries in T")


def theta(T, A):
    """Theta_T(A) = T * A (Hadamard); an automorphism for transitive central T."""
    _check_central(T)
    return hadamard(T.matrix, A)


def theta_inverse(T, A):
    """Hadamard multiplication by S = [t_ij^{-1}], which is the transpose
    of T: t_ij t_ji = t_ii = 1 and t_ji t_ij = t_jj = 1."""
    _check_central(T)
    return hadamard(Matrix(T.ring, zip(*T.matrix.rows)), A)


def delta_n(delta, A):
    """Entrywise application of a ring endomorphism."""
    if A.ring != delta.ring:
        raise ContextMismatchError("matrix over a different ring than delta")
    return A.map_entries(delta)


def matrix_units_counterexample(T):
    """For a square matrix T, a pair of standard matrix units (E_ij, E_jk)
    with Theta_T(E_ij E_jk) != Theta_T(E_ij) Theta_T(E_jk), that is with
    t_ij t_jk != t_ik.  Returns None if there is none: Theta_T is then
    multiplicative on matrix units, as for every transitive T."""
    if not T.is_square:
        raise MatrixError("matrix-unit counterexamples need a square matrix")
    triple = _failing_triple(T)
    if triple is None:
        return None
    i, j, k = triple
    ring = T.ring
    n = T.nrows

    def unit(a, b):
        return Matrix(ring, [[ring.one if (r, c) == (a, b) else ring.zero
                              for c in range(1, n + 1)] for r in range(1, n + 1)])

    return unit(i, j), unit(j, k)
