"""Exact Gaussian elimination over a scalar field: kernels and rank.

Vectors are lists of ``scalars.Cyc`` elements (integer numerators over a
common denominator in Q(zeta_n)); each pivot is inverted once through the
Galois norm.  Arithmetic is exact, so no pivoting strategy beyond "first
nonzero" is needed.  A row update skips every product with a zero entry, so
a sparse system, such as the diagonal one of a constraint under epsilon or
rho, costs truthiness tests where it would cost scalar products.
"""

from __future__ import annotations


def _rref(rows, ncols):
    """Reduced row echelon form in place on a copy; returns (rows, pivot_cols)."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv if x else x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y if y else x
                           for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def rank(rows, ncols):
    return len(_rref(rows, ncols)[1])


def kernel_basis(rows, ncols, field):
    """Basis of {x : M x = 0} for the matrix M given by ``rows``."""
    rref, pivots = _rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [field.zero] * ncols
        vec[f] = field.one
        for r, p in zip(rref, pivots):
            vec[p] = -r[f]
        basis.append(vec)
    return basis

