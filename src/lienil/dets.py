"""Noncommutative determinant theory: symmetric determinant, preadjoint,
right/left adjoint sequences and determinants, characteristic polynomials,
Cayley-Hamilton residuals, and integrality certificates.

All permutation sums follow the position order t = 1..n; the double sum
adds its terms left to right in the order the permutations are enumerated.
A term with a zero factor costs no ring multiply, a product stops at its
first zero partial product, and zero terms are not added: the nonzero
terms keep their order.  A term over m positions is the product of two
halves, its first m - m // 2 factors and its last m // 2, and a call
multiplies out each distinct half once.  With no zero entry or product,
sdet at n = 5 makes 22000 ring multiplies, where multiplying out every
term would make 57600.
"""

from __future__ import annotations

import math
from itertools import permutations

from .matrices import Matrix, MatrixError
from .parallel import map_reduce_sum
from .rings import (CostCapError, PolynomialRing, RingError,
                    fixed_ring_member, substitute)

MAX_N = 5                 # the (n!)^2 enumerations stop here
# An adjoint chain of length k (rdet, ldet, charpoly) ends in a product of
# degree n^k in the entries of A.  At g = 4, on a sampled example-5.2
# member, charpoly takes 3.9 s at n=5, k=3 and 16 s at n=2, k=9; rdet at
# n=5, k=3 takes 0.9 s on random unit entries.  The next degree at n=5,
# 5^4 = 625, ran over 90 s when this cap was set.  A 1x1 chain does
# constant work per step; k <= 512 holds it under 50 ms.
MAX_DEGREE = 512


def _require_square(A, what):
    if not A.is_square:
        raise MatrixError(f"{what} needs a square matrix")
    if A.nrows > MAX_N:
        raise CostCapError(
            f"{what}: n={A.nrows} exceeds the enumeration cap {MAX_N}")


def _require_chain(n, k):     # k first: no n^k is built for a huge k
    if k > MAX_DEGREE or n ** k > MAX_DEGREE:
        raise CostCapError(f"adjoint chain: k={k} at n={n} exceeds the caps "
                           f"k <= {MAX_DEGREE} and n^k <= {MAX_DEGREE}")


def _sign(perm):
    """Sign of a permutation given as a value tuple."""
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return -1 if inv & 1 else 1


def _product(factors, ring):
    """The nonzero factors multiplied in order from the first (an empty
    product is ``ring.one``), stopping at a zero partial product: a zero
    product is ``ring.zero`` itself."""
    factors = iter(factors)
    prod = next(factors, ring.one)
    for x in factors:
        prod = prod * x
        if not prod:
            return ring.zero
    return prod


def _pair_sum(A, fixed=None):
    """sum over alpha, beta in S_n of sgn(alpha) sgn(beta) times
    a_{alpha(t),beta(t)} over the positions t in order.  With fixed = (s, r)
    only the pairs with alpha(s) = s and beta(s) = r count, and position s
    is left out of the product.

    The pairs are generated lazily.  A's zero pattern is read once: a pair
    that meets a zero entry is the term ``ring.zero`` with no ring multiply.
    The m positions split into the last m // 2 and the ones before them,
    and any other term is the product of its two halves.  The factors of a
    half depend only on alpha's rows and beta's columns at its positions,
    so each distinct half is multiplied out once per call and looked up
    after that.  Every product starts from its first factor and stops at a
    zero partial product.  With m = 3 a term is (a b) c, as when it is
    multiplied out in order; with m < 2 there is one half, and with m = 0,
    as in the 1x1 preadjoint, it is the empty product ``ring.one``."""
    n = A.nrows
    ring, rows = A.ring, A.rows
    perms = [(p, _sign(p)) for p in permutations(range(n))]
    alphas = betas = perms
    positions = list(range(n))
    if fixed is not None:
        s, r = fixed
        alphas = [(p, sp) for p, sp in perms if p[s] == s]
        betas = [(p, sp) for p, sp in perms if p[s] == r]
        positions.remove(s)
    # Bit n t + j stands for value j at position t.  alpha carries its rows
    # and, n^2 bits up, the zero entries in them; beta carries its columns
    # n^2 bits up.  A pair meets a zero entry when alpha's zeros share a bit
    # with beta's columns, and a half is keyed by the bits of the pair's
    # rows and columns at its positions.
    up = n * n
    zero_cols = [sum(1 << j for j, x in enumerate(row) if not x)
                 for row in rows]
    alphas = [(p, sp, sum(zero_cols[p[t]] << up + n * t for t in positions),
               sum(1 << n * t + p[t] for t in positions)) for p, sp in alphas]
    betas = [(p, sp, sum(1 << up + n * t + p[t] for t in positions))
             for p, sp in betas]
    k = len(positions) // 2
    halves = []
    for ts in (positions[:-k], positions[-k:]) if k else (positions,):
        mask = sum((1 << n) - 1 << n * t for t in ts)
        halves.append((ts, mask | mask << up, {}))
    pairs = ((a, b) for a in alphas for b in betas)
    zero = ring.zero

    def term(item):
        (pa, sa, zeros, bits), (pb, sb, picks) = item
        if zeros & picks:
            return zero
        bits |= picks
        prod = None
        for ts, mask, cache in halves:
            key = bits & mask
            part = cache.get(key)
            if part is None:
                part = cache[key] = _product(
                    [rows[pa[t]][pb[t]] for t in ts], ring)
            if part is zero:
                return zero
            prod = part if prod is None else prod * part
        if not prod:
            return zero
        return prod if sa * sb > 0 else -prod

    return map_reduce_sum(pairs, term, zero)


def sdet(A):
    """sum over alpha, beta in S_n of sgn(alpha) sgn(beta)
    a_{alpha(1),beta(1)} ... a_{alpha(n),beta(n)}."""
    _require_square(A, "sdet")
    return _pair_sum(A)


def sdet_first_form(A):
    """The tau/pi form: sum of sgn(pi) a_{tau(1),pi(tau(1))} ... ; equal to
    sdet by a reindexing argument, kept as an independent cross-check."""
    _require_square(A, "sdet")
    n = A.nrows
    ring = A.ring
    acc = ring.zero
    for tau in permutations(range(n)):
        for pi in permutations(range(n)):
            prod = ring.one
            for t in range(n):
                prod = prod * A.rows[tau[t]][pi[tau[t]]]
            acc = acc + (prod if _sign(pi) > 0 else -prod)
    return acc


def preadjoint(A):
    """A*: entry (r, s) is the double permutation sum restricted to
    alpha(s) = s and beta(s) = r, with position s left out."""
    _require_square(A, "preadjoint")
    n = A.nrows
    return Matrix(A.ring, [[_pair_sum(A, (s, r)) for s in range(n)]
                           for r in range(n)])


def preadjoint_via_minors(A):
    """Independent route: (r, s) entry as (-1)^(r+s) sdet of the minor
    obtained by deleting row s and column r."""
    _require_square(A, "preadjoint")
    n = A.nrows
    ring = A.ring
    if n == 1:
        return Matrix(ring, [[ring.one]])
    return Matrix(ring, [[sdet(A.minor(s, r)) * (-1) ** (r + s)
                          for s in range(1, n + 1)] for r in range(1, n + 1)])


class AdjointSequence:
    def __init__(self, side, adjoints, products):
        self.side = side            # "right" | "left"
        self.adjoints = adjoints    # P_1..P_k (or Q_1..Q_k)
        self.products = products    # A P_1...P_j (resp. Q_j...Q_1 A), j=1..k


def adjoint_sequence(A, k, side="right"):
    """Right: P_1 = A*, P_{j+1} = (A P_1...P_j)*.
    Left: Q_1 = A*, Q_{j+1} = (Q_j...Q_1 A)*."""
    if side not in ("right", "left"):
        raise RingError("side must be 'right' or 'left'")
    if k < 1:
        raise RingError("k must be >= 1")
    _require_square(A, "adjoint chain")
    _require_chain(A.nrows, k)
    adjoints, products = [], []
    product = A
    for _ in range(k):
        adjoints.append(preadjoint(product))
        product = (product * adjoints[-1] if side == "right"
                   else adjoints[-1] * product)
        products.append(product)
    return AdjointSequence(side, adjoints, products)


def rdet(A, k):
    """tr(A P_1 ... P_k)."""
    return adjoint_sequence(A, k).products[-1].trace()


def ldet(A, k):
    """tr(Q_k ... Q_1 A)."""
    return adjoint_sequence(A, k, "left").products[-1].trace()


def leading_coefficient_value(n, k):
    """n * ((n-1)!)^(1 + n + ... + n^(k-1)) as an integer."""
    return n * math.factorial(n - 1) ** sum(n ** i for i in range(k))


class CharPoly:
    """Characteristic polynomial with coefficients in the entry ring."""

    def __init__(self, ring, coeffs, side, k, n):
        self.ring = ring              # the entry ring R
        self.coeffs = coeffs          # lambda_0 .. lambda_{n^k}, elements of R
        self.side = side
        self.k = k
        self.n = n

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def subst_matrix(self, A):
        """The polynomial at the square matrix A, on its own side:
        I lambda_0 + A lambda_1 + ... (right) or lambda_0 I + lambda_1 A + ...
        (left)."""
        return substitute(self.coeffs, A, Matrix.identity(A.ring, A.nrows),
                          self.side)


def charpoly(A, k, side="right"):
    """p_{A,k}(z) = rdet_(k)(z I - A) (resp. ldet for the left side),
    computed by lifting A to R[z] and reusing the generic determinant code."""
    _require_square(A, "charpoly")
    ring = A.ring
    rz = PolynomialRing(ring)
    n = A.nrows
    lifted = A.map_entries(rz.constant, ring=rz)
    zI = Matrix.identity(rz, n) * rz.z
    B = zI - lifted
    value = adjoint_sequence(B, k, side).products[-1].trace()
    deg = n ** k
    coeffs = [value.coeff(i) for i in range(deg + 1)]
    lead = ring.from_scalar(leading_coefficient_value(n, k))
    if value.degree != deg or coeffs[-1] != lead:
        raise RingError("characteristic polynomial leading term mismatch")
    return CharPoly(ring=ring, coeffs=coeffs, side=side, k=k, n=n)


def cayley_hamilton_check(A, k, side="right"):
    """Residual of the degree-n^k Cayley-Hamilton identity; zero when the
    entry ring is Lie nilpotent of index k (right side)."""
    return charpoly(A, k, side=side).subst_matrix(A)


class IntegralityCertificate:
    """Monic degree-n^k relations for r over the fixed ring: the right one
    is c'_0 + r c'_1 + ... + r^(N-1) c'_{N-1} + r^N = 0, the left one has
    the coefficients on the left."""

    def __init__(self, degree, right_coeffs, left_coeffs, right_residual,
                 left_residual, coefficients_fixed):
        self.degree = degree
        self.right_coeffs = right_coeffs      # c'_0 .. c'_{N-1}
        self.left_coeffs = left_coeffs        # c''_0 .. c''_{N-1}
        self.right_residual = right_residual
        self.left_residual = left_residual
        self.coefficients_fixed = coefficients_fixed

    @property
    def right_holds(self):
        return not self.right_residual

    @property
    def left_holds(self):
        return not self.left_residual


def integrality_certificate(r, delta, n, k):
    """Thm-style certificate: embed r via the root-of-unity transitive
    matrix, take the k-th characteristic polynomials of the image, and
    normalize by the invertible integer leading coefficient."""
    from .supermatrix import root_embedding
    _require_chain(n, k)
    ring = r.ring
    A = root_embedding(r, delta, n)
    lead = leading_coefficient_value(n, k)
    N = n ** k

    p = charpoly(A, k, side="right")
    q = charpoly(A, k, side="left")
    from fractions import Fraction
    inv_lead = ring.from_scalar(Fraction(1, lead))
    right = [c * inv_lead for c in p.coeffs[:N]]
    left = [c * inv_lead for c in q.coeffs[:N]]

    fixed = all(fixed_ring_member(delta, c) for c in right + left)

    return IntegralityCertificate(
        degree=N, right_coeffs=right, left_coeffs=left,
        right_residual=substitute(right + [ring.one], r, ring.one, "right"),
        left_residual=substitute(left + [ring.one], r, ring.one, "left"),
        coefficients_fixed=fixed)
