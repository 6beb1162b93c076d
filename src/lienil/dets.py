"""Noncommutative determinant theory: symmetric determinant, preadjoint,
right/left adjoint sequences and determinants, characteristic polynomials,
Cayley-Hamilton residuals, and integrality certificates.

sdet and every preadjoint entry are one restricted double sum,
``_pair_sums``, met in the middle: a sum on m rows is +-head * tail summed
over the ways to split its rows and its columns into the first
h = m - m // 2 and the rest, the head the sdet on the first h rows and
columns and the tail the sdet on the rest.  The sdet on t >= 2 rows and
columns, ``_subset_sum``, sums t^2 products of an sdet on one row fewer and
an entry, and is kept for the call, so the n^2 preadjoint entries share
these sums.  The +-head * tail terms of a sum, like the products and
traces of the adjoint chains, go to the entry ring's fused sum of
products, ``ring.dot``, together.  Zero entries and sums cost no multiply
and zero terms are not added.  Ring multiplies (``dot`` terms included)
with no zero entry or sum:

    sdet        n = 3: 45    n = 4: 180    n = 5: 1400
    preadjoint  n = 3: 36    n = 4: 288    n = 5: 1300

An adjoint chain builds its first k - 1 products in full, since each one's
preadjoint is the next step.  rdet, ldet and charpoly read only the trace
of the k-th, so it is never built: tr(L R) = sum_i sum_j L_ij R_ji, one
``ring.dot`` of n^2 terms, where L R takes n^3.  ``adjoint_sequence`` runs
the same steps and then builds the k-th product.  The Cayley-Hamilton
residual and the integrality residuals substitute into a polynomial by
Horner's rule (``rings.substitute``): from the top coefficient down,
acc = x acc + c on the right and acc = acc x + c on the left.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations, product

from .matrices import Matrix, MatrixError
from .parallel import map_reduce_sum
from .rings import CostCapError, RingError, fixed_ring_member, substitute

MAX_N = 5                 # the (n!)^2 enumerations stop here
# An adjoint chain of length k (rdet, ldet, charpoly) ends in a product of
# degree n^k in the entries of A.  At g = 4, on a sampled example-5.2
# member (seed 1), charpoly takes about 0.2 s at n=5, k=3 and 3 s at n=2,
# k=9; rdet at n=5, k=3 takes about 0.03 s on unit entries (a scalar 1..3
# plus one monomial, seed 1); CPython 3.11 on one core of an x86-64 host.
# The n=2 member's chain products are diagonal, so tracing the last one
# saves nothing there.  The next degree at n=5, 5^4 = 625, ran over 90 s
# when this cap was set.  A 1x1 chain does constant work per step;
# k <= 512 holds it under 50 ms.
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


def _subset_sum(signed, memo, ring, R, C):
    """S(R, C), the sdet on the rows R and columns C (increasing tuples of
    one size t), or None when it is zero: ``ring.one`` on no rows, the entry
    on one.  signed[v][w] is (a_vw, -a_vw), or (a_vw,) if no sum on 2 or
    more rows is read, and None if a_vw = 0.  On t >= 2 rows the last
    position takes a row v, the i-th of R, and a column w, the j-th of C,
    so S(R, C), kept in memo, sums t^2 terms (-1)^(i+j) S(R - v, C - w) a_vw
    (t - 1 - i and t - 1 - j entries come after v and w); a zero entry or
    sum on one row fewer gives no term."""
    t = len(R)
    if t < 2:
        pair = signed[R[0]][C[0]] if t else (ring.one,)
        return pair and pair[0]
    if (R, C) not in memo:
        def term(ij):
            i, j = ij
            pair = signed[R[i]][C[j]]
            if pair:
                sub = _subset_sum(signed, memo, ring, R[:i] + R[i + 1:],
                                  C[:j] + C[j + 1:])
                if sub is not None:
                    return sub * pair[i + j & 1]
        memo[R, C] = map_reduce_sum(product(range(t), repeat=2), term,
                                    ring.zero) or None
    return memo[R, C]


def _pair_sums(A, row_sets, col_sets):
    """[[S(R, C) for R in row_sets] for C in col_sets].  A set is a pair
    (values, sign) with its values increasing, all sets have the same size
    m, and S(R, C) is sign_R sign_C times the sum over the bijections alpha
    from the positions 1..m onto R and beta onto C of sgn(alpha) sgn(beta)
    a_{alpha(1),beta(1)} ... a_{alpha(m),beta(m)}: the sdet of A restricted
    to the rows R and the columns C.

    The positions split into the first h = m - m // 2 and the last
    k = m // 2, so S(R, C) = sum over the h-subsets R' of R and C' of C of
    e_R' e_C' S(R', C') S(R - R', C - C'), every set in increasing order and
    e_R' the sign of "R', then the rest of R".  This is the double sum
    regrouped by left distributivity and associativity alone; the head
    S(R', C') stays on the left.

    Heads and tails are ``_subset_sum``s, kept for the call and shared by
    sdet and the n^2 preadjoint entries.  A nonzero (head, tail) pair is one
    term of one ``ring.dot`` per S(R, C).  A tail that is a sum (k >= 2) is
    read first, so a zero tail builds no head; an entry tail is read last.
    With no zero entry or sum, a sum on t >= 2 rows takes t^2 multiplies:
    - sdet, m = n: 9 x 4 on 2 rows + 9 joins = 45 at n = 3, 36 x 4 + 36 =
      180 at n = 4, 100 x 4 + 100 x 9 on 3 rows + 100 joins = 1400 at n = 5;
    - the preadjoint, n^2 sums at m = n - 1: 9 x 4 = 36 joins at n = 3,
      36 x 4 + 16 x 9 = 288 at n = 4, 100 x 4 + 25 x 36 = 1300 at n = 5."""
    ring = A.ring
    m = len(row_sets[0][0])
    k = m // 2
    h = m - k
    signed = [[((x, -x) if h > 1 else (x,)) if x else None for x in row]
              for row in A.rows]
    sums = {}

    def S(R, C):
        return sums[R, C] if (R, C) in sums else _subset_sum(
            signed, sums, ring, R, C)

    def halves(values, sign):
        out = []
        for first in combinations(values, h):
            rest = tuple(v for v in values if v not in first)
            out.append((sign * _sign(first + rest), first, rest))
        return out

    def join(row, col):
        terms = []
        for sr, R1, R2 in row:
            for sc, C1, C2 in col:
                if k > 1:
                    tail = S(R2, C2)
                    head = None if tail is None else S(R1, C1)
                else:
                    head = S(R1, C1)
                    tail = None if head is None else S(R2, C2)
                if head is not None and tail is not None:
                    terms.append((head, tail, sr * sc < 0))
        # with k = 0 (m <= 1) the tail is ring.one and the head is the term
        return (ring.dot(terms) if k else sum(
            (-head if neg else head for head, _, neg in terms), ring.zero))

    rows = [halves(*r) for r in row_sets]
    return [[join(row, col) for row in rows]
            for col in (halves(*c) for c in col_sets)]


def sdet(A):
    """sum over alpha, beta in S_n of sgn(alpha) sgn(beta)
    a_{alpha(1),beta(1)} ... a_{alpha(n),beta(n)}."""
    _require_square(A, "sdet")
    everything = (tuple(range(A.nrows)), 1)
    return _pair_sums(A, [everything], [everything])[0][0]


def sdet_first_form(A):
    """The tau/pi form: the sum over pi and tau in S_n of sgn(pi)
    a_{tau(1),pi(tau(1))} ... a_{tau(n),pi(tau(n))}; equal to sdet by a
    reindexing argument, kept as an independent cross-check.  A pi with a
    zero a_{r,pi(r)} gives no term for any tau and is skipped; each
    product is taken factor by factor in tau order, with sgn(pi) applied
    once to the sum over tau."""
    _require_square(A, "sdet")
    n = A.nrows
    ring = A.ring
    acc = ring.zero
    for pi in permutations(range(n)):
        entries = [A.rows[r][pi[r]] for r in range(n)]
        if not all(entries):
            continue
        total = ring.zero
        for tau in permutations(range(n)):
            prod = entries[tau[0]]
            for t in tau[1:]:
                prod = prod * entries[t]
            total = total + prod
        acc = acc + total if _sign(pi) > 0 else acc - total
    return acc


def preadjoint(A):
    """A*: entry (r, s) is the double permutation sum restricted to
    alpha(s) = s and beta(s) = r, with position s left out.  Since alpha
    fixes s, the inversions through position s come in pairs; since
    beta(s) = r, they number r + s mod 2.  So the entry is (-1)^(r+s) times
    the sum over the rows other than s and the columns other than r."""
    _require_square(A, "preadjoint")
    n = A.nrows
    others = [(tuple(v for v in range(n) if v != s), (-1) ** s)
              for s in range(n)]
    return Matrix(A.ring, _pair_sums(A, others, others))


def preadjoint_via_minors(A):
    """Independent route: (r, s) entry as (-1)^(r+s) sdet of the minor
    obtained by deleting row s and column r, each by ``sdet_first_form``,
    which shares no code with ``_pair_sums``."""
    _require_square(A, "preadjoint")
    n = A.nrows
    ring = A.ring
    if n == 1:
        return Matrix(ring, [[ring.one]])
    return Matrix(ring, [[sdet_first_form(A.minor(s, r)) * (-1) ** (r + s)
                          for s in range(1, n + 1)] for r in range(1, n + 1)])


class AdjointSequence:
    def __init__(self, side, adjoints, products):
        self.side = side            # "right" | "left"
        self.adjoints = adjoints    # P_1..P_k (or Q_1..Q_k)
        self.products = products    # A P_1...P_j (resp. Q_j...Q_1 A), j=1..k


def _chain(A, k, side):
    """The adjoint chain of A up to its k-th product, which is left unbuilt:
    P_1..P_k, the first k - 1 products, and the two factors whose product
    is the k-th (A P_1...P_{k-1} and P_k on the right, P_k and
    Q_{k-1}...Q_1 A on the left)."""
    if side not in ("right", "left"):
        raise RingError("side must be 'right' or 'left'")
    if k < 1:
        raise RingError("k must be >= 1")
    _require_square(A, "adjoint chain")
    _require_chain(A.nrows, k)
    adjoints, products = [], []
    last = A
    for j in range(k):
        if j:
            last = left * right
            products.append(last)
        adjoints.append(preadjoint(last))
        left, right = ((last, adjoints[-1]) if side == "right"
                       else (adjoints[-1], last))
    return adjoints, products, left, right


def adjoint_sequence(A, k, side="right"):
    """Right: P_1 = A*, P_{j+1} = (A P_1...P_j)*.
    Left: Q_1 = A*, Q_{j+1} = (Q_j...Q_1 A)*."""
    adjoints, products, left, right = _chain(A, k, side)
    return AdjointSequence(side, adjoints, products + [left * right])


def _chain_trace(A, k, side):
    """tr of the k-th product of the chain, from its two factors:
    tr(L R) = sum_i sum_j L_ij R_ji, n^2 ring multiplies where the product
    takes n^3."""
    _, _, left, right = _chain(A, k, side)
    R = right.rows
    return A.ring.dot([(a, R[j][i], False) for i, row in enumerate(left.rows)
                       for j, a in enumerate(row)])


def rdet(A, k):
    """tr(A P_1 ... P_k)."""
    return _chain_trace(A, k, "right")


def ldet(A, k):
    """tr(Q_k ... Q_1 A)."""
    return _chain_trace(A, k, "left")


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
    rz = ring.polynomials
    n = A.nrows
    lifted = A.map_entries(rz.constant, ring=rz)
    zI = Matrix.identity(rz, n) * rz.z
    B = zI - lifted
    value = _chain_trace(B, k, side)
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
