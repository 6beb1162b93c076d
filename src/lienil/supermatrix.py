"""Supermatrix algebras M_n(R, delta, T): membership, sampling, the
embedding of the base ring, condition reports, and the worked example
algebras over the Grassmann algebra."""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import accumulate
from operator import mul

from .grassmann import GrassmannAlgebra, epsilon, rho, sigma, solve_constraint
from .matrices import Matrix, MatrixError, TransitiveMatrix, blow_up
from .rings import CostCapError, RingError, fixed_ring_member
from .scalars import CyclotomicField


class SuperMatrixError(RingError):
    pass


# A shape solves one constraint, a 2^g x 2^g system, per distinct entry of
# T; the cap bounds n^2 4^g, the work when all n^2 entries differ.  It
# admits `example 5.3 --n 100 --g 4`, about 2 s cold, of which its 3
# solves take 0.1 s and writing the 10^4 cells the rest, and
# `example 5.2 --n 2 --g 10`, about 3 s cold, nearly all in its 2 solves
# (CPython 3.11 on one core of a 2-core x86-64 VM).
MAX_SHAPE_WORK = 2 ** 22


class SuperAlgebraSpec:
    """(R, delta, T, n) with T transitive over the center of R."""

    def __init__(self, ring, delta, T):
        if not isinstance(T, TransitiveMatrix):
            raise SuperMatrixError("T must be a certified TransitiveMatrix")
        if T.ring != ring or delta.ring != ring:
            raise SuperMatrixError("ring, delta and T must share a context")
        if not all(ring.is_central(e) for row in T.matrix.rows for e in row):
            raise SuperMatrixError("T has a non-central entry")
        self.ring = ring
        self.delta = delta
        self.T = T
        self.n = T.n

    def __repr__(self):
        return f"SuperAlgebraSpec(ring={self.ring!r}, delta={self.delta.name}, n={self.n})"


def is_supermatrix(spec, A):
    """Exact entrywise check of delta(a_ij) = t_ij * a_ij."""
    if not (A.is_square and A.nrows == spec.n):
        return False
    for i in range(1, spec.n + 1):
        for j in range(1, spec.n + 1):
            a = A.entry(i, j)
            if spec.delta(a) != spec.T.entry(i, j) * a:
                return False
    return True


def shape(spec):
    """Per-entry constraint bases, the algebra's 'shape': entry (i, j) is a
    basis of the membership subspace {x : delta(x) = t_ij * x}.  That
    subspace depends on the value t_ij alone, so each distinct entry of T
    is solved once, and entries with equal t_ij share one basis object.
    The predicted work n^2 4^g is capped at MAX_SHAPE_WORK."""
    if not isinstance(spec.ring, GrassmannAlgebra):
        raise SuperMatrixError("constraint bases need a Grassmann context")
    work = spec.n ** 2 * 4 ** spec.ring.g
    if work > MAX_SHAPE_WORK:
        raise CostCapError(f"shape: n^2 4^g = {work} for n={spec.n}, "
                           f"g={spec.ring.g} exceeds the cap {MAX_SHAPE_WORK}")
    solve = cache(lambda t: solve_constraint(spec.delta, t))
    return [[solve(t) for t in row] for row in spec.T.matrix.rows]


def sample_supermatrix(spec, rng, shape_bases=None):
    """A random member: each entry is a small-integer combination of its
    constraint basis.  Deterministic given the rng state."""
    if shape_bases is None:
        shape_bases = shape(spec)
    ring = spec.ring
    rows = []
    for i in range(spec.n):
        row = []
        for j in range(spec.n):
            basis = shape_bases[i][j].basis
            acc = ring.zero
            for b in basis:
                c = rng.randrange(-3, 4)
                if c:
                    acc = acc + b * c
            row.append(acc)
        rows.append(row)
    A = Matrix(ring, rows)
    if not is_supermatrix(spec, A):
        raise SuperMatrixError("sampler produced a non-member (solver bug)")
    return A


def closure_check(spec, A, B, scalars=(1,)):
    """Membership of A+B, AB, and c*A for base-subring constants c."""
    if not (is_supermatrix(spec, A) and is_supermatrix(spec, B)):
        return False
    if not is_supermatrix(spec, A + B):
        return False
    if not is_supermatrix(spec, A * B):
        return False
    for c in scalars:
        if not is_supermatrix(spec, c * A):
            return False
    return True


# --------------------------------------------------------------------------
# The embedding of R into M_n(R, delta, T)
# --------------------------------------------------------------------------

def embed(spec, r):
    """The map r -> (1/n)[x_ij(r)], x_ij(r) = sum_k t_ji^k delta^k(r), from
    the powers delta^0(r) .. delta^(n-1)(r) computed once.  x_ij depends
    on t_ji alone, so each distinct entry of T is summed once."""
    ring, n = spec.ring, spec.n
    d = [r]
    for _ in range(n - 1):
        d.append(spec.delta(d[-1]))
    inv_n = ring.from_scalar(Fraction(1, n))

    @cache
    def x(t):
        t_pows = accumulate([t] * (n - 1), mul, initial=ring.one)
        return sum((p * dk for p, dk in zip(t_pows, d)), ring.zero) * inv_n

    return Matrix(ring, [[x(spec.T.entry(j, i)) for j in range(1, n + 1)]
                         for i in range(1, n + 1)])


class EmbeddingConditionsReport:
    """Exact verdicts for the hypotheses of the three embedding regimes, one
    attribute per keyword that ``check_embedding_conditions`` passes, and
    ``notes``.  ``one_minus_t_nonzero_divisor`` is None when the context
    cannot decide."""

    def __init__(self, notes=None, **verdicts):
        vars(self).update(verdicts)
        self.notes = [] if notes is None else notes

    @property
    def regime_scalar(self):
        return (self.t_power_n_is_one
                and self.one_minus_t_nonzero_divisor is True)

    @property
    def regime_ring_embedding(self):
        return self.power_sums_vanish and self.inverse_power_sums_vanish

    @property
    def regime_supermatrix_embedding(self):
        return (self.t_in_fixed_ring and self.t_power_n_is_one
                and self.delta_order_n)

    def as_dict(self):
        return {**vars(self), "regimes": {
            "scalar": self.regime_scalar,
            "ring_embedding": self.regime_ring_embedding,
            "supermatrix_embedding": self.regime_supermatrix_embedding,
        }}


def check_embedding_conditions(spec):
    ring = spec.ring
    n = spec.n
    one = ring.one
    col = [spec.T.entry(i, 1) for i in range(1, n + 1)]
    inverses = list(spec.T.matrix.rows[0])     # t_i1^{-1} = t_1i
    notes = []

    def powers(x):
        """[x^0, x^1, ..., x^n]"""
        return list(accumulate([x] * n, mul, initial=one))

    col_pows = [powers(t) for t in col]
    t_pow_n = all(p[n] == one for p in col_pows)

    # 1 - t_ij non-zero-divisor: decidable for Grassmann contexts (nonzero
    # scalar part <=> unit <=> non-zero-divisor, else nilpotent); for other
    # contexts an invertibility witness decides, otherwise report unverified
    nz = True
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j or nz is None:
                continue
            diff = one - spec.T.entry(i, j)
            if ring.try_invert(diff) is not None:
                continue
            if isinstance(ring, GrassmannAlgebra):
                nz = False
            else:
                nz = None
                notes.append("non-zero-divisor check unverified in this context")

    def sums_vanish(pows):
        return all(sum((p[k] for p in pows), ring.zero) == ring.zero
                   for k in range(1, n))

    sums_ok = sums_vanish(col_pows)
    inv_sums_ok = sums_vanish([powers(inv) for inv in inverses])

    t_fixed = all(fixed_ring_member(spec.delta, t) for t in col)
    delta_ord = spec.delta.power_is_identity(n)

    # Remark: with equal n-th powers of the first column, the positive power
    # sum condition makes the inverse one redundant; assert the implication.
    equal_pows = all(p[n] == col_pows[0][n] for p in col_pows)
    redundant = False
    if equal_pows and sums_ok:
        redundant = True
        if not inv_sums_ok:
            raise SuperMatrixError(
                "redundancy implication violated: positive power sums vanish, "
                "n-th powers coincide, but inverse power sums do not vanish")

    return EmbeddingConditionsReport(
        # TransitiveMatrix makes every entry a unit (t_ij t_ji = t_ii = 1),
        # and SuperAlgebraSpec makes every entry central
        first_column_central_units=True,
        has_inverse_of_n=True,  # scalar field has characteristic zero
        t_power_n_is_one=t_pow_n,
        one_minus_t_nonzero_divisor=nz,
        power_sums_vanish=sums_ok,
        inverse_power_sums_vanish=inv_sums_ok,
        t_in_fixed_ring=t_fixed,
        delta_order_n=delta_ord,
        inverse_sum_condition_redundant=redundant,
        notes=notes,
    )


class EmbeddingVerdict:
    def __init__(self, ok, failures):
        self.ok = ok
        self.failures = failures

    def __bool__(self):
        return self.ok


def verify_embedding(spec, pairs):
    """Check additivity, multiplicativity, the injectivity witness
    sum_i x_1i(r) = n r (the first row of embed(r) sums to r), and, in the
    supermatrix regime, image membership, on the supplied element pairs."""
    report = check_embedding_conditions(spec)
    check_membership = report.regime_supermatrix_embedding
    failures = []
    for r, s in pairs:
        er, es = embed(spec, r), embed(spec, s)
        if embed(spec, r + s) != er + es:
            failures.append(("additivity", r, s))
        if embed(spec, r * s) != er * es:
            failures.append(("multiplicativity", r, s))
        if sum(er.rows[0], spec.ring.zero) != r:
            failures.append(("injectivity_witness", r, None))
        if check_membership and not is_supermatrix(spec, er):
            failures.append(("image_membership", r, None))
    return EmbeddingVerdict(not failures, failures)


# --------------------------------------------------------------------------
# Transitive matrices with scalar entries, and the worked examples
# --------------------------------------------------------------------------

def p_matrix(ring, u, n=2):
    """P^(u) of size n over ``ring``: entries u^{i-j} embedded as scalars,
    from the 2n - 1 powers u^(1-n) .. u^(n-1), one element per power."""
    u = ring.coerce_scalar(u)
    if n > 1 and not u:
        raise MatrixError("P^(u) needs a unit u")
    powers = [ring.from_scalar(u ** k) for k in range(1 - n, n)]
    # row i (0-based) is u^i, u^(i-1), .., u^(i-n+1)
    return TransitiveMatrix(Matrix(ring, [powers[i:i + n][::-1]
                                          for i in range(n)]))


def root_embedding(r, delta, n):
    """embed(r) in M_n(R, delta, P^(e)) for e a primitive n-th root of unity.
    A delta with delta^n != id gives no embedding and is refused before any
    work.  Each entry is a sum of n products; ``primitive_root`` caps n at
    ``scalars.MAX_ORDER``."""
    ring = r.ring
    e = ring.field.primitive_root(n)
    if not delta.power_is_identity(n):
        raise SuperMatrixError(f"{delta.name}^{n} is not the identity, so "
                               f"there is no embedding at n = {n}")
    return embed(SuperAlgebraSpec(ring, delta, p_matrix(ring, e, n=n)), r)


def example_5_1(n, d, g, field=None):
    """M_{n,d}(E) = M_n(E, epsilon, P(d, n))."""
    if not 1 <= d < n:
        raise SuperMatrixError("need 1 <= d < n")
    algebra = GrassmannAlgebra(g, field or CyclotomicField(1))
    P = p_matrix(algebra, algebra.field.from_fraction(-1), n=2)
    T = blow_up(P, (d, n))
    return SuperAlgebraSpec(algebra, epsilon(algebra, validate=False), T)


def example_5_2(n, g, field=None):
    """M_n(E, rho_e, P^(e)) for a primitive n-th root of unity e."""
    if field is None:
        field = CyclotomicField(n)
    e = field.primitive_root(n)
    algebra = GrassmannAlgebra(g, field)
    T = p_matrix(algebra, e, n=n)
    return SuperAlgebraSpec(algebra, rho(algebra, e, validate=False), T)


def example_5_3(n, d, g, field=None):
    """M_n(E, sigma, Q(d, n)) with Q = [[1, 1+v1v2], [1-v1v2, 1]]."""
    if g < 2:
        raise SuperMatrixError("example 5.3 needs at least two generators")
    if not 1 <= d < n:
        raise SuperMatrixError("need 1 <= d < n")
    algebra = GrassmannAlgebra(g, field or CyclotomicField(1))
    v1v2 = algebra.generator(1) * algebra.generator(2)
    one = algebra.one
    Q = TransitiveMatrix(Matrix(algebra, [[one, one + v1v2],
                                          [one - v1v2, one]]))
    T = blow_up(Q, (d, n))
    return SuperAlgebraSpec(algebra, sigma(algebra, validate=False), T)


def example_algebra(name, *, n, g, d=None, field=None):
    """Dispatch on the example label; returns (spec, shape grid)."""
    if name == "5.1":
        spec = example_5_1(n, d if d is not None else 1, g, field)
    elif name == "5.2":
        spec = example_5_2(n, g, field)
    elif name == "5.3":
        spec = example_5_3(n, d if d is not None else 1, g, field)
    else:
        raise SuperMatrixError(f"unknown example {name!r}")
    return spec, shape(spec)
