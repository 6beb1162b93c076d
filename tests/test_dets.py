"""Symmetric determinant, adjoint sequences, characteristic polynomials,
Cayley-Hamilton, and integrality certificates."""

import gc
import random
from itertools import combinations, permutations

import pytest

from lienil import dets
from lienil import (CostCapError, CyclotomicField, GrassmannAlgebra,
                    GrassmannElement, Matrix, OracleRing, PolynomialRing, QQ,
                    RingError, adjoint_sequence, cayley_hamilton_check,
                    charpoly, classical_adj, classical_det, epsilon,
                    integrality_certificate, ldet, leading_coefficient_value,
                    preadjoint, preadjoint_via_minors, rdet, sdet,
                    sdet_first_form)
from lienil.parallel import map_reduce_sum
from lienil.supermatrix import example_5_1, sample_supermatrix, shape


def symbolic_matrix(n):
    names = [f"a{i}{j}" for i in range(1, n + 1) for j in range(1, n + 1)]
    R = OracleRing(names)
    A = Matrix(R, [[R.var(f"a{i}{j}") for j in range(1, n + 1)]
                   for i in range(1, n + 1)])
    return R, A


def grassmann_matrix(g, n, seed):
    E = GrassmannAlgebra(g, QQ)
    rng = random.Random(seed)
    return E, Matrix(E, [[E.random_element(rng) for _ in range(n)]
                         for _ in range(n)])


def test_sdet_2x2_formula():
    """sdet [[a,b],[c,d]] = ad + da - bc - cb."""
    E, A = grassmann_matrix(4, 2, 1)
    a, b = A.rows[0]
    c, d = A.rows[1]
    assert sdet(A) == a * d + d * a - b * c - c * b


def test_sdet_first_form_agrees():
    for seed in range(5):
        _, A = grassmann_matrix(4, 3, seed)
        assert sdet(A) == sdet_first_form(A)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sdet_is_nfact_det_commutative(n):
    R, A = symbolic_matrix(n)
    nfact = 1
    for i in range(2, n + 1):
        nfact *= i
    assert sdet(A) == classical_det(A) * nfact


@pytest.mark.parametrize("n", [2, 3])
def test_preadjoint_is_scaled_adjugate_commutative(n):
    R, A = symbolic_matrix(n)
    nm1fact = 1
    for i in range(2, n):
        nm1fact *= i
    assert preadjoint(A) == nm1fact * classical_adj(A)


def test_preadjoint_minor_identity():
    for seed in range(5):
        _, A = grassmann_matrix(5, 3, seed)
        assert preadjoint(A) == preadjoint_via_minors(A)


def sparse_matrix(E, n, seed, density=0.4):
    """A unit diagonal (a scalar plus a monomial); each off-diagonal entry
    is one monomial with probability density, else zero.  Coefficients are
    small integers times powers of the field's root of unity."""
    rng = random.Random(seed)
    e = E.field.primitive_root(E.field.order)

    def coeff():
        return e ** rng.randrange(3) * rng.choice((-2, -1, 1, 2))

    def entry(i, j):
        if i == j:
            return E.element({rng.randrange(1, E.dim): coeff(), 0: coeff()})
        if rng.random() < density:
            return E.element({rng.randrange(E.dim): coeff()})
        return E.zero

    return Matrix(E, [[entry(i, j) for j in range(n)] for i in range(n)])


def zero_pattern_cases():
    """Matrices whose zeros the permutation sums skip, named by their ids."""
    E = GrassmannAlgebra(4, QQ)
    _, A = grassmann_matrix(4, 4, 21)
    rows = [list(row) for row in A.rows]
    zero_row = [row[:] for row in rows]
    zero_row[2] = [E.zero] * 4
    zero_col = [[E.zero if j == 1 else x for j, x in enumerate(row)]
                for row in rows]
    perm = (2, 0, 3, 1)
    pattern = [[rows[i][j] + 1 if j == perm[i] else E.zero for j in range(4)]
               for i in range(4)]
    cases = [pytest.param(Matrix(E, zero_row), id="zero_row"),
             pytest.param(Matrix(E, zero_col), id="zero_column"),
             pytest.param(Matrix(E, [[E.zero] * 3 for _ in range(3)]),
                          id="zero_matrix"),
             pytest.param(Matrix(E, pattern), id="permutation_pattern"),
             pytest.param(Matrix(E, [[rows[0][0]]]), id="n1"),
             pytest.param(Matrix(E, [[E.zero]]), id="n1_zero")]
    for order in (1, 3):
        E = GrassmannAlgebra(4, CyclotomicField(order))
        for n in (3, 4):
            cases.append(pytest.param(sparse_matrix(E, n, 100 * order + n),
                                      id=f"sparse_n{n}_zeta{order}"))
    return cases


@pytest.mark.parametrize("A", zero_pattern_cases())
def test_zero_skip_matches_oracles(A):
    assert sdet(A) == sdet_first_form(A)
    assert preadjoint(A) == preadjoint_via_minors(A)


def test_zero_skip_commutative():
    """With zero entries over the oracle ring, sdet = n! det and
    A* = (n-1)! adj still hold."""
    for n, zeros in ((3, ((0, 1), (2, 2))),
                     (4, ((0, 0), (1, 3), (3, 1), (2, 0)))):
        R, A = symbolic_matrix(n)
        rows = [list(row) for row in A.rows]
        for i, j in zeros:
            rows[i][j] = R.zero
        A = Matrix(R, rows)
        nfact = 1
        for i in range(2, n + 1):
            nfact *= i
        assert sdet(A) == classical_det(A) * nfact
        assert preadjoint(A) == nfact // n * classical_adj(A)


def first_form_cases():
    """Seeded sparse n x n matrices, n = 3..5, over E (g = 4) with Q and
    Q(zeta3) coefficients, named by their ids."""
    return [pytest.param(
        sparse_matrix(GrassmannAlgebra(4, CyclotomicField(order)), n,
                      700 + 10 * n + seed),
        id=f"n{n}_zeta{order}_{seed}")
        for order in (1, 3) for n in (3, 4, 5) for seed in range(2)]


@pytest.mark.parametrize("A", first_form_cases())
def test_sdet_first_form_matches_sdet_on_sparse_matrices(A):
    assert sdet_first_form(A) == sdet(A)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sdet_first_form_is_nfact_det_commutative(n):
    """Over the oracle ring, with and without zero entries."""
    R, A = symbolic_matrix(n)
    nfact = leading_coefficient_value(n, 1)
    assert sdet_first_form(A) == classical_det(A) * nfact
    rows = [list(row) for row in A.rows]
    rows[0][n - 1] = rows[n - 1][0] = R.zero
    A = Matrix(R, rows)
    assert sdet_first_form(A) == classical_det(A) * nfact


def test_preadjoint_via_minors_does_not_run_pair_sums(monkeypatch):
    """The independent route builds each minor's sdet by sdet_first_form,
    so it still gives A* when ``_pair_sums`` is broken."""
    cases = [grassmann_matrix(5, n, seed)[1] for n, seed in ((2, 1), (3, 2),
                                                             (4, 3))]
    expected = [preadjoint(A) for A in cases]

    def broken(*args):
        raise AssertionError("_pair_sums ran")

    monkeypatch.setattr(dets, "_pair_sums", broken)
    for A, P in zip(cases, expected):
        assert preadjoint_via_minors(A) == P


def count_multiplies(monkeypatch, fn, A):
    """fn(A) and the number of Grassmann ring multiplies it made: one per
    ``GrassmannElement.__mul__`` call and one per term of a
    ``GrassmannAlgebra.dot`` sum (matrix products, traces, joins, R[z]
    products), whatever its operands, as a ``__mul__`` call counts."""
    calls = []
    mul, dot = GrassmannElement.__mul__, GrassmannAlgebra.dot

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    def counted_dot(ring, terms):
        terms = list(terms)
        calls.extend(1 for _ in terms)
        return dot(ring, terms)

    monkeypatch.setattr(GrassmannElement, "__mul__", counted)
    monkeypatch.setattr(GrassmannAlgebra, "dot", counted_dot)
    value = fn(A)
    monkeypatch.undo()
    return value, len(calls)


def test_sdet_first_form_skips_a_pi_with_a_zero_factor(monkeypatch):
    """On a 4x4 diagonal matrix of units only pi = id meets no zero
    entry: its 24 orders tau take 3 multiplies each (2304 multiplies when
    every (tau, pi) pair was multiplied out)."""
    E, A = grassmann_matrix(4, 4, 5)
    D = Matrix(E, [[A.rows[i][j] + 1 if i == j else E.zero
                    for j in range(4)] for i in range(4)])
    value, calls = count_multiplies(monkeypatch, sdet_first_form, D)
    assert calls == 72
    assert value == sdet(D)


def test_zero_skip_multiplies_only_nonzero_terms(monkeypatch):
    """On a 4x4 diagonal matrix of units only the 24 pairs alpha = beta
    meet no zero entry (2304 multiplies without the skip).  A subset sum
    S(R, C) on 2 rows (see ``dets._subset_sum``) is nonzero only when
    R = C, and then takes 2 multiplies, a_vv a_ww and a_ww a_vv; on R != C
    each of its terms meets a zero entry.  sdet (h = k = 2) reads the 36
    sums on 2 rows as tails, 6 of them diagonal: 12.  It joins a head only
    to the 6 nonzero tails, and each head R' = C' is diagonal and already
    kept: 12 + 6 = 18.  The preadjoint (h = 2, k = 1) reads the same 6
    diagonal sums as heads, kept for the call: 12.  A diagonal entry (s, s)
    joins its 3 diagonal heads with a diagonal entry, 3 joins each: 12.  An
    off-diagonal entry (r, s) has one diagonal head, on the rows other than
    r and s, with the tail a_rs = 0: no join.  12 + 12 = 24."""
    E = GrassmannAlgebra(4, QQ)
    A = Matrix(E, [[E.element({0: i + 2, 1 << i: 1}) if i == j else E.zero
                    for j in range(4)] for i in range(4)])
    value, calls = count_multiplies(monkeypatch, sdet, A)
    assert calls == 18
    adj, calls = count_multiplies(monkeypatch, preadjoint, A)
    assert calls == 24
    assert value == sdet_first_form(A) and adj == preadjoint_via_minors(A)


@pytest.mark.parametrize("fn, n, expected", [
    (sdet, 3, 45), (sdet, 4, 174), (sdet, 5, 1355),
    (preadjoint, 3, 36), (preadjoint, 4, 276), (preadjoint, 5, 1264)])
def test_dense_multiplies_halves_once(monkeypatch, fn, n, expected):
    """No entry is zero (every entry is a unit).  A sum over m positions
    joins a head on the first h = m - m // 2 rows with a tail on the other
    m // 2, one multiply per nonzero (head, tail) pair.  Heads and tails are
    subset sums S(R, C) (see ``dets._subset_sum``): on t >= 2 rows, t^2
    terms S(R - v, C - w) a_vw, one multiply each unless S(R - v, C - w)
    is zero.  A tail on 2 rows is read before its head.  Over g = 2
    some sums are zero (rows R, columns C, counted from 0):
    - n = 4: ({2, 3}, {0, 1}), ({2, 3}, {0, 2}) and ({2, 3}, {1, 2}) on two
      rows;
    - n = 5: ({0, 4}, {0, 1}) and ({1, 2}, {0, 1}) on two rows, and seven
      on three rows, six of them with the columns {0, 1, 3}.

    - sdet, n = 3: 9 sums on 2 rows of 4 terms + 9 joins = 45.
    - sdet, n = 4: 36 x 4 + 36 joins = 180.  Each zero 2x2 sum is the head
      of one join and the tail of another: 180 - 3 x 2 = 174.
    - sdet, n = 5: 100 x 4 on 2 rows + 100 x 9 on 3 rows + 100 joins =
      400 + 900 + 100 = 1400.  Every 2x2 sum is a tail.  The two zero ones
      skip their heads ({1, 2, 3}, {2, 3, 4}) and ({0, 3, 4}, {2, 3, 4})
      (2 x 9) and their joins (2).  A zero 2x2 sum is a term of the 9 heads
      on 3 rows that hold it, none of them skipped (2 x 9), and the seven
      zero 3x3 heads join nothing (7): 1400 - 18 - 2 - 18 - 7 = 1355.
    - preadjoint, n = 3: 9 entries of 4 joins, each an entry times an
      entry: 36.
    - preadjoint, n = 4: 36 x 4 + 16 entries of 9 joins = 288.  A zero
      2x2 sum is a head in the 4 entries whose rows and columns hold it:
      288 - 3 x 4 = 276.
    - preadjoint, n = 5: 100 x 4 + 25 entries of 36 joins = 1300.  A zero
      2x2 sum lies in 9 entries, as a head and as a tail in each:
      1300 - 2 x 18 = 1264."""
    E = GrassmannAlgebra(2, QQ)
    rng = random.Random(n)
    units = [[E.element({0: rng.choice((1, 2, 3)), rng.randrange(1, 4): 1})
              for _ in range(n)] for _ in range(n)]
    A = Matrix(E, units)
    _, calls = count_multiplies(monkeypatch, fn, A)
    assert calls == expected


def test_zero_tail_builds_no_head(monkeypatch):
    """A 5x5 matrix of units with a_33 = a_43 = 0.  Its zero 2x2 sums are
    the four tails S({3, 4}, {3, w}), w = 0, 1, 2, 4, so the 5x5 sdet never
    builds their heads S({0, 1, 2}, {0, 1, 2, 4} - {w}) (4 x 9 multiplies).
    - Sums on 2 rows, all 100 read as tails, 4 multiplies each less 2 per
      diagonal with a zero entry: the 4 on the rows {3, 4} with a column 3
      lose 4 each, and the 12 each on the rows {3, x} and {4, x}, x < 3,
      with a column 3 lose 2 each: 400 - 16 - 24 - 24 = 336.
    - Heads on 3 rows, 9 multiplies each less one per zero entry or zero
      sum on 2 rows: 18 heads on {3, x, x'} and 18 on {4, x, x'} with a
      column 3 lose one each, and the 18 on {3, 4, x} with a column 3 lose
      four each (two zero entries, two zero tails):
      900 - 36 - 18 - 18 - 72 = 756.
    - Joins: 100 less the 4 zero tails, 96.
    336 + 756 + 96 = 1188, where reading each head first builds 1224."""
    E = GrassmannAlgebra(4, QQ)
    rng = random.Random(1)
    rows = [[E.element({0: rng.choice((1, 2, 3)), rng.randrange(1, 16): 1})
             for _ in range(5)] for _ in range(5)]
    rows[3][3] = rows[4][3] = E.zero
    A = Matrix(E, rows)
    zero = {(t, R, C) for t in (2, 3) for R in combinations(range(5), t)
            for C in combinations(range(5), t)
            if not sdet_first_form(Matrix(E, [[rows[i][j] for j in C]
                                              for i in R]))}
    assert zero == {(2, (3, 4), (w, 3) if w < 3 else (3, w))
                    for w in (0, 1, 2, 4)}
    value, calls = count_multiplies(monkeypatch, sdet, A)
    assert calls == 1188
    assert value == sdet_first_form(A)


def restricted_pair_sum(A, r, s):
    """The paper's preadjoint entry (r, s), term by term: the sum over
    alpha, beta in S_n with alpha(s) = s and beta(s) = r of
    sgn(alpha) sgn(beta) times a_{alpha(t),beta(t)} over the positions
    t != s, multiplied in order; a term with a zero factor is left out."""
    n, ring = A.nrows, A.ring

    def sign(perm):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        return -1 if inversions % 2 else 1

    acc = ring.zero
    for alpha in permutations(range(n)):
        if alpha[s] != s:
            continue
        for beta in permutations(range(n)):
            if beta[s] != r:
                continue
            factors = [A.rows[alpha[t]][beta[t]] for t in range(n) if t != s]
            if not all(factors):
                continue
            prod = ring.one
            for x in factors:
                prod = prod * x
            acc = acc + (prod if sign(alpha) * sign(beta) > 0 else -prod)
    return acc


def sparse_cases():
    """n x n matrices, n = 1..5, over four rings, named by their ids.  The
    diagonal is nonzero and an entry off it is zero with probability 1/3.
    Off the diagonal, the rows {0, 1} are zero on the last two columns, so
    from n = 3 the 2x2 sum there and every 3x3 sum holding it are zero.
    The ``zero_row`` matrices also have a zero last row.  A Grassmann entry
    is a scalar plus odd monomials, so entries do not commute, and an R[z]
    entry has degree at most 1."""
    E = GrassmannAlgebra(4, QQ)
    zeta3 = GrassmannAlgebra(4, CyclotomicField(3))
    odd = [m for m in range(E.dim) if m.bit_count() % 2]
    cases = []
    for n in range(1, 6):
        oracle = OracleRing([f"a{i}{j}" for i in range(n) for j in range(n)])
        rz = PolynomialRing(GrassmannAlgebra(2, QQ))
        for zero_row in (False, True):
            rng = random.Random(10 * n + zero_row)

            def zero(i, j):
                if zero_row and i == n - 1:
                    return True
                return i != j and (i < 2 and j >= n - 2
                                   or rng.random() < 1 / 3)

            def grassmann(R):
                e = R.field.primitive_root(R.field.order)
                return R.element({0: rng.choice((1, -2)),
                                  rng.choice(odd): e ** rng.randrange(3),
                                  rng.choice(odd): rng.choice((-1, 3))})

            entries = {
                "grassmann_q": (E, lambda i, j: grassmann(E)),
                "grassmann_zeta3": (zeta3, lambda i, j: grassmann(zeta3)),
                "oracle": (oracle, lambda i, j: oracle.var(f"a{i}{j}")),
                "rz": (rz, lambda i, j: rz.element(
                    [rz.base.random_unit(rng), rz.base.random_element(rng)]))}
            for name, (ring, entry) in entries.items():
                rows = [[ring.zero if zero(i, j) else entry(i, j)
                         for j in range(n)] for i in range(n)]
                cases.append(pytest.param(
                    Matrix(ring, rows),
                    id=f"{name}_n{n}" + ("_zero_row" if zero_row else "")))
    return cases


def restricted_sum_cases():
    """4x4 matrices over three rings and the ``sparse_cases``, named by
    their ids.  The Grassmann entries carry odd monomials, so they do not
    commute."""
    E = GrassmannAlgebra(4, QQ)
    rng = random.Random(404)
    odd = [m for m in range(E.dim) if m.bit_count() % 2]

    def entry():
        return E.element({0: rng.choice((-2, -1, 1, 2)),
                          rng.choice(odd): rng.choice((-1, 1)),
                          rng.choice(odd): rng.choice((-3, 3))})

    noncommuting = Matrix(E, [[entry() for _ in range(4)] for _ in range(4)])
    a, b = noncommuting.rows[0][:2]
    assert a * b != b * a
    zeta3 = GrassmannAlgebra(4, CyclotomicField(3))
    _, C = grassmann_matrix(3, 4, 45)
    rz = PolynomialRing(C.ring)
    B = Matrix.identity(rz, 4) * rz.z - C.map_entries(rz.constant, ring=rz)
    return [pytest.param(noncommuting, id="grassmann_odd"),
            pytest.param(sparse_matrix(zeta3, 4, 304), id="sparse_zeta3"),
            pytest.param(B, id="rz")] + sparse_cases()


@pytest.mark.parametrize("A", restricted_sum_cases())
def test_preadjoint_matches_restricted_pair_sum(A):
    """Every entry (r, s) of A*, r + s odd included, against the paper's
    restricted double sum written out from itertools.permutations, and
    sdet against its first form: neither route shares code with the subset
    sums."""
    n = A.nrows
    adj = preadjoint(A)
    for r in range(n):
        for s in range(n):
            assert adj.rows[r][s] == restricted_pair_sum(A, r, s)
    assert sdet(A) == sdet_first_form(A)


def split_cases():
    """n = 5 matrices for the half products, named by their ids."""
    _, dense = grassmann_matrix(3, 5, 55)
    E = GrassmannAlgebra(4, CyclotomicField(3))
    return [pytest.param(dense, id="dense_g3"),
            pytest.param(sparse_matrix(E, 5, 305), id="sparse_zeta3")]


@pytest.mark.parametrize("A", split_cases())
def test_half_products_match_oracles_n5(A):
    """``preadjoint_via_minors`` runs the same sums as ``preadjoint``, so
    every entry is also checked against (-1)^(r+s) times the first form of
    its minor, which shares no code with them."""
    assert sdet(A) == sdet_first_form(A)
    adj = preadjoint(A)
    assert adj == preadjoint_via_minors(A)
    for r in range(1, 6):
        for s in range(1, 6):
            minor = sdet_first_form(A.minor(s, r))
            assert adj.rows[r - 1][s - 1] == minor * (-1) ** (r + s)


def test_half_products_match_oracles_over_rz():
    """The entries of z I - A lie in R[z], where charpoly sums."""
    E, A = grassmann_matrix(3, 4, 44)
    rz = PolynomialRing(E)
    B = (Matrix.identity(rz, 4) * rz.z
         - A.map_entries(rz.constant, ring=rz))
    assert sdet(B) == sdet_first_form(B)
    assert preadjoint(B) == preadjoint_via_minors(B)


@pytest.mark.parametrize("ring", ["grassmann", "oracle"])
def test_sums_leave_no_reference_cycle(ring):
    """The table and the sums of a call are freed when it returns, and
    charpoly reuses ring.polynomials, so a call builds no new R[z] and
    leaves no cycle behind: the cyclic collector finds nothing after sdet,
    preadjoint, rdet, charpoly, the Cayley-Hamilton residual or an
    integrality certificate (the last two over E only: over the 4x4
    symbolic matrix the residual at k = 2 runs for minutes)."""
    calls = [sdet, preadjoint, lambda A: rdet(A, 2), lambda A: charpoly(A, 1)]
    if ring == "grassmann":
        E, A = grassmann_matrix(4, 4, 46)
        r, delta = E.random_element(random.Random(47)), epsilon(E)
        calls += [lambda A: cayley_hamilton_check(A, 2),
                  lambda A: integrality_certificate(r, delta, 2, 2)]
    else:
        _, A = symbolic_matrix(4)
    gc.collect()
    for fn in calls:
        fn(A)
        assert gc.collect() == 0


def test_charpoly_shares_one_r_z_per_ring(monkeypatch):
    """R[z] is built once per base ring, on first use, and every later
    charpoly over that ring reads the same one.  The algebra is shared
    while anything holds it, so one that an earlier test built may still
    hold its R[z]: the test drops that one first."""
    built = []
    init = PolynomialRing.__init__

    def counted(self, base):
        built.append(base)
        init(self, base)

    monkeypatch.setattr(PolynomialRing, "__init__", counted)
    E, A = grassmann_matrix(3, 3, 61)
    vars(E).pop("polynomials", None)
    charpoly(A, 1)
    rz = E.polynomials
    charpoly(A, 1, side="left")
    charpoly(A * A, 2)
    assert E.polynomials is rz and built == [E]
    assert rz.z.ring is rz and rz.zero == 0 and rz.one == 1


def test_map_reduce_sum_adds_nonzero_terms_in_order():
    added = []

    class Acc:
        def __add__(self, other):
            added.append(other)
            return self

    map_reduce_sum([3, 0, 1, 0, 0, 2], lambda x: x, Acc())
    assert added == [3, 1, 2]


def test_trace_symmetry():
    """tr(A A*) = tr(A* A) = sdet(A)."""
    for seed in range(5):
        _, A = grassmann_matrix(4, 3, seed)
        P1 = preadjoint(A)
        assert (A * P1).trace() == sdet(A)
        assert (P1 * A).trace() == sdet(A)


def test_rdet_recursion():
    """rdet_(k+1)(A) = tr of the next product; sequences are consistent."""
    _, A = grassmann_matrix(4, 2, 7)
    seq = adjoint_sequence(A, 3)
    for k in (1, 2, 3):
        assert rdet(A, k) == seq.products[k - 1].trace()
    lseq = adjoint_sequence(A, 2, "left")
    for k in (1, 2):
        assert ldet(A, k) == lseq.products[k - 1].trace()
    with pytest.raises(RingError):
        adjoint_sequence(A, 1, "middle")
    assert rdet(A, 1) == sdet(A) and ldet(A, 1) == sdet(A)


def chain_cases():
    """Square matrices over a Grassmann ring, over R[z] (z I - A) and over
    the oracle ring, named by their ids."""
    _, A = grassmann_matrix(4, 3, 5)
    E, C = grassmann_matrix(3, 2, 8)
    rz = PolynomialRing(E)
    B = Matrix.identity(rz, 2) * rz.z - C.map_entries(rz.constant, ring=rz)
    _, S = symbolic_matrix(2)
    return [pytest.param(A, id="grassmann"), pytest.param(B, id="rz"),
            pytest.param(S, id="oracle")]


@pytest.mark.parametrize("A", chain_cases())
@pytest.mark.parametrize("k", [1, 2, 3])
def test_traced_chain_end_matches_sequence(A, k):
    """rdet and ldet trace the last product from its two factors; the
    sequence builds it.  Both give the same trace."""
    for fn, side in ((rdet, "right"), (ldet, "left")):
        seq = adjoint_sequence(A, k, side)
        assert len(seq.adjoints) == len(seq.products) == k
        assert fn(A, k) == seq.products[-1].trace()


def test_chain_multiplies(monkeypatch):
    """Grassmann multiplies of rdet(A, 2) and charpoly(A, 1) on a dense
    3x3 matrix, whose last product is traced, not built.

    rdet(A, 2): a 3x3 preadjoint entry is a sum over 2 x 2 pairs, each one
    product of two entries, so a preadjoint without zero entries takes 36.
    P_1 = A* (36), A P_1 in full (27), P_2 = (A P_1)* (36), and the trace of
    A P_1 P_2, sum_i sum_j (A P_1)_ij (P_2)_ji (9): 108, where building the
    last product takes 27 (126).

    charpoly(A, 1) sums over R[z], where a product of two polynomials makes
    one Grassmann multiply per pair of nonzero coefficients.  z I takes 3
    (1 times z on the diagonal).  The entries of B = z I - A have 2 nonzero
    coefficients on the diagonal and 1 off it.  In a diagonal entry of B*
    two pairs multiply two diagonal entries (4 each) and two multiply two
    off-diagonal ones (1 each): 10, 30 for three.  In an off-diagonal one
    two pairs meet one diagonal entry (2 each) and two meet none (1 each):
    6, 36 for six.  B* has degree 2 with 3 nonzero coefficients on the
    diagonal and degree 1 with 2 off it, so tr(B B*) takes 3 (2 * 3) + 6
    (1 * 2) = 30: 3 + 66 + 30 = 99.  Building B B* would take
    sum_j (2 + 1 + 1)(3 + 2 + 2) = 84 (156 in all, where the zero
    coefficient of z also made a multiply)."""
    _, A = grassmann_matrix(4, 3, 17)
    assert all(x for row in A.rows for x in row)
    assert all(x for row in (A * preadjoint(A)).rows for x in row)
    _, calls = count_multiplies(monkeypatch, lambda A: rdet(A, 2), A)
    assert calls == 108
    rz = PolynomialRing(A.ring)
    B = Matrix.identity(rz, 3) * rz.z - A.map_entries(rz.constant, ring=rz)
    adj = preadjoint(B)
    assert all(all(adj.rows[i][j].coeffs) and
               len(adj.rows[i][j].coeffs) == (3 if i == j else 2)
               for i in range(3) for j in range(3))
    _, calls = count_multiplies(monkeypatch, lambda A: charpoly(A, 1), A)
    assert calls == 99


def test_leading_coefficient_closed_form():
    assert leading_coefficient_value(2, 1) == 2
    assert leading_coefficient_value(2, 2) == 2      # 2 * 1^(1+2)
    assert leading_coefficient_value(3, 1) == 3 * 2
    assert leading_coefficient_value(3, 2) == 3 * 2 ** 4
    assert leading_coefficient_value(4, 1) == 4 * 6


def test_charpoly_2x2_k1():
    """p_{A,1}(z) = 2 z^2 - (a+d) z - z (a+d) + (ad + da - bc - cb),
    i.e. coefficients (sdet, -2(a+d), 2)."""
    E, A = grassmann_matrix(4, 2, 3)
    a, d = A.rows[0][0], A.rows[1][1]
    p = charpoly(A, 1)
    assert p.degree == 2
    assert p.coeffs[2] == E.from_scalar(2)
    assert p.coeffs[1] == (a + d) * -2
    assert p.coeffs[0] == sdet(A)


def test_charpoly_sides_differ_in_general():
    _, A = grassmann_matrix(4, 2, 3)
    pr = charpoly(A, 1, side="right")
    pl = charpoly(A, 1, side="left")
    # same leading coefficient, but the lower coefficients may differ
    assert pr.coeffs[-1] == pl.coeffs[-1]
    assert pr.degree == pl.degree == 2


def test_cayley_hamilton_right_k2():
    spec = example_5_1(2, 1, 4)
    bases = shape(spec)
    rng = random.Random(13)
    for _ in range(5):
        A = sample_supermatrix(spec, rng, bases)
        res = cayley_hamilton_check(A, 2)
        assert not any(e for row in res.rows for e in row)


def test_cayley_hamilton_k1_commutative():
    """Over a commutative ring index k = 1 already suffices."""
    E = GrassmannAlgebra(0, QQ)
    A = Matrix(E, [[E.from_scalar(1), E.from_scalar(2)],
                   [E.from_scalar(-1), E.from_scalar(3)]])
    res = cayley_hamilton_check(A, 1)
    assert not any(e for row in res.rows for e in row)


def test_integrality_certificate():
    E = GrassmannAlgebra(4, QQ)
    eps = epsilon(E, validate=False)
    rng = random.Random(14)
    for _ in range(3):
        r = E.random_element(rng)
        cert = integrality_certificate(r, eps, 2, 2)
        assert cert.degree == 4
        assert cert.right_holds and cert.left_holds
        assert cert.coefficients_fixed
        # coefficients are even, hence in Fix(epsilon)
        for c in cert.right_coeffs + cert.left_coeffs:
            assert all(m.bit_count() % 2 == 0 for m in c.coeffs)


def test_cost_cap():
    E = GrassmannAlgebra(0, QQ)
    A = Matrix.identity(E, 6)            # the cap is n <= 5
    with pytest.raises(CostCapError):
        sdet(A)
    # every chain (rdet, ldet, charpoly) is held to k <= 512 and degree
    # n^k <= 512, so a 1x1 chain, whose degree stays 1, gets k <= 512
    E = GrassmannAlgebra(2, QQ)
    for n, k in ((1, 512), (2, 9), (3, 5), (4, 4)):
        A = Matrix(E, [[E.from_scalar(i + 2 * j + 1) for j in range(n)]
                       for i in range(n)])
        assert len(adjoint_sequence(A, k, "left").products) == k
        for too_long in (k + 1, 10 ** 9):
            with pytest.raises(CostCapError):
                rdet(A, too_long)
    one = Matrix(E, [[E.from_scalar(3)]])
    assert charpoly(one, 512).degree == 1
    with pytest.raises(CostCapError):
        charpoly(one, 513)
