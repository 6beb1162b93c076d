"""Transitive matrices, blow-ups, factorizations, and Theta_T."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lienil import (CyclotomicField, GrassmannAlgebra, Matrix, OracleRing,
                    PolynomialRing, QQ, TransitiveMatrix, blow_up, delta_n,
                    epsilon,
                    factor_transitive, hadamard, is_transitive, theta,
                    theta_inverse, transitive_from_units, transitive_square)
from lienil.matrices import MatrixError, matrix_units_counterexample
from lienil.supermatrix import p_matrix


def scalar_matrix(ring, table):
    return Matrix(ring, [[ring.from_scalar(x) for x in row] for row in table])


def test_is_transitive_examples():
    E = GrassmannAlgebra(0, QQ)
    P = scalar_matrix(E, [[1, -1], [-1, 1]])
    assert is_transitive(P)
    H = scalar_matrix(E, [[1, 1], [1, 1]])
    assert is_transitive(H)
    assert not is_transitive(scalar_matrix(E, [[1, 1], [0, 1]]))
    assert not is_transitive(scalar_matrix(E, [[2, 1], [1, 1]]))


def exhaustive_failing_triple(M):
    """Reference oracle: the first triple with t_ij t_jk != t_ik in the
    O(n^3) loop over all triples, 1-based, or None."""
    t = M.rows
    for i, j, k in itertools.product(range(M.nrows), repeat=3):
        if t[i][j] * t[j][k] != t[i][k]:
            return i + 1, j + 1, k + 1
    return None


def exhaustive_is_transitive(M):
    return (M.is_square
            and all(M.entry(i, i) == M.ring.one for i in range(1, M.nrows + 1))
            and exhaustive_failing_triple(M) is None)


def check_against_oracle(M):
    assert is_transitive(M) == exhaustive_is_transitive(M)
    if not M.is_square:
        with pytest.raises(MatrixError):
            matrix_units_counterexample(M)
        return
    pair = matrix_units_counterexample(M)
    assert (pair is None) == (exhaustive_failing_triple(M) is None)
    if pair is not None:
        Eij, Ejk = pair
        assert hadamard(M, Eij * Ejk) != hadamard(M, Eij) * hadamard(M, Ejk)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda r: st.integers(1, 4).flatmap(
    lambda c: st.lists(st.lists(st.sampled_from([-1, 0, 1, 2]),
                                min_size=c, max_size=c),
                       min_size=r, max_size=r))))
def test_transitivity_matches_exhaustive_oracle_over_q(table):
    check_against_oracle(scalar_matrix(GrassmannAlgebra(0, QQ), table))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_transitivity_matches_exhaustive_oracle_perturbed(seed):
    """A transitive matrix over E with one entry moved: noncommutative
    entries, and failures that need not show on the diagonal."""
    E = GrassmannAlgebra(2, QQ)
    rng = random.Random(seed)
    n = rng.randrange(1, 5)
    T = transitive_from_units(E, [E.random_unit(rng) for _ in range(n)])
    check_against_oracle(T.matrix)
    rows = [list(r) for r in T.matrix.rows]
    i, j = rng.randrange(n), rng.randrange(n)
    rows[i][j] = rows[i][j] + rng.choice(
        [E.one, E.generator(1), E.generator(1) * E.generator(2),
         E.random_element(rng)])
    check_against_oracle(Matrix(E, rows))


def test_transitivity_witnesses():
    E = GrassmannAlgebra(0, QQ)
    # every triple holds in the zero matrix, but t_11 = 0: not transitive,
    # yet Theta_T is multiplicative, so no pair of matrix units separates it
    Z = scalar_matrix(E, [[0, 0], [0, 0]])
    assert not is_transitive(Z) and matrix_units_counterexample(Z) is None
    # the failure sits away from the first row and column
    M = scalar_matrix(E, [[1, 1, 1], [1, 1, 1], [1, 2, 1]])
    assert not is_transitive(M)
    Eij, Ejk = matrix_units_counterexample(M)
    assert hadamard(M, Eij * Ejk) != hadamard(M, Eij) * hadamard(M, Ejk)


def test_p_matrix_powers():
    F = CyclotomicField(3)
    E = GrassmannAlgebra(0, F)
    T = p_matrix(E, F.e, n=3)
    for i in range(1, 4):
        for j in range(1, 4):
            assert T.entry(i, j) == E.from_scalar(F.e ** (i - j))
    H = transitive_from_units(E, [E.one] * 3)      # the Hadamard identity
    assert H.matrix == scalar_matrix(E, [[1] * 3] * 3)


def test_p_matrix_matches_unit_construction():
    """P^(u), built from the 2n - 1 powers of u, equals the unit
    construction [g_i g_j^-1] for g_i = u^(i-1), over Q(zeta_n) at
    n = 1..6 with u = zeta_n, over Q(i) with u = -1 and u = i, and over Q
    and the oracle ring with int u.  An int u is lifted before its
    negative powers are taken, so they are exact; a zero u is refused."""
    cases = [(GrassmannAlgebra(1, CyclotomicField(n)),
              CyclotomicField(n).primitive_root(n), n) for n in range(1, 7)]
    F4 = CyclotomicField(4)
    E4 = GrassmannAlgebra(1, F4)
    cases += [(E4, u, n) for u in (-1, F4.from_fraction(-1), F4.e)
              for n in (2, 3, 4)]
    cases += [(ring, u, n) for ring in (GrassmannAlgebra(1, QQ),
                                        OracleRing(["x"]))
              for u in (2, 3, -3) for n in (1, 2, 4)]
    for ring, u, n in cases:
        T = p_matrix(ring, u, n=n)
        old = transitive_from_units(
            ring, [ring.from_scalar(u ** (i - 1)) for i in range(1, n + 1)])
        assert T.matrix == old.matrix, (ring, u, n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert T.entry(i, j) == ring.from_scalar(
                    ring.coerce_scalar(u) ** (i - j))
    E = GrassmannAlgebra(1, QQ)
    assert p_matrix(E, 3, n=3).entry(1, 3) == E.from_scalar(Fraction(1, 9))
    for ring, u in ((E, 0), (E, QQ.zero), (E4, F4.zero)):
        for n in (2, 3):
            with pytest.raises(MatrixError):
                p_matrix(ring, u, n=n)


def written_out_product(A, B):
    """[sum_k a_ik b_kj], each sum added left to right."""
    ring = A.ring
    return Matrix(ring, [[sum((a * b for a, b in zip(r, c)), ring.zero)
                          for c in zip(*B.rows)] for r in A.rows])


def count_dots(monkeypatch, ring):
    """A list that gains one item per ``dot`` call of ``ring``'s class."""
    calls = []
    dot = type(ring).dot

    def counted(self, terms):
        calls.append(None)
        return dot(self, terms)

    monkeypatch.setattr(type(ring), "dot", counted)
    return calls


def test_blow_up_square_computes_each_block_product_once(monkeypatch):
    """A blow-up repeats its entry objects block by block, so its square
    makes one ``dot`` per pair of row and column blocks, n^2 = 16 for a
    4 x 4 T blown up to 7 x 7, not 49; entries in the same pair of blocks
    are one object, and the square equals the written-out sums and nT."""
    E = GrassmannAlgebra(3, CyclotomicField(3))
    rng = random.Random(5)
    T = transitive_from_units(E, [E.random_unit(rng) for _ in range(4)])
    cuts = (1, 3, 4, 7)
    B = blow_up(T, cuts).matrix
    calls = count_dots(monkeypatch, E)
    sq = B * B
    assert len(calls) == 16
    assert sq == written_out_product(B, B) == 7 * B
    block = [sum(p > d for d in cuts) for p in range(1, 8)]
    cells = list(itertools.product(range(7), repeat=2))
    for (i, j), (k, l) in itertools.product(cells, repeat=2):
        if (block[i], block[j]) == (block[k], block[l]):
            assert sq.rows[i][j] is sq.rows[k][l]


def _random_entry(ring, rng):
    if isinstance(ring, PolynomialRing):
        return ring.element([ring.base.random_element(rng)
                             for _ in range(rng.randrange(1, 3))])
    return ring.random_element(rng)


@pytest.mark.parametrize("kind", ["E_Q", "E_zeta3", "oracle", "polynomial"])
def test_product_shares_entries_of_repeated_rows_and_columns(kind):
    """A * B equals the written-out sums when rows of A and columns of B
    repeat.  Entry (i, j) of the product is the same object as entry
    (k, l) when rows i and k of A, and columns j and l of B, hold the same
    objects.  Copies of A and B whose repeated rows and columns are equal
    in value but distinct objects give the same values and share no
    nonzero entry."""
    ring = {"E_Q": lambda: GrassmannAlgebra(3, QQ),
            "E_zeta3": lambda: GrassmannAlgebra(3, CyclotomicField(3)),
            "oracle": lambda: OracleRing(["x", "y"]),
            "polynomial": lambda: PolynomialRing(GrassmannAlgebra(2))}[kind]()
    rng = random.Random(11)
    rows = [[_random_entry(ring, rng) for _ in range(4)] for _ in range(3)]
    cols = [[_random_entry(ring, rng) for _ in range(4)] for _ in range(3)]
    row_of, col_of = (0, 1, 0, 2, 1), (2, 0, 0, 1, 2, 1)
    A = Matrix(ring, [rows[r] for r in row_of])
    B = Matrix(ring, zip(*[cols[c] for c in col_of]))
    P = A * B
    assert P == written_out_product(A, B)
    cells = list(itertools.product(range(5), range(6)))
    for (i, j), (k, l) in itertools.product(cells, repeat=2):
        if (row_of[i], col_of[j]) == (row_of[k], col_of[l]):
            assert P.rows[i][j] is P.rows[k][l]
    A2, B2 = (M.map_entries(lambda x: -(-x)) for M in (A, B))
    assert all(x is not y for x, y in zip(A.rows[0] + B.rows[0],
                                          A2.rows[0] + B2.rows[0]))
    P2 = A2 * B2
    assert P2 == P
    for (i, j), (k, l) in itertools.product(cells, repeat=2):
        if (i, j) != (k, l) and P2.rows[i][j]:
            assert P2.rows[i][j] is not P2.rows[k][l]


def test_transitive_square_identity():
    E = GrassmannAlgebra(2, QQ)
    units = [E.one, E.from_scalar(-1) + E.generator(1) * E.generator(2)]
    T = transitive_from_units(E, units)
    assert transitive_square(T) == 2 * T.matrix


def test_blow_up_explicit():
    """Blowing up P = [[1,-1],[-1,1]] with cuts (1, 3)."""
    E = GrassmannAlgebra(0, QQ)
    P = TransitiveMatrix(scalar_matrix(E, [[1, -1], [-1, 1]]))
    B = blow_up(P, (1, 3))
    assert B.matrix == scalar_matrix(E, [[1, -1, -1],
                                         [-1, 1, 1],
                                         [-1, 1, 1]])
    assert transitive_square(B) == 3 * B.matrix
    # uneven blocks of a 3x3 T: rows and columns 1 | 2-4 | 5-6
    R = TransitiveMatrix(scalar_matrix(E, [[1, 2, 6], [Fraction(1, 2), 1, 3],
                                           [Fraction(1, 6), Fraction(1, 3), 1]]))
    sizes = (1, 3, 2)
    expected = [[R.entry(a, b) for b in range(1, 4) for _ in range(sizes[b - 1])]
                for a in range(1, 4) for _ in range(sizes[a - 1])]
    assert blow_up(R, (1, 4, 6)).matrix == Matrix(E, expected)
    with pytest.raises(MatrixError):
        blow_up(P, (3,))
    with pytest.raises(MatrixError):
        blow_up(P, (2, 2))


def test_factor_and_rebuild():
    E = GrassmannAlgebra(2, QQ)
    rng = random.Random(11)
    for _ in range(10):
        units = [E.random_unit(rng) for _ in range(3)]
        T = transitive_from_units(E, units)
        rebuilt = transitive_from_units(E, factor_transitive(T))
        assert rebuilt.matrix == T.matrix
        # every entry is a unit with inverse t_ji
        for i, j in itertools.product(range(1, 4), repeat=2):
            assert T.entry(i, j) * T.entry(j, i) == E.one


def factorization_constant(T, other_units):
    """For a second factorization h_i of T, the constant c with h_i = g_i c;
    None if no single constant works.  Since g_1 = t_11 = 1, c = h_1."""
    c = other_units[0]
    if all(gi * c == hi for gi, hi in zip(factor_transitive(T), other_units)):
        return c
    return None


def test_factorization_constant():
    E = GrassmannAlgebra(1, QQ)
    units = [E.one + E.generator(1), E.from_scalar(2)]
    T = transitive_from_units(E, units)
    c = E.from_scalar(3) + E.generator(1)
    other = [u * c for u in units]
    got = factorization_constant(T, other)
    assert got is not None
    # the two factorizations differ by right multiplication with one constant
    g = factor_transitive(T)
    assert all(gi * got == hi for gi, hi in zip(g, other))
    assert factorization_constant(T, [units[0], units[1] * 2]) is None


def test_theta_is_multiplicative_for_transitive_T():
    E = GrassmannAlgebra(2, QQ)
    T = p_matrix(E, QQ.from_fraction(-1), n=2)
    rng = random.Random(12)
    for _ in range(20):
        A = Matrix(E, [[E.random_element(rng) for _ in range(2)]
                       for _ in range(2)])
        B = Matrix(E, [[E.random_element(rng) for _ in range(2)]
                       for _ in range(2)])
        assert theta(T, A * B) == theta(T, A) * theta(T, B)
        assert theta(T, A + B) == theta(T, A) + theta(T, B)
        assert theta_inverse(T, theta(T, A)) == A


def test_theta_counterexample_for_non_transitive_T():
    E = GrassmannAlgebra(0, QQ)
    bad = scalar_matrix(E, [[1, 1], [0, 1]])
    pair = matrix_units_counterexample(bad)
    assert pair is not None
    Eij, Ejk = pair
    assert hadamard(bad, Eij * Ejk) != hadamard(bad, Eij) * hadamard(bad, Ejk)
    # and no counterexample exists for a transitive T
    good = scalar_matrix(E, [[1, -1], [-1, 1]])
    assert matrix_units_counterexample(good) is None


def test_theta_requires_central_entries():
    E = GrassmannAlgebra(2, QQ)
    v1 = E.generator(1)
    M = Matrix(E, [[E.one, E.one + v1], [E.try_invert(E.one + v1), E.one]])
    # the matrix is transitive but has non-central entries
    T = TransitiveMatrix(M)
    with pytest.raises(MatrixError):
        theta(T, Matrix.identity(E, 2))


def test_delta_n_entrywise():
    E = GrassmannAlgebra(2, QQ)
    eps = epsilon(E)
    v1 = E.generator(1)
    A = Matrix(E, [[v1, E.one], [E.one + v1, v1 * E.generator(2)]])
    B = delta_n(eps, A)
    assert B.rows[0][0] == -v1
    assert B.rows[1][0] == E.one - v1
    assert B.rows[1][1] == v1 * E.generator(2)


def test_matrix_basics():
    E = GrassmannAlgebra(1, QQ)
    A = scalar_matrix(E, [[1, 2], [3, 4]])
    assert A.trace() == E.from_scalar(5)
    assert A.minor(1, 2) == scalar_matrix(E, [[3]])
    assert A.entry(2, 1) == E.from_scalar(3)
    with pytest.raises(MatrixError):
        Matrix(E, [[E.one], [E.one, E.one]])


def test_scalar_products():
    """c * A multiplies every entry by c on the left, a scalar c lifted
    into the ring once; A * c multiplies on the right."""
    E = GrassmannAlgebra(2, CyclotomicField(3))
    v1, v2 = E.generators
    A = Matrix(E, [[E.one, v1], [v2, v1 * v2 + 2]])
    assert 2 * A == A + A == A * 2
    half = scalar_matrix(E, [[Fraction(1, 2)] * 2] * 2)
    assert Fraction(1, 2) * A == hadamard(half, A) == A * Fraction(1, 2)
    e = E.field.e
    assert e * A == E.from_scalar(e) * A == A.map_entries(lambda x: x * e)
    assert v1 * A == Matrix(E, [[v1, E.zero], [v1 * v2, v1 * 2]])
    assert A * v1 == Matrix(E, [[v1, E.zero], [-(v1 * v2), v1 * 2]])
    assert 0 * A == scalar_matrix(E, [[0, 0], [0, 0]])
