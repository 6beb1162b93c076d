"""Symmetric determinant, adjoint sequences, characteristic polynomials,
Cayley-Hamilton, and integrality certificates."""

import random

import pytest

from lienil import (CostCapError, CyclotomicField, GrassmannAlgebra,
                    GrassmannElement, Matrix, PolynomialRing, QQ, RingError,
                    adjoint_sequence, cayley_hamilton_check, charpoly,
                    classical_adj, classical_det, epsilon,
                    integrality_certificate, ldet, leading_coefficient_value,
                    oracle_ring, preadjoint, preadjoint_via_minors, rdet,
                    sdet, sdet_first_form)
from lienil.parallel import map_reduce_sum
from lienil.supermatrix import example_5_1, sample_supermatrix, shape


def symbolic_matrix(n):
    names = [f"a{i}{j}" for i in range(1, n + 1) for j in range(1, n + 1)]
    R = oracle_ring(names)
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
    assert preadjoint(A) == classical_adj(A).scalar_mul(nm1fact)


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
        assert preadjoint(A) == classical_adj(A).scalar_mul(nfact // n)


def count_multiplies(monkeypatch, fn, A):
    """fn(A) and the number of Grassmann ring multiplies it made."""
    calls = []
    mul = GrassmannElement.__mul__

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(GrassmannElement, "__mul__", counted)
    value = fn(A)
    monkeypatch.undo()
    return value, len(calls)


def test_zero_skip_multiplies_only_nonzero_terms(monkeypatch):
    """On a 4x4 diagonal matrix of units only the 24 pairs alpha = beta
    meet no zero entry (2304 multiplies without the skip).  Each term is
    the product of its positions 1-2 and 3-4, and a half is keyed by its
    rows and columns: 12 distinct first halves and 12 second halves at one
    multiply each, plus 24 joins, make 48.  A preadjoint diagonal entry
    has 3 positions, split 2 + 1: its 6 pairs have 6 distinct first halves
    at one multiply each, plus 6 joins; the 4 entries make 48."""
    E = GrassmannAlgebra(4, QQ)
    A = Matrix(E, [[E.element({0: i + 2, 1 << i: 1}) if i == j else E.zero
                    for j in range(4)] for i in range(4)])
    value, calls = count_multiplies(monkeypatch, sdet, A)
    assert calls == 48
    adj, calls = count_multiplies(monkeypatch, preadjoint, A)
    assert calls == 48
    assert value == sdet_first_form(A) and adj == preadjoint_via_minors(A)


@pytest.mark.parametrize("fn, n, expected", [
    (sdet, 3, 72), (sdet, 4, 864), (sdet, 5, 22000),
    (preadjoint, 3, 36), (preadjoint, 5, 21600)])
def test_dense_multiplies_halves_once(monkeypatch, fn, n, expected):
    """With no zero entry and no zero product, a term over m positions is
    its first m - m // 2 factors times its last m // 2, and each distinct
    half is multiplied out once.  sdet at n = 5: 60^2 three-position halves
    at two multiplies, 20^2 two-position halves at one, and 14400 joins
    (57600 multiplies when every term is multiplied out).  At n = 3 the
    rows and columns of a half name the whole pair, so nothing is shared."""
    E = GrassmannAlgebra(2, QQ)
    rng = random.Random(n)
    units = [[E.element({0: rng.choice((1, 2, 3)), rng.randrange(1, 4): 1})
              for _ in range(n)] for _ in range(n)]
    A = Matrix(E, units)
    _, calls = count_multiplies(monkeypatch, fn, A)
    assert calls == expected


def split_cases():
    """n = 5 matrices for the half products, named by their ids."""
    _, dense = grassmann_matrix(3, 5, 55)
    E = GrassmannAlgebra(4, CyclotomicField(3))
    return [pytest.param(dense, id="dense_g3"),
            pytest.param(sparse_matrix(E, 5, 305), id="sparse_zeta3")]


@pytest.mark.parametrize("A", split_cases())
def test_half_products_match_oracles_n5(A):
    assert sdet(A) == sdet_first_form(A)
    assert preadjoint(A) == preadjoint_via_minors(A)


def test_half_products_match_oracles_over_rz():
    """The entries of z I - A lie in R[z], where charpoly sums."""
    E, A = grassmann_matrix(3, 4, 44)
    rz = PolynomialRing(E)
    B = (Matrix.identity(rz, 4) * rz.z
         - A.map_entries(rz.constant, ring=rz))
    assert sdet(B) == sdet_first_form(B)
    assert preadjoint(B) == preadjoint_via_minors(B)


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
