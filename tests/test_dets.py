"""Symmetric determinant, adjoint sequences, characteristic polynomials,
Cayley-Hamilton, and integrality certificates."""

import random

import pytest

from lienil import (CostCapError, GrassmannAlgebra, Matrix, QQ, RingError,
                    adjoint_sequence, cayley_hamilton_check, charpoly,
                    classical_adj, classical_det, epsilon,
                    integrality_certificate, ldet, leading_coefficient_value,
                    oracle_ring, preadjoint, preadjoint_via_minors, rdet,
                    sdet, sdet_first_form)
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


@pytest.mark.parametrize("n", [2, 3])
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
