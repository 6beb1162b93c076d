"""Grassmann algebra arithmetic, automorphisms, gradings, and the solver."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lienil import (ComponentBasis, CyclotomicField, GrassmannAlgebra, QQ,
                    RingError, epsilon, graded_component_basis, rho, sigma,
                    sigma_inverse, solve_constraint)
from lienil.grassmann import _hops


def test_generator_relations():
    E = GrassmannAlgebra(3, QQ)
    v = E.generators
    for vi in v:
        assert vi * vi == E.zero
    for i in range(3):
        for j in range(i + 1, 3):
            assert v[i] * v[j] == -(v[j] * v[i])


def merge_sign(a, b):
    """Sign of joining monomials a, b (bitmasks) in that order; None if
    they overlap."""
    if a & b:
        return None
    return -1 if (b & _hops(a)).bit_count() & 1 else 1


def inversion_sign(a, b):
    """The same sign by brute force: (-1) to the number of generators of
    a above a generator of b."""
    bits = [i for i in range(64) if b >> i & 1]
    hops = sum(1 for i in range(64) if a >> i & 1 for j in bits if i > j)
    return -1 if hops & 1 else 1


def test_merge_sign():
    assert merge_sign(0b001, 0b010) == 1       # v1 * v2
    assert merge_sign(0b010, 0b001) == -1      # v2 * v1
    assert merge_sign(0b001, 0b001) is None
    assert merge_sign(0b101, 0b010) == -1      # (v1v3) * v2 = -v1v2v3
    for g in range(7):
        for a in range(1 << g):
            for b in range(1 << g):
                if not a & b:
                    assert merge_sign(a, b) == inversion_sign(a, b)
    rng = random.Random(64)
    for _ in range(1000):
        a = rng.getrandbits(64)
        b = rng.getrandbits(64) & ~a
        assert merge_sign(a, b) == inversion_sign(a, b)


def test_product_example():
    E = GrassmannAlgebra(3, QQ)
    v1, v2, v3 = E.generators
    x = E.one + v1
    y = v2 * v3 + v1 * 2
    assert x * y == v2 * v3 + v1 * 2 + v1 * v2 * v3
    assert y * x == v2 * v3 + v1 * 2 + v2 * v3 * v1
    assert v2 * v3 * v1 == v1 * v2 * v3


def test_centrality():
    E = GrassmannAlgebra(3, QQ)
    v1, v2, v3 = E.generators
    assert E.is_central(E.one + v1 * v2)
    assert not E.is_central(v1)
    assert E.is_central(v1 * v2 * v3)        # top monomial, odd but full


def test_try_invert():
    E = GrassmannAlgebra(3, QQ)
    v1, v2 = E.generator(1), E.generator(2)
    x = E.from_scalar(2) + v1 + v1 * v2
    inv = E.try_invert(x)
    assert inv is not None and x * inv == E.one and inv * x == E.one
    assert E.try_invert(v1) is None
    assert E.try_invert(E.zero) is None


def test_scalar_and_homogeneous_parts():
    E = GrassmannAlgebra(3, QQ)
    v1, v2, v3 = E.generators
    x = E.from_scalar(Fraction(1, 2)) + v1 + v2 * v3 * 3
    assert x.scalar_part == QQ.from_fraction(Fraction(1, 2))
    assert x.homogeneous_component(1) == v1
    assert x.homogeneous_component(2) == v2 * v3 * 3
    assert x.max_degree() == 2


def test_epsilon_squares_to_identity():
    E = GrassmannAlgebra(4, QQ)
    eps = epsilon(E)
    rng = random.Random(5)
    for _ in range(20):
        x = E.random_element(rng)
        assert eps(eps(x)) == x
    assert eps(E.generator(1)) == -E.generator(1)
    assert eps(E.generator(1) * E.generator(2)) == E.generator(1) * E.generator(2)


def test_rho_scales_by_degree():
    F = CyclotomicField(3)
    E = GrassmannAlgebra(3, F)
    r = rho(E, F.e)
    v1, v2 = E.generator(1), E.generator(2)
    assert r(v1) == v1 * F.e
    assert r(v1 * v2) == v1 * v2 * (F.e ** 2)
    # order 3: rho^3 = id
    x = v1 + v1 * v2
    assert r(r(r(x))) == x
    with pytest.raises(RingError):
        rho(E, F.from_fraction(2))


@pytest.mark.parametrize("order", [70, 97])
def test_rho_accepts_roots_of_high_order(order):
    # orders above 64 used to be rejected by a bounded search of powers
    F = CyclotomicField(order)
    E = GrassmannAlgebra(2, F)
    r = rho(E, F.e)
    assert r(E.generator(1)) == E.generator(1) * F.e
    assert rho(E, -F.e)(E.generator(2)) == E.generator(2) * -F.e
    with pytest.raises(RingError):
        rho(E, F.one + F.e)


def test_sigma_action_and_inverse():
    E = GrassmannAlgebra(3, QQ)
    s = sigma(E)
    si = sigma_inverse(E)
    v1, v2, v3 = E.generators
    assert s(v1) == v1
    assert s(v2) == v2 + v1 * v2 * 2
    assert s(v3) == v3 + v1 * v3 * 2
    rng = random.Random(6)
    for _ in range(20):
        x = E.random_element(rng)
        assert si(s(x)) == x and s(si(x)) == x


def test_graded_component_bases():
    E = GrassmannAlgebra(4, QQ)
    # mod 2: even part has dim 8, odd part dim 8
    assert graded_component_basis(E, 0, 2).dim == 8
    assert graded_component_basis(E, 1, 2).dim == 8
    # mod 3 splits 16 = 5 + 5 + 6  (lengths {0,3}, {1,4}, {2})
    dims = [graded_component_basis(E, m, 3).dim for m in range(3)]
    assert dims == [5, 5, 6]
    with pytest.raises(RingError):
        graded_component_basis(E, 3, 3)


def test_component_basis_contains_and_same_span():
    E = GrassmannAlgebra(3, QQ)
    v1, v2 = E.generator(1), E.generator(2)
    cb = ComponentBasis(E, [v1 + v2, v1 - v2])
    assert cb.contains(v1) and cb.contains(v2 * 5)
    assert not cb.contains(E.one)
    assert cb.same_span(ComponentBasis(E, [v1, v2]))
    assert not cb.same_span(ComponentBasis(E, [v1]))
    with pytest.raises(RingError):
        ComponentBasis(E, [v1, v1 * 2])       # dependent


def test_solve_constraint_matches_parity_grading():
    E = GrassmannAlgebra(4, QQ)
    eps = epsilon(E)
    fixed = solve_constraint(eps, E.one)
    assert fixed.same_span(graded_component_basis(E, 0, 2))
    odd = solve_constraint(eps, E.from_scalar(-1))
    assert odd.same_span(graded_component_basis(E, 1, 2))
    # no eigenvector for t = 2
    assert solve_constraint(eps, E.from_scalar(2)).dim == 0


def test_solve_constraint_sigma_fixed_ring():
    E = GrassmannAlgebra(4, QQ)
    s = sigma(E)
    fixed = solve_constraint(s, E.one)
    # Fix(sigma) = E_0 + E_0 v1: dim 8 + 4 = 12 at g = 4
    assert fixed.dim == 12
    v1 = E.generator(1)
    even = [E.basis_element(m) for m in E.basis_masks()
            if m.bit_count() % 2 == 0]
    expected = ComponentBasis(E, even + [b * v1 for b in even if b * v1])
    assert fixed.same_span(expected)


def test_solver_cap():
    E = GrassmannAlgebra(13, QQ)        # one generator over SOLVER_CAP
    with pytest.raises(RingError):
        solve_constraint(epsilon(E), E.one)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_associativity_and_distributivity(sa, sb, sc):
    E = GrassmannAlgebra(4, QQ)
    x = E.random_element(random.Random(sa))
    y = E.random_element(random.Random(sb))
    z = E.random_element(random.Random(sc))
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z
    assert x * E.one == x and E.one * x == x
