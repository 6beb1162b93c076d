"""Grassmann algebra arithmetic, automorphisms, gradings, and the solver."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from lienil import (ComponentBasis, ContextMismatchError, CyclotomicField,
                    Endomorphism, GrassmannAlgebra, QQ, RingError, epsilon,
                    graded_component_basis, rho, sigma, solve_constraint)
from lienil.grassmann import GrassmannElement, _hops
from lienil.scalars import SHARED_VALUES, Cyc


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


def sigma_inverse(algebra):
    """Conjugation g -> (1-v1) g (1+v1), which undoes sigma."""
    v1 = algebra.generator(1)
    left, right = algebra.one - v1, algebra.one + v1
    return Endomorphism("sigma_inv", algebra, lambda x: left * x * right,
                        validate=True)


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
    # equal dimension, different spans, meeting or not
    v3 = E.generator(3)
    assert not cb.same_span(ComponentBasis(E, [v1, v3]))
    assert not cb.same_span(ComponentBasis(E, [v3, v1 * v2]))
    # a basis of dimension 0 contains zero alone
    empty = ComponentBasis(E, [])
    assert empty.dim == 0 and empty.contains(E.zero)
    assert not any(empty.contains(E.basis_element(m)) for m in E.basis_masks())
    assert not empty.contains(v1 - v2)
    assert empty.same_span(ComponentBasis(E, []))
    assert not empty.same_span(ComponentBasis(E, [E.one]))
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


def pairwise_product(x, y):
    """x * y by one Cyc product and one Cyc sum per disjoint pair of
    monomials, dropping sums that cancel: the product route that the
    integer-numerator product replaced, kept as its oracle."""
    out = {}
    for ma, ca in x.coeffs.items():
        hops = _hops(ma)
        for mb, cb in y.coeffs.items():
            if ma & mb:
                continue
            m = ma | mb
            c = ca * cb
            if (mb & hops).bit_count() & 1:
                c = -c
            s = out.get(m)
            s = c if s is None else s + c
            if s:
                out[m] = s
            elif m in out:
                del out[m]
    return out


def product_operand(E, rng, kind):
    """A zero, one-term, sparse or dense element, or an int, Fraction or
    Cyc scalar.  Coefficients mix the denominators 1, 2, 3 and 6."""
    def scalar():
        return E.field.element([Fraction(rng.randint(-4, 4),
                                         rng.choice((1, 2, 3, 6)))
                                for _ in range(E.field.degree)])
    if kind == "int":
        return rng.randint(-3, 3)
    if kind == "Fraction":
        return Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3, 6)))
    if kind == "Cyc":
        return scalar()
    terms = {"zero": 0, "one": 1, "sparse": rng.randint(2, 5),
             "dense": E.dim}[kind]
    masks = rng.sample(range(E.dim), min(terms, E.dim))
    return E.element({m: scalar() for m in masks})


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((1, 3, 4, 5)), st.integers(0, 8),
       st.sampled_from(("zero", "one", "sparse", "dense", "int", "Fraction",
                        "Cyc")),
       st.sampled_from(("zero", "one", "sparse", "dense")),
       st.booleans(), st.integers(0, 10 ** 6))
def test_product_matches_pairwise_oracle(order, g, kind, element_kind,
                                         scalar_left, seed):
    field = CyclotomicField(order)
    E = GrassmannAlgebra(g, field)
    rng = random.Random(seed)
    if kind == "dense" and element_kind == "dense":
        E = GrassmannAlgebra(min(g, 6), field)     # 4^g pairs per product
    x = product_operand(E, rng, element_kind)
    y = product_operand(E, rng, kind)
    if isinstance(y, GrassmannElement):
        pairs = [(x, y), (y, x)]
    else:
        lifted = E.from_scalar(y)
        pairs = [(x, lifted)]
    for a, b in pairs:
        assert (a * b).coeffs == pairwise_product(a, b)
    if not isinstance(y, GrassmannElement):
        expected = pairwise_product(x, lifted)
        product = y * x if scalar_left else x * y
        assert product.coeffs == expected
        products = [product]
    else:
        products = [a * b for a, b in pairs]
    for p in products:
        for c in p.coeffs.values():
            assert type(c) is Cyc and c.field is field and c
            assert type(c.num) is tuple and len(c.num) == field.degree
            assert c.den > 0 and gcd(c.den, *c.num) == 1
            # the instance that _make shares, while its table has room
            shared = field._shared.get((c.num, c.den))
            assert shared is c or (shared is None
                                   and len(field._shared) >= SHARED_VALUES)


def test_scalar_operand_from_another_field_is_refused():
    E = GrassmannAlgebra(2, CyclotomicField(3))
    x = E.generator(1) + E.one
    with pytest.raises(ContextMismatchError):
        x * CyclotomicField(4).e
    with pytest.raises(ContextMismatchError):
        CyclotomicField(4).e * x
    assert (x * 0).coeffs == {} and (x * E.zero).coeffs == {}
    assert (E.zero * x).coeffs == {}


def test_product_drops_monomials_that_fold_to_zero():
    # the v1v2 coefficient is 1 + x + x^2 before reduction, 0 in Q(zeta3)
    E = GrassmannAlgebra(2, CyclotomicField(3))
    e = E.field.e
    x = E.element({0: 1, 1: e})
    y = E.element({3: 1 + e, 2: e})
    assert (x * y).coeffs == {2: e} == pairwise_product(x, y)


def test_sum_lifts_scalars_refuses_other_rings_and_shares_zero():
    """A same-ring operand skips the lift; a scalar is lifted, an element
    of another algebra is refused, and a sum that cancels is ``E.zero``."""
    E = GrassmannAlgebra(3, QQ)
    x = E.element({0: 2, 0b011: Fraction(1, 3)})
    assert (x + 1).coeffs == {0: QQ.from_fraction(3),
                              0b011: QQ.from_fraction(Fraction(1, 3))}
    assert (1 + x) == x + E.one
    with pytest.raises(ContextMismatchError):
        x + GrassmannAlgebra(2, QQ).one
    assert x + (-x) is E.zero and x - x is E.zero


def sum_of_products(ring, terms):
    """x y, or -(x y) where negate is set, added left to right from zero:
    the loop that ``dot`` fuses, kept as its oracle."""
    acc = ring.zero
    for x, y, negate in terms:
        acc = acc + (-(x * y) if negate else x * y)
    return acc


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((1, 3, 4)), st.integers(0, 6),
       st.lists(st.tuples(st.sampled_from(("zero", "one", "sparse", "dense")),
                          st.sampled_from(("zero", "one", "sparse", "dense")),
                          st.booleans()), max_size=5),
       st.integers(0, 10 ** 6))
def test_dot_matches_sum_of_products(order, g, kinds, seed):
    """Over Q, Q(zeta3) and Q(i), with the denominators 1, 2, 3 and 6
    mixed, negated terms and zero operands; the coefficients are the
    shared, lowest-terms Cyc values that ``_make`` hands out."""
    field = CyclotomicField(order)
    E = GrassmannAlgebra(g, field)
    rng = random.Random(seed)
    terms = [(product_operand(E, rng, a), product_operand(E, rng, b), negate)
             for a, b, negate in kinds]
    value = E.dot(terms)
    assert value.coeffs == sum_of_products(E, terms).coeffs
    assert value.coeffs or value is E.zero
    for c in value.coeffs.values():
        assert type(c) is Cyc and c.field is field and c
        assert c.den > 0 and gcd(c.den, *c.num) == 1
        shared = field._shared.get((c.num, c.den))
        assert shared is c or (shared is None
                               and len(field._shared) >= SHARED_VALUES)


@pytest.mark.parametrize("order", [1, 3, 4])
def test_dot_shares_zero_and_checks_rings(order):
    """A sum that cancels is ``E.zero`` itself.  Elements of an equal
    algebra built apart are summed, as ``*`` multiplies them; elements of
    another algebra are refused on either side."""
    field = CyclotomicField(order)
    E, twin = GrassmannAlgebra(3, field), GrassmannAlgebra(3, field)
    e = field.e
    x = E.element({0: Fraction(1, 2), 0b001: e, 0b110: Fraction(-2, 3)})
    y = twin.element({0: 3, 0b010: Fraction(5, 6) * e, 0b101: 1})
    assert E.dot([(x, y, False), (x, y, True)]) is E.zero
    assert E.dot([]) is E.zero and E.dot([(x, E.zero, False)]) is E.zero
    assert E.dot([(x, y, False), (y, x, True)]) == x * y - y * x
    assert twin.dot([(x, y, True)]) == -(x * y)
    for other in (GrassmannAlgebra(2, field),
                  GrassmannAlgebra(3, CyclotomicField(5))):
        for bad in ((x, other.one, False), (other.one, y, False)):
            with pytest.raises(ContextMismatchError):
                E.dot([(x, y, False), bad])
