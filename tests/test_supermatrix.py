"""Supermatrix membership, sampling, shapes, and the embedding."""

import itertools
import random
from fractions import Fraction

import pytest

from lienil import (CyclotomicField, EmbeddingConditionsReport,
                    GrassmannAlgebra, Matrix, QQ, SuperAlgebraSpec,
                    check_embedding_conditions, closure_check, embed,
                    epsilon, fixed_ring_member, graded_component_basis,
                    is_supermatrix, p_matrix, sample_supermatrix, shape,
                    transitive_from_units, verify_embedding)
from lienil.grassmann import (endomorphism_from_generator_images, sigma,
                              solve_constraint)
from lienil.supermatrix import (SuperMatrixError, example_5_1, example_5_2,
                                example_5_3, root_embedding)


@pytest.fixture
def spec_eps_p():
    """M_2(E, epsilon, P) with g = 3."""
    E = GrassmannAlgebra(3, QQ)
    return SuperAlgebraSpec(E, epsilon(E, validate=False),
                            p_matrix(E, QQ.from_fraction(-1), n=2))


def test_membership(spec_eps_p):
    E = spec_eps_p.ring
    v1, v2 = E.generator(1), E.generator(2)
    even, odd = E.one + v1 * v2, v1 + v2 * 3
    A = Matrix(E, [[even, odd], [odd, even]])
    assert is_supermatrix(spec_eps_p, A)
    B = Matrix(E, [[odd, even], [odd, even]])
    assert not is_supermatrix(spec_eps_p, B)


def test_shape_of_eps_p(spec_eps_p):
    grid = shape(spec_eps_p)
    E = spec_eps_p.ring
    for i in range(2):
        for j in range(2):
            expected = graded_component_basis(E, (i + j) % 2, 2)
            assert grid[i][j].same_span(expected)


def test_sampling_and_closure(spec_eps_p):
    rng = random.Random(3)
    bases = shape(spec_eps_p)
    for _ in range(10):
        A = sample_supermatrix(spec_eps_p, rng, bases)
        B = sample_supermatrix(spec_eps_p, rng, bases)
        assert closure_check(spec_eps_p, A, B, scalars=(2, Fraction(-1, 2)))


def test_sampling_is_deterministic(spec_eps_p):
    a = sample_supermatrix(spec_eps_p, random.Random(9))
    b = sample_supermatrix(spec_eps_p, random.Random(9))
    assert a == b


def test_embed_corollary_example(spec_eps_p):
    """embed(v1) over (E, eps, P, n=2) is the off-diagonal matrix of v1."""
    E = spec_eps_p.ring
    v1 = E.generator(1)
    A = embed(spec_eps_p, v1)
    assert A == Matrix(E, [[E.zero, v1], [v1, E.zero]])
    # even elements embed diagonally
    x = E.one + v1 * E.generator(2) * 2
    assert embed(spec_eps_p, x) == Matrix(E, [[x, E.zero], [E.zero, x]])


def test_embed_matches_defining_sum():
    """embed(r)_ij = (1/n) sum_k t_ji^k delta^k(r), term by term, for
    epsilon (5.1), rho over Q(zeta3) (5.2 at n = 3) and sigma (5.3)."""
    rng = random.Random(9)
    for spec in (example_5_1(3, 1, 3), example_5_2(3, 3), example_5_3(3, 2, 3)):
        E, n = spec.ring, spec.n
        for _ in range(3):
            r = E.random_element(rng)
            A = embed(spec, r)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    x = E.zero
                    for k in range(n):
                        t_k = E.one
                        for _ in range(k):
                            t_k = t_k * spec.T.entry(j, i)
                        x = x + t_k * spec.delta.iterate(k, r)
                    assert A.entry(i, j) == x * Fraction(1, n), (spec, i, j)


def test_root_embedding_only_where_it_embeds():
    """delta^n moving a generator is refused before any work; where
    delta^n = id, 1 maps to I and products to products."""
    E = GrassmannAlgebra(2, CyclotomicField(3))
    eps = epsilon(E, validate=False)
    for r in (E.one, E.generator(1)):
        with pytest.raises(SuperMatrixError):
            root_embedding(r, eps, 3)
    rng = random.Random(5)
    for spec in (example_5_1(2, 1, 3), example_5_2(3, 3), example_5_2(4, 2)):
        E, n = spec.ring, spec.n
        assert root_embedding(E.one, spec.delta, n) == Matrix.identity(E, n)
        for _ in range(3):
            a, b = E.random_element(rng), E.random_element(rng)
            assert (root_embedding(a, spec.delta, n)
                    * root_embedding(b, spec.delta, n)
                    == root_embedding(a * b, spec.delta, n))


def test_embedding_laws(spec_eps_p):
    rng = random.Random(4)
    E = spec_eps_p.ring
    pairs = [(E.random_element(rng), E.random_element(rng)) for _ in range(25)]
    verdict = verify_embedding(spec_eps_p, pairs)
    assert verdict.ok, verdict.failures


def test_embedding_conditions_for_root_of_unity():
    spec = example_5_2(3, 3)
    report = check_embedding_conditions(spec)
    d = report.as_dict()
    assert d["first_column_central_units"]
    assert d["t_power_n_is_one"]
    assert d["power_sums_vanish"] and d["inverse_power_sums_vanish"]
    assert d["t_in_fixed_ring"] and d["delta_order_n"]
    assert d["inverse_sum_condition_redundant"]
    assert report.regime_scalar and report.regime_ring_embedding
    assert report.regime_supermatrix_embedding


def test_embedding_conditions_report_keys():
    """as_dict holds the nine verdicts, the notes and the regimes; a report
    built without notes gets its own empty list."""
    verdicts = ["first_column_central_units", "has_inverse_of_n",
                "t_power_n_is_one", "one_minus_t_nonzero_divisor",
                "power_sums_vanish", "inverse_power_sums_vanish",
                "t_in_fixed_ring", "delta_order_n",
                "inverse_sum_condition_redundant"]
    d = check_embedding_conditions(example_5_1(2, 1, 2)).as_dict()
    assert sorted(d) == sorted(verdicts + ["notes", "regimes"])
    assert d["notes"] == [] and set(d["regimes"]) == {
        "scalar", "ring_embedding", "supermatrix_embedding"}
    a, b = (EmbeddingConditionsReport(**dict.fromkeys(verdicts, True))
            for _ in range(2))
    a.notes.append("a")
    assert b.notes == [] and a.as_dict()["notes"] == ["a"]


def test_embedding_conditions_fail_for_hadamard_identity():
    """H_n has t = 1 everywhere: power sums do not vanish and 1 - t = 0."""
    E = GrassmannAlgebra(2, QQ)
    spec = SuperAlgebraSpec(E, epsilon(E, validate=False),
                            transitive_from_units(E, [E.one] * 2))
    report = check_embedding_conditions(spec)
    assert not report.power_sums_vanish
    assert report.one_minus_t_nonzero_divisor is False
    assert not report.regime_scalar


def scalar_regime_check(spec, fixed_elements):
    """Regime where embed(r) must be the scalar matrix r*I for fixed r."""
    for r in fixed_elements:
        if not fixed_ring_member(spec.delta, r):
            raise SuperMatrixError("element is not in the fixed ring")
        if embed(spec, r) != Matrix.identity(spec.ring, spec.n).map_entries(
                lambda e: e * r):
            return False
    return True


def test_scalar_regime(spec_eps_p):
    E = spec_eps_p.ring
    fixed = [E.one, E.generator(1) * E.generator(2)]
    assert scalar_regime_check(spec_eps_p, fixed)
    with pytest.raises(SuperMatrixError):
        scalar_regime_check(spec_eps_p, [E.generator(1)])


def test_example_5_1_shape():
    spec = example_5_1(3, 1, 3)        # P(1, 3): one +1 row, two -1 rows
    grid = shape(spec)
    E = spec.ring
    even = graded_component_basis(E, 0, 2)
    odd = graded_component_basis(E, 1, 2)
    for i in range(3):
        for j in range(3):
            t = spec.T.entry(i + 1, j + 1)
            expected = even if t == E.one else odd
            assert grid[i][j].same_span(expected)


@pytest.mark.parametrize("build", [lambda: example_5_2(3, 4),
                                   lambda: example_5_1(3, 1, 4)],
                         ids=["5.2", "5.1"])
def test_rho_and_epsilon_shapes_hold_the_shared_monomials(build):
    """Under rho and epsilon every constraint basis vector is one monomial
    with coefficient 1, and the shape hands out the algebra's own basis
    element for it rather than a copy."""
    spec = build()
    E = spec.ring
    for row in shape(spec):
        for cb in row:
            for b in cb.basis:
                [mask] = b.coeffs
                assert b is E.basis_element(mask)


def count_solves(monkeypatch):
    """A list that gains the entry t of every solve that ``shape`` makes."""
    import lienil.supermatrix as sm
    calls = []

    def counted(delta, t):
        calls.append(t)
        return solve_constraint(delta, t)

    monkeypatch.setattr(sm, "solve_constraint", counted)
    return calls


def check_shape_per_distinct_entry(spec, grid):
    """The grid equals the per-entry route, one solve for every entry of
    T, and two cells hold one basis object exactly when their entries of
    T are equal."""
    n, t = spec.n, spec.T.matrix.rows
    per_entry = [[solve_constraint(spec.delta, t[i][j]) for j in range(n)]
                 for i in range(n)]
    assert ([[cb.basis for cb in row] for row in grid]
            == [[cb.basis for cb in row] for row in per_entry])
    cells = list(itertools.product(range(n), repeat=2))
    for (i, j), (k, l) in itertools.product(cells, repeat=2):
        assert (grid[i][j] is grid[k][l]) == (t[i][j] == t[k][l])


@pytest.mark.parametrize("build, solves", [
    (lambda: example_5_1(4, 2, 3), 2),
    (lambda: example_5_2(5, 2), 5),
    (lambda: example_5_3(4, 2, 3), 3),
])
def test_shape_solves_once_per_distinct_entry(monkeypatch, build, solves):
    """5.1 at n = 4, d = 2 blows P^(-1) up, so T holds the two values 1
    and -1: 2 solves.  5.2 at n = 5 has t_ij = e^(i-j), which takes the
    five values e^0, .., e^4: 5 solves.  5.3 at n = 4 blows up
    Q = [[1, 1 + v1v2], [1 - v1v2, 1]], whose entries are 1, 1 + v1v2
    and 1 - v1v2: 3 solves."""
    spec = build()
    calls = count_solves(monkeypatch)
    grid = shape(spec)
    assert len(calls) == solves
    check_shape_per_distinct_entry(spec, grid)


@pytest.mark.parametrize("seed", range(3))
def test_shape_of_random_specs_solves_once_per_distinct_entry(monkeypatch,
                                                              seed):
    """T = [g_i g_j^-1] for random even (so central) units g_i of E at
    g = 4: its diagonal is 1 and its n^2 - n = 6 other entries differ, so
    shape makes 7 solves, under sigma and under a delta given by
    generator images."""
    rng = random.Random(seed)
    E = GrassmannAlgebra(4, QQ)
    even = [m for m in E.basis_masks() if m and m.bit_count() % 2 == 0]

    def even_unit():
        return E.element({0: rng.choice((-3, -2, -1, 1, 2, 3)),
                          **{m: rng.randrange(-2, 3) for m in even}})

    T = transitive_from_units(E, [even_unit() for _ in range(3)])
    v = E.generators
    images = [v[(i + 1) % 4] * rng.choice((-2, -1, 1, 2))
              + v[0] * v[1] * v[i] * rng.randrange(-2, 3) for i in range(4)]
    calls = count_solves(monkeypatch)
    for delta in (sigma(E), endomorphism_from_generator_images(E, images)):
        spec = SuperAlgebraSpec(E, delta, T)
        calls.clear()
        grid = shape(spec)
        assert len(calls) == 7
        check_shape_per_distinct_entry(spec, grid)


def test_example_5_2_spec():
    spec = example_5_2(3, 2)
    assert spec.ring.field == CyclotomicField(3)
    assert spec.n == 3
    rng = random.Random(8)
    A = sample_supermatrix(spec, rng)
    B = sample_supermatrix(spec, rng)
    assert closure_check(spec, A, B)


def test_example_5_3_spec():
    spec = example_5_3(2, 1, 3)
    rng = random.Random(8)
    A = sample_supermatrix(spec, rng)
    B = sample_supermatrix(spec, rng)
    assert closure_check(spec, A, B)
    with pytest.raises(SuperMatrixError):
        example_5_3(2, 1, 1)           # needs at least two generators


def test_spec_rejects_non_central_T():
    E = GrassmannAlgebra(2, QQ)
    v1 = E.generator(1)
    from lienil.matrices import TransitiveMatrix
    M = Matrix(E, [[E.one, E.one + v1],
                   [E.try_invert(E.one + v1), E.one]])
    with pytest.raises(SuperMatrixError):
        SuperAlgebraSpec(E, epsilon(E, validate=False), TransitiveMatrix(M))


def test_shape_cost_cap(monkeypatch):
    """shape bounds n^2 4^g before any solve; the benchmark's largest
    shapes, n=5 at g=4 and n=2 at g=6, are well inside the cap."""
    import lienil.supermatrix as sm
    from lienil.rings import CostCapError
    assert 5 ** 2 * 4 ** 4 <= 2 ** 2 * 4 ** 6 <= sm.MAX_SHAPE_WORK // 64
    with pytest.raises(CostCapError):
        shape(example_5_3(100, 1, 6))
    monkeypatch.setattr(sm, "MAX_SHAPE_WORK", 2 ** 2 * 4 ** 3)
    assert len(shape(example_5_3(2, 1, 3))) == 2
    with pytest.raises(CostCapError):
        shape(example_5_3(3, 1, 3))
    with pytest.raises(CostCapError):
        shape(example_5_3(2, 1, 4))
