"""Ring contract, endomorphisms, Lie nilpotency, R[z], and the oracle."""

import operator
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lienil import (CyclotomicField, Endomorphism, GrassmannAlgebra, Matrix,
                    MatrixRing, PolynomialRing, QQ, RingError, classical_adj, classical_det, commutator,
                    epsilon, extend_endomorphism_to_poly, fixed_ring_member,
                    is_lie_nilpotent_index, left_normed_commutator,
                    oracle_ring)
from lienil.rings import (MAX_ORACLE_BITS, MAX_ORACLE_DEGREE,
                          ContextMismatchError, CostCapError, substitute)


def test_commutators():
    E = GrassmannAlgebra(2, QQ)
    v1, v2 = E.generator(1), E.generator(2)
    assert commutator(v1, v2) == v1 * v2 * 2
    assert left_normed_commutator([v1, v2, v1]) == E.zero
    with pytest.raises(RingError):
        left_normed_commutator([v1])


@pytest.mark.parametrize("g", [0, 1, 2, 3, 4, 5])
def test_grassmann_lie_nilpotent_index_two(g):
    E = GrassmannAlgebra(g, QQ)
    assert is_lie_nilpotent_index(E, 2)
    # the exhaustive check finds [v1, v2] != 0 itself; E is commutative
    # below two generators
    assert is_lie_nilpotent_index(E, 1) == (g < 2)
    if g >= 2:
        # index 1 fails: [v1, v2] = 2 v1 v2 != 0
        assert not is_lie_nilpotent_index(E, 1, witnesses=[
            (E.generator(1), E.generator(2))])


def test_commutative_oracle_is_index_one():
    R = oracle_ring(["x", "y"])
    rng = random.Random(0)
    witnesses = [(R.random_element(rng), R.random_element(rng))
                 for _ in range(10)]
    assert is_lie_nilpotent_index(R, 1, witnesses)


def test_endomorphism_validation_rejects_non_multiplicative():
    E = GrassmannAlgebra(2, QQ)
    with pytest.raises(RingError):
        Endomorphism("bad", E, lambda x: x + E.one, validate=True)


def test_endomorphism_iterate_and_fixed_ring():
    E = GrassmannAlgebra(3, QQ)
    eps = epsilon(E)
    v1 = E.generator(1)
    assert eps.iterate(2, v1) == v1
    assert not fixed_ring_member(eps, v1)
    assert fixed_ring_member(eps, v1 * E.generator(2))
    assert eps.power_is_identity(2)
    assert not eps.power_is_identity(3)


def test_polynomial_factor_order_matters():
    """(z - a)(z - d) and (z - d)(z - a) differ unless a, d commute."""
    E = GrassmannAlgebra(2, QQ)
    Rz = PolynomialRing(E)
    z = Rz.z
    a, d = E.generator(1), E.generator(2)
    lhs = (z - Rz.constant(a)) * (z - Rz.constant(d))
    rhs = (z - Rz.constant(d)) * (z - Rz.constant(a))
    assert lhs != rhs
    assert lhs.coeff(1) == -(a + d)
    assert lhs.coeff(0) == a * d
    assert rhs.coeff(0) == d * a


def test_polynomial_substitution_sides():
    E = GrassmannAlgebra(2, QQ)
    Rz = PolynomialRing(E)
    v1, v2 = E.generator(1), E.generator(2)
    p = Rz.element([E.one, v2])          # 1 + v2 z
    right = substitute(p.coeffs, v1, E.one, "right")
    left = substitute(p.coeffs, v1, E.one, "left")
    assert right == E.one + v1 * v2
    assert left == E.one + v2 * v1
    assert right != left


def test_extend_endomorphism_to_poly():
    E = GrassmannAlgebra(2, QQ)
    eps_z = extend_endomorphism_to_poly(epsilon(E))
    Rz = eps_z.ring
    p = Rz.element([E.generator(1), E.one])
    assert eps_z(p) == Rz.element([-E.generator(1), E.one])
    assert eps_z(Rz.z) == Rz.z


grass_elems = st.builds(
    lambda seed: GrassmannAlgebra(3, QQ).random_element(random.Random(seed)),
    st.integers(min_value=0, max_value=10 ** 6))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_rpolynomial_ring_axioms(sa, sb, sc):
    E = GrassmannAlgebra(3, QQ)
    Rz = PolynomialRing(E)
    p = Rz.random_element(random.Random(sa))
    q = Rz.random_element(random.Random(sb))
    r = Rz.random_element(random.Random(sc))
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert (p + q) * r == p * r + q * r
    assert p * Rz.one == p and Rz.one * p == p


def test_oracle_det_and_adj():
    R = oracle_ring(["a", "b", "c", "d"])
    A = Matrix(R, [[R.var("a"), R.var("b")], [R.var("c"), R.var("d")]])
    det = classical_det(A)
    assert det == R.parse("a*d - b*c")
    adj = classical_adj(A)
    assert adj.rows[0][0] == R.var("d")
    assert adj.rows[0][1] == -R.var("b")
    prod = A * adj
    assert prod.rows[0][0] == det and prod.rows[1][1] == det
    assert not prod.rows[0][1] and not prod.rows[1][0]


def test_context_mismatch_is_rejected():
    E2 = GrassmannAlgebra(2, QQ)
    E3 = GrassmannAlgebra(3, QQ)
    with pytest.raises(RingError):
        E2.generator(1) + E3.generator(1)
    v1 = E2.generator(1)
    z = PolynomialRing(E2).z
    a = oracle_ring(["a"]).var("a")
    cases = [(v1 + 2, E3.generator(1)),
             (z * v1 + z + 1, PolynomialRing(E3).z),
             (a * a - a, oracle_ring(["b"]).var("b"))]
    for x, y in cases:
        ring = x.ring
        # scalars of every kind lift through from_scalar on either side
        for c in (3, Fraction(-1, 2), QQ.from_fraction(5)):
            assert c - x == ring.from_scalar(c) - x
            assert x - c == x - ring.from_scalar(c)
            assert c * x == ring.from_scalar(c) * x
            assert c + x == x + ring.from_scalar(c)
        # an element of another ring of the same class is rejected
        for op in (operator.add, operator.sub, operator.mul, operator.eq):
            with pytest.raises(ContextMismatchError):
                op(x, y)
            with pytest.raises(ContextMismatchError):
                op(y, x)
    # R[z] also lifts elements of its base ring, on either side
    Rz = PolynomialRing(E2)
    assert z + v1 == z + Rz.constant(v1) and v1 + z == Rz.constant(v1) + z
    assert v1 * z == Rz.constant(v1) * z and z - v1 == z - Rz.constant(v1)
    # no operand accepts an element of an unrelated ring
    for x, y in ((z, E3.generator(1)), (v1, a)):
        with pytest.raises(TypeError):
            x + y


def _one_of_each_kind():
    E = GrassmannAlgebra(2)
    return [E, oracle_ring(["x", "y"]), PolynomialRing(E), MatrixRing(E, 2)]


@pytest.mark.parametrize("build, build_again, others", [
    (lambda: GrassmannAlgebra(2), lambda: GrassmannAlgebra(2, QQ),
     lambda: [GrassmannAlgebra(3), GrassmannAlgebra(2, CyclotomicField(3))]),
    (lambda: oracle_ring(["x", "y"]), lambda: oracle_ring(("x", "y")),
     lambda: [oracle_ring(["y", "x"]), oracle_ring(["x"])]),
    (lambda: PolynomialRing(GrassmannAlgebra(2)),
     lambda: PolynomialRing(GrassmannAlgebra(2)),
     lambda: [PolynomialRing(GrassmannAlgebra(3)),
              PolynomialRing(oracle_ring(["x", "y"]))]),
    (lambda: MatrixRing(GrassmannAlgebra(2), 2),
     lambda: MatrixRing(GrassmannAlgebra(2), 2),
     lambda: [MatrixRing(GrassmannAlgebra(2), 3),
              MatrixRing(GrassmannAlgebra(3), 2)]),
], ids=["grassmann", "oracle", "polynomial", "matrix"])
def test_ring_contract(build, build_again, others):
    """Rings compare and hash by type and parameters, build zero and one
    once, and elements of two equal rings built apart mix."""
    R, S = build(), build_again()
    assert R is not S and R == S and hash(R) == hash(S) and len({R, S}) == 1
    unequal = others() + [k for k in _one_of_each_kind()
                          if type(k) is not type(R)]
    for other in unequal:
        assert R != other and other != R, other
    assert R.zero is R.zero and R.one is R.one
    assert getattr(R, "z", None) is getattr(R, "z", None)
    assert R.one + S.one == R.from_scalar(2) == S.one + R.one
    assert S.one * R.zero == R.zero and R.one != S.zero
    if not isinstance(R, MatrixRing):       # a matrix never equals a scalar
        assert R.one + S.one == 2


def test_equal_elements_hash_alike():
    """== lifts scalars (and, in R[z], base elements), so an element equal
    to such a value must hash like it: a set holds them once."""
    E = GrassmannAlgebra(2, QQ)
    v1 = E.generator(1)
    Rz = PolynomialRing(E)
    O = oracle_ring(["x"])
    F3 = CyclotomicField(3)
    E3 = GrassmannAlgebra(2, F3)
    pairs = [(E.one, 1), (E.zero, 0), (E.from_scalar(Fraction(-3, 2)),
                                        Fraction(-3, 2)),
             (E3.from_scalar(F3.e), F3.e), (E3.one, F3.one),
             (Rz.constant(v1), v1), (Rz.one, E.one), (Rz.one, 1),
             (Rz.zero, 0), (Rz.zero, E.zero),
             (O.one, 1), (O.zero, 0), (O.parse("-2/3"), Fraction(-2, 3)),
             (O.var("x") - O.var("x") + 5, 5)]
    for x, value in pairs:
        assert x == value and value == x, (x, value)
        assert hash(x) == hash(value), (x, value)
        assert len({x, value}) == 1, (x, value)
    # elements that are not scalars still hash by ring and content
    assert len({v1, E.one, Rz.z, O.var("x"), 2}) == 5
    assert hash(v1 + 1) == hash(1 + v1)
    assert hash(Rz.z * v1) == hash(v1 * Rz.z)


def test_oracle_parse_matches_sympify():
    """On text that sympify reads safely, the token parser builds the
    polynomial that sympy expands it to, printed the same way."""
    import sympy
    R = oracle_ring(["a", "b", "x", "y"])
    texts = ["x**2 - 3*y + 1", "3*x/2", "a^2 - 3*b/2", "-(a - 2)*b/5",
             "(a - b)**2/3", "-a**2", "2**3**2", " + a - -b ", "(1)",
             "0**0", "(a + 1)*(a - 1) - a^2", "7/(2*3)", "a*b^2*a/4"]
    for text in texts:
        expected = str(sympy.expand(sympy.sympify(text)))
        assert str(R.parse(text)) == expected, text
    a = R.var("a")
    assert R.parse("2*a") == a * 2 and R.parse("a").ring == R


def test_oracle_parse_refusals_and_caps():
    R = oracle_ring(["a", "b"])
    for text in ('__import__("os").getpid()', "zz", "1.5", "sin(a)", "1/a",
                 "a**(1/2)", "a**b", "a - oo", "1/0", "", "a b", "(a",
                 "a)", "2a", "-" * 5000 + "1", "(" * 5000 + "a", 5, None):
        with pytest.raises(RingError):
            R.parse(text)
    # a stray character after a long run of digits or letters is refused
    # at once: the character check does not backtrack
    start = time.perf_counter()
    for text in ("1" * 60 + ".", "a" * 60 + "!", "a1_" * 2000 + "."):
        with pytest.raises(RingError):
            R.parse(text)
    assert time.perf_counter() - start < 1
    # the caps hold the predicted size: 2^12 terms, 8192 coefficient bits
    # (a variable adds none) and degree 8192 admitted
    assert len(R.parse("*".join(["(a + b)"] * 12)).terms) == 13
    assert R.parse(f"2**{MAX_ORACLE_BITS // 2}") == 2 ** (MAX_ORACLE_BITS // 2)
    assert R.parse(f"(2*a)**{MAX_ORACLE_BITS // 2}").terms == {
        (MAX_ORACLE_BITS // 2, 0): 2 ** (MAX_ORACLE_BITS // 2)}
    assert R.parse(f"a**{MAX_ORACLE_DEGREE}").terms == {
        (MAX_ORACLE_DEGREE, 0): 1}
    assert R.parse(f"(a*b)**{MAX_ORACLE_DEGREE // 2}")
    for text in ("*".join(["(a + b)"] * 13), f"a**{MAX_ORACLE_DEGREE + 1}",
                 f"(a*b)**{MAX_ORACLE_DEGREE // 2 + 1}",
                 f"2**{MAX_ORACLE_BITS // 2 + 1}", "9**9**9", "(a + b + 1)**90",
                 "a**(10**100)", "(a**(2**4000))**(2**4000)"):
        with pytest.raises(CostCapError):
            R.parse(text)
    # variables are names, and a name keeps its meaning: I is no sqrt(-1)
    for names in (["x y"], ["lambda"], ["a.b"], [3], ["a", "b", "a"]):
        with pytest.raises(RingError):
            oracle_ring(names)
    S = oracle_ring(["I", "E"])
    x = S.parse("I**2 + E")
    assert x == S.var("I") * S.var("I") + S.var("E")
    assert {v for m in x.terms for v, e in zip(S.names, m) if e} == {"I", "E"}


# Names whose order as strings differs from their order as numbers (a10 <
# a2), and names that sympy reads as constants when it parses text.
ORACLE_NAMES = ["a2", "a10", "I", "E", "x"]
_coefficients = st.fractions(min_value=-20, max_value=20, max_denominator=6)
_exponents = st.tuples(*[st.integers(0, 3)] * len(ORACLE_NAMES))
# A positive constant and a negative term of one variable, which sympy
# prints constant first (1 - x), against other two-term polynomials.
_two_terms = st.builds(
    lambda c, d, i, e, extra: {(0,) * len(ORACLE_NAMES): c,
                               tuple(e if j in (i, extra) else 0
                                     for j in range(len(ORACLE_NAMES))): d},
    _coefficients, _coefficients, st.integers(0, len(ORACLE_NAMES) - 1),
    st.integers(1, 3), st.sampled_from([None, 0, 4]))
oracle_terms = st.dictionaries(_exponents, _coefficients, max_size=6) | _two_terms


@settings(max_examples=150, deadline=None)
@given(oracle_terms, oracle_terms, st.integers(0, 4))
def test_oracle_arithmetic_matches_sympy(p, q, k):
    """+ - * ** == hash and str of the native polynomials agree with sympy's
    expand and str on the same polynomials."""
    import sympy
    R = oracle_ring(ORACLE_NAMES)
    symbols = [sympy.Symbol(v) for v in R.names]

    def to_sympy(terms):
        return sympy.Add(*(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(s ** e for s, e in zip(symbols, m)))
            for m, c in terms.items()))

    x, y = R.element(p), R.element(q)
    X, Y = to_sympy(p), to_sympy(q)
    for got, expected in ((x, X), (y, Y), (-x, -X), (x + y, X + Y),
                          (x - y, X - Y), (x * y, X * Y), (x * 3, X * 3)):
        expected = sympy.expand(expected)
        assert str(got) == str(expected), (p, q)
        assert R.parse(str(got)) == got
    assert str(R.parse(f"({x})**{k}")) == str(sympy.expand(X ** k))
    assert (x == y) == (sympy.expand(X - Y) == 0)
    if x == y:
        assert hash(x) == hash(y)
    for a, b in (((x + y) - y, x), (x * y, y * x),
                 (R.element(dict(reversed(list(p.items())))), x)):
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    # a constant equals its Fraction and hashes like it
    d = sympy.expand(X - Y)
    if d.is_Rational:
        d = Fraction(int(d.p), int(d.q))
        assert x - y == d and hash(x - y) == hash(d)
