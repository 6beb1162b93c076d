"""JSON round trips for elements, matrices, rings, and specs."""

import random

import pytest

from lienil import CyclotomicField, GrassmannAlgebra, Matrix, OracleRing, QQ
from lienil.serialize import (SerializationError, delta_from_json,
                              delta_to_json, element_from_json,
                              element_to_json, grassmann_from_json,
                              grassmann_to_json, matrix_from_json,
                              matrix_to_json, ring_from_json, ring_to_json,
                              spec_from_json, spec_to_json)
from lienil.supermatrix import example_5_1, example_5_2, example_5_3


def test_grassmann_round_trip():
    E = GrassmannAlgebra(4, CyclotomicField(3))
    rng = random.Random(1)
    for _ in range(20):
        x = E.random_element(rng) * E.field.e
        doc = grassmann_to_json(x)
        assert grassmann_from_json(E, doc) == x


def test_grassmann_key_format():
    E = GrassmannAlgebra(3, QQ)
    x = E.one * 2 + E.generator(1) * E.generator(3)
    doc = grassmann_to_json(x)
    assert doc == {"g": 3, "coeffs": {"": "2", "1,3": "1"}}
    with pytest.raises(SerializationError):
        grassmann_from_json(E, {"g": 3, "coeffs": {"5": "1"}})
    with pytest.raises(SerializationError):
        grassmann_from_json(E, {"g": 2, "coeffs": {}})


def test_scalar_string_accepted_for_grassmann():
    from fractions import Fraction
    E = GrassmannAlgebra(2, QQ)
    assert element_from_json(E, "3/2") == E.from_scalar(Fraction(3, 2))


def test_matrix_round_trip():
    E = GrassmannAlgebra(3, QQ)
    rng = random.Random(2)
    A = Matrix(E, [[E.random_element(rng) for _ in range(3)]
                   for _ in range(3)])
    doc = matrix_to_json(A)
    assert doc["n"] == 3
    assert matrix_from_json(E, doc) == A


def test_oracle_round_trip():
    R = OracleRing(["x", "y"])
    x = R.parse("x**2 - 3*y + 1")
    assert element_from_json(R, element_to_json(x)) == x


def test_ring_round_trip():
    for ring in (GrassmannAlgebra(3, CyclotomicField(4)),
                 GrassmannAlgebra(0, QQ),
                 OracleRing(["a", "b"])):
        assert ring_from_json(ring_to_json(ring)) == ring
    with pytest.raises(SerializationError):
        ring_from_json({"type": "mystery"})


@pytest.mark.parametrize("make", [
    lambda: example_5_1(2, 1, 3),
    lambda: example_5_2(3, 3),
    lambda: example_5_3(2, 1, 3),
])
def test_spec_round_trip(make):
    spec = make()
    doc = spec_to_json(spec)
    back = spec_from_json(doc)
    assert back.ring == spec.ring
    assert back.T.matrix == spec.T.matrix
    assert back.n == spec.n
    # deltas agree pointwise on the monomial basis
    for mask in spec.ring.basis_masks():
        b = spec.ring.basis_element(mask)
        assert back.delta(b) == spec.delta(b)


def test_delta_descriptors():
    E = GrassmannAlgebra(2, CyclotomicField(3))
    for name in ("epsilon", "sigma", "rho_e:3"):
        d = delta_from_json(E, name)
        assert delta_to_json(d) == name
    assert delta_to_json(delta_from_json(E, "rho_e")) == "rho_e:3"
    for name in ("transpose", "rho_e_garbage", "rho_e:", "rho_e:3x",
                 "rho_e: 3", "rho_e:-3", "rho_e3"):
        with pytest.raises(SerializationError):
            delta_from_json(E, name)
    custom = delta_from_json(
        E, {"generator_images": [{"coeffs": {"1": "-1"}},
                                 {"coeffs": {"2": "-1"}}]})
    assert custom(E.generator(1)) == -E.generator(1)
