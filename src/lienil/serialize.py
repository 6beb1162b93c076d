"""JSON encodings for scalars, Grassmann elements, matrices, rings,
endomorphisms and supermatrix algebra specs.

Grassmann elements: {"g": 4, "coeffs": {"": "3/2", "1,2": "-1"}} where keys
are comma-separated ascending 1-based generator indices (empty key = scalar
term) and values are scalar text forms.  Oracle elements are polynomial
text, read by ``OracleRing.parse``; only the oracle branches import
``lienil.oracle``.  Matrices: {"n": 2, "entries": [[elem, ...], ...]}.
Specs: {"ring": {...}, "delta": ..., "T": ..., "n": n}.  The "n" of a
matrix or spec may be left out; given, it must be the row count of the
matrix or of T.
"""

from __future__ import annotations

import json
import re

from .grassmann import (GrassmannAlgebra, GrassmannElement, epsilon,
                        endomorphism_from_generator_images, rho, sigma)
from .matrices import Matrix, TransitiveMatrix
from .rings import CostCapError, RingError
from .scalars import Cyc, CyclotomicField, parse_scalar


class SerializationError(RingError):
    pass


# --- Grassmann elements ---

def _mask_to_key(mask):
    return ",".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1)


def _key_to_mask(key, g):
    """The mask of a key in the one form ``_mask_to_key`` writes: distinct
    ascending indices in 1..g, comma-separated (empty for the scalar term)."""
    mask = 0
    for part in key.split(",") if key else ():
        i = int(part)
        if not 1 <= i <= g:
            raise SerializationError(f"generator index {i} out of range 1..{g}")
        mask |= 1 << (i - 1)
    if key != _mask_to_key(mask):
        raise SerializationError(f"Grassmann key {key!r} is not ascending indices")
    return mask


def grassmann_to_json(x):
    coeffs = {_mask_to_key(m): str(c)
              for m, c in sorted(x.coeffs.items(),
                                 key=lambda kv: (kv[0].bit_count(), kv[0]))}
    return {"g": x.ring.g, "coeffs": coeffs}


def grassmann_from_json(algebra, doc):
    known_fields(doc, {"g", "coeffs"}, "a Grassmann element")
    if doc.get("g", algebra.g) != algebra.g:
        raise SerializationError("generator count mismatch")
    coeffs = {}
    for key, text in field(doc, "coeffs", dict).items():
        if not isinstance(text, str):
            raise SerializationError(
                f"Grassmann coefficient {text!r} must be a string")
        mask = _key_to_mask(key, algebra.g)
        coeffs[mask] = parse_scalar(algebra.field, text)
    return algebra.element(coeffs)


def canonical_report(payload):
    """The canonical JSON text of a payload: sorted keys, no spaces."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# --- generic elements ---

def element_to_json(x):
    try:
        if isinstance(x, GrassmannElement):
            return grassmann_to_json(x)
        if isinstance(x, Cyc):
            return str(x)
        from .oracle import OracleElement
        if isinstance(x, OracleElement):        # text: a polynomial
            return str(x)
    except ValueError as exc:   # an integer over CPython's decimal-text limit
        raise CostCapError(f"result too long to print: {exc}") from None
    raise SerializationError(f"no JSON encoding for {type(x).__name__}")


def element_from_json(ring, doc):
    if isinstance(ring, GrassmannAlgebra):
        if isinstance(doc, str):
            return ring.from_scalar(parse_scalar(ring.field, doc))
        if isinstance(doc, dict):
            return grassmann_from_json(ring, doc)
        raise SerializationError(
            f"a Grassmann element must be a string or an object, not {doc!r}")
    from .oracle import OracleRing
    if isinstance(ring, OracleRing):
        return ring.parse(doc)
    raise SerializationError(f"no JSON decoding for ring {ring!r}")


# --- matrices ---

def matrix_to_json(A):
    return {"n": A.nrows,
            "entries": [[element_to_json(e) for e in row] for row in A.rows]}


def matrix_from_json(ring, doc):
    if not isinstance(doc, dict):
        raise SerializationError("a matrix must be an object")
    known_fields(doc, {"n", "entries"}, "a matrix")
    entries = field(doc, "entries", list)
    if not all(isinstance(row, list) for row in entries):
        raise SerializationError("matrix entries must be a list of lists")
    _check_n(doc, len(entries), "a matrix")
    return Matrix(ring, [[element_from_json(ring, e) for e in row]
                         for row in entries])


# --- rings and deltas ---

def ring_to_json(ring):
    if isinstance(ring, GrassmannAlgebra):
        return {"type": "grassmann", "g": ring.g, "root_order": ring.field.order}
    from .oracle import OracleRing
    if isinstance(ring, OracleRing):
        return {"type": "oracle", "variables": list(ring.variables)}
    raise SerializationError(f"no JSON encoding for ring {ring!r}")


def _int(value, what):
    if not isinstance(value, int) or isinstance(value, bool):
        raise SerializationError(f"{what} must be an integer, not {value!r}")
    return value


def _check_n(doc, rows, what):
    """Refuse a doc whose optional field "n" is not its row count."""
    if "n" in doc and _int(doc["n"], "n") != rows:
        raise SerializationError(f"{what} has n = {doc['n']} but {rows} rows")


def ring_from_json(doc):
    if not isinstance(doc, dict):
        raise SerializationError("a ring descriptor must be an object")
    kind = doc.get("type")
    if kind == "grassmann":
        known_fields(doc, {"type", "g", "root_order"}, "a Grassmann ring")
        return GrassmannAlgebra(
            _int(field(doc, "g"), "g"),
            CyclotomicField(_int(doc.get("root_order", 1), "root_order")))
    if kind == "oracle":
        known_fields(doc, {"type", "variables"}, "an oracle ring")
        from .oracle import OracleRing
        return OracleRing(field(doc, "variables", list))
    raise SerializationError(f"unknown ring type {kind!r}")


def delta_from_json(ring, doc):
    """The Grassmann endomorphism a descriptor names: "epsilon", "sigma",
    "rho_e", "rho_e:<k>" or {"generator_images": [...]}."""
    if not isinstance(ring, GrassmannAlgebra):
        raise SerializationError(
            f"an endomorphism descriptor needs a Grassmann ring, not {ring!r}")
    if isinstance(doc, str):
        if doc == "epsilon":
            return epsilon(ring, validate=False)
        match = re.fullmatch(r"rho_e(?::([0-9]+))?", doc)
        if match:
            order = int(match[1]) if match[1] else ring.field.order
            return rho(ring, ring.field.primitive_root(order), validate=False)
        if doc == "sigma":
            return sigma(ring, validate=False)
        raise SerializationError(f"unknown endomorphism {doc!r}")
    if isinstance(doc, dict) and "generator_images" in doc:
        known_fields(doc, {"generator_images"}, "an endomorphism descriptor")
        images = doc["generator_images"]
        if not isinstance(images, list):
            raise SerializationError("generator_images must be a list")
        return endomorphism_from_generator_images(
            ring, [element_from_json(ring, e) for e in images])
    raise SerializationError("bad endomorphism descriptor")


def delta_to_json(delta):
    name = delta.name
    if name == "epsilon" or name == "sigma":
        return name
    if name.startswith("rho_"):
        return f"rho_e:{delta.ring.field.order}"
    raise SerializationError(f"no JSON encoding for endomorphism {name!r}")


def spec_to_json(spec):
    return {"ring": ring_to_json(spec.ring),
            "delta": delta_to_json(spec.delta),
            "T": matrix_to_json(spec.T.matrix),
            "n": spec.n}


def field(doc, key, kind=object):
    """doc[key], which must be present and of the JSON type kind."""
    if key not in doc:
        raise SerializationError(f"missing field {key!r}")
    if not isinstance(doc[key], kind):
        raise SerializationError(f"field {key!r} must be a {kind.__name__}")
    return doc[key]


def known_fields(doc, allowed, what):
    """Refuse a doc with a field outside allowed, naming the first one."""
    unknown = doc.keys() - allowed
    if unknown:
        raise SerializationError(
            f"{what} has an unknown field {min(unknown)!r}")


def spec_from_json(doc, ring=None):     # None: decode doc["ring"]
    from .supermatrix import SuperAlgebraSpec
    if ring is None:
        ring = ring_from_json(field(doc, "ring"))
    delta = delta_from_json(ring, field(doc, "delta"))
    T = TransitiveMatrix(matrix_from_json(ring, field(doc, "T")))
    _check_n(doc, T.n, "a spec")
    return SuperAlgebraSpec(ring, delta, T)
