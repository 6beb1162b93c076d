"""Command-line front end: constructions, checks, and example reproductions
with JSON input/output.

Exit codes: 0 success / check passed, 1 check failed (counterexample in the
output), 2 invalid input, 3 cost cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import acceptance, dets
from .matrices import (MatrixError, TransitiveMatrix, blow_up,
                       factor_transitive, is_transitive, theta,
                       transitive_from_units)
from .rings import RingError
from .scalars import MAX_ORDER, OrderCapError, ScalarError
from .serialize import (SerializationError, element_from_json,
                        element_to_json, matrix_from_json, matrix_to_json,
                        ring_from_json, delta_from_json, spec_from_json,
                        spec_to_json)
from .supermatrix import (SuperAlgebraSpec, check_embedding_conditions,
                          embed, example_algebra, is_supermatrix, p_matrix,
                          sample_supermatrix)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_COST_CAP = 3


def _load(path):
    try:
        if path == "-":
            doc = json.load(sys.stdin)
        else:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SerializationError(f"cannot read JSON input: {exc}")
    if not isinstance(doc, dict):
        raise SerializationError("JSON input must be an object")
    return doc


def _emit(doc, pretty=False):
    if pretty:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))


def _ring_and_matrix(doc):
    ring = ring_from_json(doc["ring"])
    return ring, matrix_from_json(ring, doc["matrix"])


def _enc(args):
    """Element encoder: canonical JSON, or readable strings in pretty mode."""
    return str if args.pretty else element_to_json


def _mat(args, A):
    if args.pretty:
        return {"n": A.nrows, "entries": [[str(e) for e in row]
                                          for row in A.rows]}
    return matrix_to_json(A)


# --- subcommand handlers ---

def cmd_transitive(args):
    doc = _load(args.input)
    ring = ring_from_json(doc["ring"])
    if args.action == "check":
        M = matrix_from_json(ring, doc["matrix"])
        ok = is_transitive(M)
        _emit({"transitive": ok}, args.pretty)
        return EXIT_OK if ok else EXIT_CHECK_FAILED
    if args.action == "build":
        units = [element_from_json(ring, u) for u in doc["units"]]
        T = transitive_from_units(ring, units)
        _emit({"matrix": _mat(args, T.matrix)}, args.pretty)
        return EXIT_OK
    if args.action == "blowup":
        T = TransitiveMatrix(matrix_from_json(ring, doc["matrix"]))
        out = blow_up(T, doc["cuts"])
        _emit({"matrix": _mat(args, out.matrix)}, args.pretty)
        return EXIT_OK
    if args.action == "factor":
        T = TransitiveMatrix(matrix_from_json(ring, doc["matrix"]))
        units = factor_transitive(T)
        _emit({"units": [_enc(args)(u) for u in units]}, args.pretty)
        return EXIT_OK
    raise SerializationError(f"unknown transitive action {args.action!r}")


def cmd_theta(args):
    doc = _load(args.input)
    ring = ring_from_json(doc["ring"])
    T = TransitiveMatrix(matrix_from_json(ring, doc["T"]))
    A = matrix_from_json(ring, doc["A"])
    _emit({"matrix": _mat(args, theta(T, A))}, args.pretty)
    return EXIT_OK


def cmd_sdet(args):
    ring, A = _ring_and_matrix(_load(args.input))
    _emit({"sdet": _enc(args)(dets.sdet(A))}, args.pretty)
    return EXIT_OK


def cmd_preadjoint(args):
    ring, A = _ring_and_matrix(_load(args.input))
    _emit({"matrix": _mat(args, dets.preadjoint(A))}, args.pretty)
    return EXIT_OK


def cmd_rdet(args):
    ring, A = _ring_and_matrix(_load(args.input))
    fn = dets.rdet if args.side == "right" else dets.ldet
    _emit({f"{args.side[0]}det": _enc(args)(fn(A, args.k)),
           "k": args.k}, args.pretty)
    return EXIT_OK


def cmd_charpoly(args):
    ring, A = _ring_and_matrix(_load(args.input))
    p = dets.charpoly(A, args.k, side=args.side)
    _emit({"side": p.side, "k": p.k,
           "coeffs": [_enc(args)(c) for c in p.coeffs]}, args.pretty)
    return EXIT_OK


def cmd_ch_check(args):
    ring, A = _ring_and_matrix(_load(args.input))
    res = dets.cayley_hamilton_check(A, args.k, side=args.side)
    zero = not any(e for row in res.rows for e in row)
    _emit({"matrix": _mat(args, A), "k": args.k, "side": args.side,
           "residual": _mat(args, res), "zero": zero}, args.pretty)
    return EXIT_OK if zero else EXIT_CHECK_FAILED


def cmd_embed(args):
    doc = _load(args.input)
    ring = ring_from_json(doc["ring"])
    delta = delta_from_json(ring, doc["delta"])
    r = element_from_json(ring, doc["element"])
    if args.n > MAX_ORDER:      # the embedding costs about n^3 products
        raise OrderCapError(f"embed --n {args.n} exceeds the cap {MAX_ORDER}")
    root_order = args.root if args.root else args.n
    e = ring.field.primitive_root(root_order)
    spec = SuperAlgebraSpec(ring, delta, p_matrix(ring, e, n=args.n))
    _emit({"matrix": _mat(args, embed(spec, r))}, args.pretty)
    return EXIT_OK


def cmd_conditions(args):
    spec = spec_from_json(_load(args.input))
    report = check_embedding_conditions(spec)
    _emit(report.as_dict(), args.pretty)
    return EXIT_OK


def cmd_membership(args):
    doc = _load(args.input)
    spec = spec_from_json(doc)
    A = matrix_from_json(spec.ring, doc["matrix"])
    ok = is_supermatrix(spec, A)
    _emit({"member": ok}, args.pretty)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_sample(args):
    import random
    spec = spec_from_json(_load(args.input))
    rng = random.Random(args.seed)
    A = sample_supermatrix(spec, rng)
    _emit({"matrix": _mat(args, A), "seed": args.seed}, args.pretty)
    return EXIT_OK


def cmd_integrality(args):
    doc = _load(args.input)
    ring = ring_from_json(doc["ring"])
    delta = delta_from_json(ring, doc["delta"])
    r = element_from_json(ring, doc["element"])
    cert = dets.integrality_certificate(r, delta, args.n, args.k)
    ok = cert.right_holds and cert.left_holds and cert.coefficients_fixed
    _emit({"degree": cert.degree,
           "right_coeffs": [_enc(args)(c) for c in cert.right_coeffs],
           "left_coeffs": [_enc(args)(c) for c in cert.left_coeffs],
           "right_holds": cert.right_holds,
           "left_holds": cert.left_holds,
           "coefficients_fixed": cert.coefficients_fixed}, args.pretty)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_example(args):
    spec, grid = example_algebra(args.name, n=args.n, g=args.g, d=args.d)
    out = {"spec": spec_to_json(spec),
           "shape": [[{"dim": cb.dim,
                       "basis": [_enc(args)(b) for b in cb.basis]}
                      for cb in row] for row in grid]}
    _emit(out, args.pretty)
    return EXIT_OK


def cmd_reproduce_all(args):
    report, timings = acceptance.reproduce_all(slow=args.slow)
    payload = acceptance.canonical_report(report["results"])
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(payload)
    for r in report["results"]:
        status = "PASS" if r["passed"] else "FAIL"
        t = timings.get(str(r["criterion"]))
        extra = f"  ({t:.2f}s)" if t is not None else ""
        print(f"criterion {r['criterion']:>2}  {status}  {r['name']}{extra}",
              file=sys.stderr)
    if not args.report:
        print(payload)
    return EXIT_OK if report["all_passed"] else EXIT_CHECK_FAILED


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lienil",
        description="Exact supermatrix algebra constructions and checks")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--pretty", action="store_true",
                       help="indented JSON output")
        p.set_defaults(fn=fn)
        return p

    p = add("transitive", cmd_transitive, help="transitive matrix tools")
    p.add_argument("action", choices=["check", "build", "blowup", "factor"])
    p.add_argument("input", help="JSON file or - for stdin")

    p = add("theta", cmd_theta, help="Hadamard multiplication by T")
    p.add_argument("input")

    p = add("sdet", cmd_sdet, help="symmetric determinant")
    p.add_argument("input")

    p = add("preadjoint", cmd_preadjoint, help="preadjoint matrix")
    p.add_argument("input")

    p = add("rdet", cmd_rdet, help="k-th right determinant")
    p.add_argument("input")
    p.add_argument("--k", type=int, default=1)
    p.set_defaults(side="right")

    p = add("ldet", cmd_rdet, help="k-th left determinant")
    p.add_argument("input")
    p.add_argument("--k", type=int, default=1)
    p.set_defaults(side="left")

    p = add("charpoly", cmd_charpoly, help="characteristic polynomial")
    p.add_argument("input")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--side", choices=["right", "left"], default="right")

    p = add("ch-check", cmd_ch_check, help="Cayley-Hamilton residual")
    p.add_argument("input")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--side", choices=["right", "left"], default="right")

    p = add("embed", cmd_embed, help="embed a ring element as a supermatrix")
    p.add_argument("input")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--root", type=int, default=0,
                   help="root-of-unity order (defaults to n)")

    p = add("conditions", cmd_conditions, help="embedding condition report")
    p.add_argument("input")

    p = add("membership", cmd_membership, help="supermatrix membership check")
    p.add_argument("input")

    p = add("sample", cmd_sample, help="sample a random member")
    p.add_argument("input")
    p.add_argument("--seed", type=int, required=True)

    p = add("integrality", cmd_integrality, help="integrality certificate")
    p.add_argument("input")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = add("example", cmd_example, help="build a worked example algebra")
    p.add_argument("name", choices=["5.1", "5.2", "5.3"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--g", type=int, default=4)

    p = add("reproduce-all", cmd_reproduce_all,
            help="run the full acceptance suite")
    p.add_argument("--slow", action="store_true",
                   help="include the degree-9 Cayley-Hamilton instance")
    p.add_argument("--report", default=None,
                   help="write the canonical report to this file")

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (dets.CostCapError, OrderCapError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_COST_CAP
    except (SerializationError, ScalarError, RingError, MatrixError,
            KeyError, ValueError) as exc:
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}),
              file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
