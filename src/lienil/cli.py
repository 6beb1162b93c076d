"""Command-line front end: constructions, checks, and example reproductions
with JSON input/output.

Every request takes one path: ``main`` reads the input document (its ring
decoded once), the subcommand's handler computes and returns its JSON
payload and exit code, and ``main`` prints the payload once, compact or,
under ``--pretty``, indented.

Exit codes: 0 success / check passed, 1 check failed (counterexample in the
output), 2 invalid input or an output that cannot be written, 3 cost cap
exceeded.

``console_main`` is the process entry (``lienil`` and ``python -m
lienil.cli``); ``main`` is the one to call in process.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import sys

from .matrices import (TransitiveMatrix, blow_up, factor_transitive,
                       is_transitive, theta, transitive_from_units)
from .rings import CostCapError, RingError
from .scalars import OrderCapError, ScalarError
from .serialize import (SerializationError, canonical_report,
                        delta_from_json, element_from_json, element_to_json,
                        field, matrix_from_json, matrix_to_json,
                        ring_from_json, spec_from_json, spec_to_json)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_COST_CAP = 3


def _verdict(ok):
    return EXIT_OK if ok else EXIT_CHECK_FAILED


class Document:
    """The JSON input object, read once, and its ring, decoded once.  Each
    kind of top-level field has one reader, which checks its JSON type and
    decodes it over that ring.  ``main`` turns a missing or mistyped field
    (SerializationError), an unreadable file, invalid JSON or JSON nested
    past the decoder's recursion limit into exit 2."""

    def __init__(self, path):
        try:
            if path == "-":
                doc = json.load(sys.stdin)
            else:
                with open(path, "r", encoding="utf-8") as fh:
                    doc = json.load(fh)
        except RecursionError:
            raise SerializationError("JSON input nests too deeply") from None
        if not isinstance(doc, dict):
            raise SerializationError("JSON input must be an object")
        self.doc = doc
        self.ring = ring_from_json(field(doc, "ring"))

    def matrix(self, key="matrix"):
        return matrix_from_json(self.ring, field(self.doc, key))

    def transitive(self, key="matrix"):
        return TransitiveMatrix(self.matrix(key))

    def element(self):
        return element_from_json(self.ring, field(self.doc, "element"))

    def delta(self):
        return delta_from_json(self.ring, field(self.doc, "delta"))

    def units(self):
        return [element_from_json(self.ring, u)
                for u in field(self.doc, "units", list)]

    def cuts(self):
        cuts = field(self.doc, "cuts", list)
        if not all(type(c) is int for c in cuts):
            raise SerializationError("cuts must be a list of integers")
        return cuts

    def spec(self):
        return spec_from_json(self.doc, self.ring)


# --- subcommand handlers: (document, args) -> (payload, exit code) ---

def cmd_transitive(doc, args):
    if args.action == "check":
        ok = is_transitive(doc.matrix())
        return {"transitive": ok}, _verdict(ok)
    if args.action == "build":
        T = transitive_from_units(doc.ring, doc.units())
    elif args.action == "blowup":
        T = blow_up(doc.transitive(), doc.cuts())
    else:
        units = factor_transitive(doc.transitive())
        return {"units": [element_to_json(u) for u in units]}, EXIT_OK
    return {"matrix": matrix_to_json(T.matrix)}, EXIT_OK


def cmd_theta(doc, args):
    T = doc.transitive("T")
    return {"matrix": matrix_to_json(theta(T, doc.matrix("A")))}, EXIT_OK


def cmd_sdet(doc, args):
    from . import dets
    return {"sdet": element_to_json(dets.sdet(doc.matrix()))}, EXIT_OK


def cmd_preadjoint(doc, args):
    from . import dets
    return {"matrix": matrix_to_json(dets.preadjoint(doc.matrix()))}, EXIT_OK


def cmd_rdet(doc, args):                 # rdet and ldet
    from . import dets
    fn = getattr(dets, args.command)
    return {args.command: element_to_json(fn(doc.matrix(), args.k)),
            "k": args.k}, EXIT_OK


def cmd_charpoly(doc, args):
    from . import dets
    p = dets.charpoly(doc.matrix(), args.k, side=args.side)
    return {"side": p.side, "k": p.k,
            "coeffs": [element_to_json(c) for c in p.coeffs]}, EXIT_OK


def cmd_ch_check(doc, args):
    from . import dets
    A = doc.matrix()
    res = dets.cayley_hamilton_check(A, args.k, side=args.side)
    zero = not any(e for row in res.rows for e in row)
    return {"matrix": matrix_to_json(A), "k": args.k, "side": args.side,
            "residual": matrix_to_json(res), "zero": zero}, _verdict(zero)


def cmd_embed(doc, args):
    from .supermatrix import root_embedding
    delta, r = doc.delta(), doc.element()
    A = root_embedding(r, delta, args.n)
    return {"matrix": matrix_to_json(A)}, EXIT_OK


def cmd_conditions(doc, args):
    from .supermatrix import check_embedding_conditions
    return check_embedding_conditions(doc.spec()).as_dict(), EXIT_OK


def cmd_membership(doc, args):
    from .supermatrix import is_supermatrix
    ok = is_supermatrix(doc.spec(), doc.matrix())
    return {"member": ok}, _verdict(ok)


def cmd_sample(doc, args):
    from .supermatrix import sample_supermatrix
    A = sample_supermatrix(doc.spec(), random.Random(args.seed))
    return {"matrix": matrix_to_json(A), "seed": args.seed}, EXIT_OK


def cmd_integrality(doc, args):
    from . import dets
    delta, r = doc.delta(), doc.element()
    cert = dets.integrality_certificate(r, delta, args.n, args.k)
    ok = cert.right_holds and cert.left_holds and cert.coefficients_fixed
    return {"degree": cert.degree,
            "right_coeffs": [element_to_json(c) for c in cert.right_coeffs],
            "left_coeffs": [element_to_json(c) for c in cert.left_coeffs],
            "right_holds": cert.right_holds,
            "left_holds": cert.left_holds,
            "coefficients_fixed": cert.coefficients_fixed}, _verdict(ok)


def cmd_example(doc, args):
    from .supermatrix import example_algebra
    spec, grid = example_algebra(args.name, n=args.n, g=args.g, d=args.d)
    return {"spec": spec_to_json(spec),
            "shape": [[{"dim": cb.dim,
                        "basis": [element_to_json(b) for b in cb.basis]}
                       for cb in row] for row in grid]}, EXIT_OK


def cmd_reproduce_all(doc, args):
    """The canonical report is the payload, or goes to --report; the
    per-criterion timings go to stderr."""
    from . import acceptance
    report, timings = acceptance.reproduce_all()
    results = report["results"]
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(canonical_report(results))
    for r in results:
        status = "PASS" if r["passed"] else "FAIL"
        t = timings.get(str(r["criterion"]))
        extra = f"  ({t:.2f}s)" if t is not None else ""
        print(f"criterion {r['criterion']:>2}  {status}  {r['name']}{extra}",
              file=sys.stderr)
    return (None if args.report else results), _verdict(report["all_passed"])


def _opt(*flags, **kwargs):
    return flags, kwargs


_K = _opt("--k", type=int, default=1)
_SIDE = _opt("--side", choices=["right", "left"], default="right")
_INPUT = _opt("input", help="JSON file or - for stdin")
# (name, handler, help, arguments after --pretty): one row per subcommand.
COMMANDS = [
    ("transitive", cmd_transitive, "transitive matrix tools",
     [_opt("action", choices=["check", "build", "blowup", "factor"]), _INPUT]),
    ("theta", cmd_theta, "Hadamard multiplication by T", [_INPUT]),
    ("sdet", cmd_sdet, "symmetric determinant", [_INPUT]),
    ("preadjoint", cmd_preadjoint, "preadjoint matrix", [_INPUT]),
    ("rdet", cmd_rdet, "k-th right determinant", [_K, _INPUT]),
    ("ldet", cmd_rdet, "k-th left determinant", [_K, _INPUT]),
    ("charpoly", cmd_charpoly, "characteristic polynomial",
     [_K, _SIDE, _INPUT]),
    ("ch-check", cmd_ch_check, "Cayley-Hamilton residual",
     [_K, _SIDE, _INPUT]),
    ("embed", cmd_embed, "embed a ring element as a supermatrix",
     [_opt("--n", type=int, required=True), _INPUT]),
    ("conditions", cmd_conditions, "embedding condition report", [_INPUT]),
    ("membership", cmd_membership, "supermatrix membership check", [_INPUT]),
    ("sample", cmd_sample, "sample a random member",
     [_opt("--seed", type=int, required=True), _INPUT]),
    ("integrality", cmd_integrality, "integrality certificate",
     [_opt("--n", type=int, required=True),
      _opt("--k", type=int, required=True), _INPUT]),
    ("example", cmd_example, "build a worked example algebra",
     [_opt("name", choices=["5.1", "5.2", "5.3"]),
      _opt("--n", type=int, required=True),
      _opt("--d", type=int, default=None),
      _opt("--g", type=int, default=4)]),
    ("reproduce-all", cmd_reproduce_all, "run the full acceptance suite",
     [_opt("--report", default=None,
           help="write the canonical report to this file")]),
]


class _Parser(argparse.ArgumentParser):
    """argparse's parser, whose help is one plain write: argparse's own
    ``_print_message`` swallows a failed write, so that a help written
    unbuffered to a closed stdout would exit 0.  Subparsers share the
    class."""

    def print_help(self, file=None):
        (file or sys.stdout).write(self.format_help())


def build_parser(argv=None):
    """The parser of ``argv``.  When argv[0] names a subcommand only that
    subparser is built, since nothing else can parse; its usage line still
    lists every command, so an error prints the same bytes.  Otherwise (no
    command, -h, an unknown name) all are built."""
    parser = _Parser(
        prog="lienil",
        description="Exact supermatrix algebra constructions and checks")
    names = [row[0] for row in COMMANDS]
    first = argv[0] if argv and argv[0] in names else None
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=first and "{" + ",".join(names) + "}")
    for name, fn, help, arguments in COMMANDS:
        if first and name != first:
            continue
        p = sub.add_parser(name, help=help)
        p.add_argument("--pretty", action="store_true",
                       help="indented JSON output")
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    try:
        doc = Document(args.input) if "input" in args else None
        payload, code = args.fn(doc, args)
    except (CostCapError, OrderCapError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_COST_CAP
    except (OSError, ScalarError, RingError, ValueError) as exc:
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}),
              file=sys.stderr)
        return EXIT_BAD_INPUT
    if payload is not None:      # compact output is the canonical encoding
        print(json.dumps(payload, sort_keys=True, indent=2) if args.pretty
              else canonical_report(payload))
    return code


def console_main():
    """Run ``main`` on the process's arguments and exit with its code.

    Before the process exits, on a return or an argparse exit alike,
    ``gc.freeze()`` moves every tracked object to the permanent generation,
    so the interpreter's shutdown collections do not scan the heap the
    request leaves behind (``gc.disable()`` would not stop them).  Only
    this entry freezes: ``main`` leaves an in-process caller's collector as
    it found it.

    A reader that closes stdout or stderr before the reply is written gets
    exit 2, as an unwritable ``--report`` file does, and no traceback.  The
    error goes to stderr if that is still open; then both are pointed at
    devnull, so that the interpreter's final flush has no pipe to fail on.
    """
    try:
        try:
            code = main()
        except SystemExit as exc:       # argparse: -h or a usage error
            code = exc.code
        sys.stdout.flush()
    except BrokenPipeError as exc:
        code = EXIT_BAD_INPUT
        try:
            print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}),
                  file=sys.stderr)
        except BrokenPipeError:
            pass
        devnull = os.open(os.devnull, os.O_WRONLY)
        for stream in (sys.stdout, sys.stderr):
            os.dup2(devnull, stream.fileno())
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    console_main()
