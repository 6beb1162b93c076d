"""The benchmark's three workloads: inputs from a seed, requests, checks.

A workload is a fixed cycle of request slots ("a block").  Block ``k`` of a
workload's pool of ``POOL`` blocks draws its matrices, elements and units from
a generator seeded with ``k`` alone, so every pool block has a committed
digest of its expected outputs.  The run's seed picks ``BLOCKS`` distinct pool
blocks and their order; set-up builds those.  The timed loop sends them one
at a time (a closed loop with one client), ends at a block boundary, and
starts again from the first block if it runs out.  The slot order is the same
in every block, so every run sees the same mix of operations.

Every request calls into lienil through module attributes (``dets.sdet``),
never through names bound at import, so that the tracer's wrappers apply.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass

from lienil import (cli, dets, grassmann, matrices, rings, serialize,
                    supermatrix)
from lienil.scalars import CyclotomicField


@dataclass
class Request:
    op: str        # operation, e.g. "sdet"
    label: str     # the input class, e.g. "5.1 n=3 g=4 Q"
    args: tuple


def pick_blocks(name, seed, count, pool):
    """The pool blocks, in order, that the run with ``seed`` uses."""
    return random.Random(f"{name}/{seed}").sample(range(pool), count)


def block_rng(name, block):
    """The generator of pool block ``block``; it depends on nothing else."""
    return random.Random(f"{name}/block/{block}")


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:10]


def _dumps(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _field_name(order):
    return {1: "Q", 3: "Q(zeta3)", 4: "Q(i)", 5: "Q(zeta5)"}[order]


def _example(name, n, g, order, d=None):
    """(spec, shape grid) for a worked example over Q(zeta_order)."""
    return supermatrix.example_algebra(name, n=n, g=g, d=d,
                                       field=CyclotomicField(order))


def _encode(value):
    """Canonical JSON text of a lienil result, through lienil's encoders."""
    if isinstance(value, matrices.Matrix):
        return _dumps(serialize.matrix_to_json(value))
    if isinstance(value, dets.CharPoly):
        return _dumps({"side": value.side, "k": value.k,
                       "coeffs": [serialize.element_to_json(c)
                                  for c in value.coeffs]})
    if isinstance(value, dets.IntegralityCertificate):
        return _dumps({
            "degree": value.degree,
            "right": [serialize.element_to_json(c) for c in value.right_coeffs],
            "left": [serialize.element_to_json(c) for c in value.left_coeffs],
            "holds": [value.right_holds, value.left_holds,
                      value.coefficients_fixed]})
    return _dumps(serialize.element_to_json(value))


# ---------------------------------------------------------------------------
# det_stream: determinant-family requests on sampled supermatrices
# ---------------------------------------------------------------------------

# spec key -> (example, n, g, field order, d)
DET_SPECS = {
    "5.1 n=2 g=4 Q(zeta3)": ("5.1", 2, 4, 3, 1),
    "5.1 n=2 g=5 Q": ("5.1", 2, 5, 1, 1),
    "5.1 n=3 g=4 Q": ("5.1", 3, 4, 1, 1),
    "5.1 n=4 g=4 Q": ("5.1", 4, 4, 1, 2),
    "5.2 n=3 g=4 Q(zeta3)": ("5.2", 3, 4, 3, None),
    "5.3 n=2 g=4 Q": ("5.3", 2, 4, 1, 1),
    "5.3 n=2 g=6 Q": ("5.3", 2, 6, 1, 1),
    "5.3 n=3 g=4 Q": ("5.3", 3, 4, 1, 1),
}

# One block, in order: (op, input class).  The costs fall into six cheap
# classes, four middle ones of nearly equal cost (rdet2/ldet2 on 5.2 n=3,
# sdet on 5.1 n=3, preadjoint on 5.3 n=3) and five dear ones, so the median
# latency always lands inside the middle group rather than on a gap between
# two classes.
DET_SLOTS = [
    ("sdet", "5.1 n=3 g=4 Q"),
    ("preadjoint", "5.2 n=3 g=4 Q(zeta3)"),
    ("rdet2", "5.1 n=2 g=5 Q"),
    ("ldet2", "5.3 n=2 g=4 Q"),
    ("charpoly1_right", "5.2 n=3 g=4 Q(zeta3)"),
    ("charpoly1_left", "5.3 n=2 g=6 Q"),
    ("charpoly2", "5.1 n=2 g=4 Q(zeta3)"),
    ("ch_check2", "5.3 n=2 g=4 Q"),
    ("integrality", "E g=4 Q"),
    ("sdet", "5.1 n=4 g=4 Q"),
    ("preadjoint", "5.3 n=3 g=4 Q"),
    ("rdet2", "5.2 n=3 g=4 Q(zeta3)"),
    ("integrality", "E g=6 Q(zeta3)"),
    ("sdet", "random n=5 g=4 Q"),
    ("ldet2", "5.2 n=3 g=4 Q(zeta3)"),
]

DET_OPS = {
    "sdet": lambda A: dets.sdet(A),
    "preadjoint": lambda A: dets.preadjoint(A),
    "rdet2": lambda A: dets.rdet(A, 2),
    "ldet2": lambda A: dets.ldet(A, 2),
    "charpoly1_right": lambda A: dets.charpoly(A, 1, side="right"),
    "charpoly1_left": lambda A: dets.charpoly(A, 1, side="left"),
    "charpoly2": lambda A: dets.charpoly(A, 2),
    "ch_check2": lambda A: dets.cayley_hamilton_check(A, 2),
    "integrality": lambda r, delta: dets.integrality_certificate(r, delta, 2, 2),
}


def _sparse_random_matrix(algebra, rng, n, density=0.4):
    """Diagonal entries are a unit (a scalar plus one monomial), so sdet is
    never zero; off-diagonal entries are zero or a single +-1, +-2 monomial."""
    def monomial():
        return {rng.randrange(algebra.dim): rng.choice((-2, -1, 1, 2))}

    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                coeffs = {rng.randrange(1, algebra.dim): rng.choice((-1, 1)),
                          0: rng.choice((-2, -1, 1, 2))}
            else:
                coeffs = monomial() if rng.random() < density else {}
            row.append(algebra.element(coeffs))
        rows.append(row)
    return matrices.Matrix(algebra, rows)


class DetStream:
    name = "det_stream"
    BLOCKS = 16
    POOL = 64

    def setup(self, seed):
        self.blocks = pick_blocks(self.name, seed, self.BLOCKS, self.POOL)
        return self.build(self.blocks)

    def build(self, blocks):
        specs = {key: _example(*params[:4], d=params[4])
                 for key, params in DET_SPECS.items()}
        algebras = {"E g=4 Q": grassmann.GrassmannAlgebra(4, CyclotomicField(1)),
                    "E g=6 Q(zeta3)": grassmann.GrassmannAlgebra(6, CyclotomicField(3)),
                    "random n=5 g=4 Q": grassmann.GrassmannAlgebra(4, CyclotomicField(1))}
        epsilons = {k: grassmann.epsilon(a, validate=False)
                    for k, a in algebras.items()}
        requests = []
        for k in blocks:
            rng = block_rng(self.name, k)
            for op, label in DET_SLOTS:
                if op == "integrality":
                    r = algebras[label].random_element(rng)
                    requests.append(Request(op, label, (r, epsilons[label])))
                elif label.startswith("random"):
                    A = _sparse_random_matrix(algebras[label], rng, 5)
                    requests.append(Request(op, label, (A,)))
                else:
                    spec, grid = specs[label]
                    A = supermatrix.sample_supermatrix(spec, rng, grid)
                    requests.append(Request(op, label, (A, spec.delta)))
        return requests

    def inputs_text(self, requests):
        return "\n".join(f"{r.op}|{r.label}|{_encode(r.args[0])}"
                         for r in requests)

    def execute(self, req):
        if req.op == "integrality":
            return DET_OPS[req.op](*req.args)
        return DET_OPS[req.op](req.args[0])

    def canonical(self, req, out):
        return _encode(out)

    def check(self, req, out):
        """An independent route where one exists; otherwise the identities
        the paper proves for the result."""
        op = req.op
        if op == "integrality":
            ok = out.right_holds and out.left_holds and out.coefficients_fixed
            return None if ok else "integrality certificate does not hold"
        A = req.args[0]
        n = A.nrows
        if op == "sdet":
            return None if out == dets.sdet_first_form(A) else \
                "sdet differs from sdet_first_form"
        if op == "preadjoint":
            return None if out == dets.preadjoint_via_minors(A) else \
                "preadjoint differs from preadjoint_via_minors"
        delta = req.args[1]
        if op in ("rdet2", "ldet2"):
            return None if rings.fixed_ring_member(delta, out) else \
                f"{op} outside the fixed ring"
        if op.startswith("charpoly"):
            k = 2 if op == "charpoly2" else 1
            lead = A.ring.from_scalar(dets.leading_coefficient_value(n, k))
            if len(out.coeffs) != n ** k + 1 or out.coeffs[-1] != lead:
                return "characteristic polynomial leading term"
            if not all(rings.fixed_ring_member(delta, c) for c in out.coeffs):
                return "characteristic polynomial coefficient outside the fixed ring"
            return None
        if op == "ch_check2":
            return None if not any(e for row in out.rows for e in row) else \
                "nonzero Cayley-Hamilton residual"
        return f"no check for {op}"


# ---------------------------------------------------------------------------
# construct_cyc: constructions and checks over Q(zeta3), Q(i), Q(zeta5)
# ---------------------------------------------------------------------------

# spec key -> (example, n, g, field order)
CYC_SPECS = {
    "5.2 n=3 g=4 Q(zeta3)": ("5.2", 3, 4, 3),
    "5.2 n=4 g=4 Q(i)": ("5.2", 4, 4, 4),
    "5.2 n=5 g=4 Q(zeta5)": ("5.2", 5, 4, 5),
    "5.2 n=3 g=5 Q(zeta3)": ("5.2", 3, 5, 3),
    "5.2 n=2 g=6 Q(i)": ("5.2", 2, 6, 4),
}

# (op, input class); transitive inputs are (g, field order, n, blown-up n).
# Seven cheap classes, three slots of the Q(i) n=4 shape, and seven dear
# classes.  A shape request does the same work in every block, while the
# cost of the other middle-priced requests varies with their random inputs;
# the three shape slots straddle the middle of the block's cost order, so
# the median latency lands on a shape request in every run.
CYC_SLOTS = [
    ("transitive", (4, 4, 11, None)),
    ("shape", "5.2 n=4 g=4 Q(i)"),
    ("closure", "5.2 n=3 g=4 Q(zeta3)"),
    ("verify", "5.2 n=3 g=4 Q(zeta3)"),
    ("shape", "5.2 n=4 g=4 Q(i)"),
    ("closure", "5.2 n=4 g=4 Q(i)"),
    ("conditions", "5.2 n=4 g=4 Q(i)"),
    ("shape", "5.2 n=5 g=4 Q(zeta5)"),
    ("closure", "5.2 n=5 g=4 Q(zeta5)"),
    ("conditions", "5.2 n=5 g=4 Q(zeta5)"),
    ("shape", "5.2 n=3 g=5 Q(zeta3)"),
    ("closure", "5.2 n=3 g=5 Q(zeta3)"),
    ("shape", "5.2 n=2 g=6 Q(i)"),
    ("shape", "5.2 n=4 g=4 Q(i)"),
    ("transitive", (4, 3, 10, None)),
    ("blowup_square", (5, 4, 6, 12)),
    ("blowup_square", (4, 5, 5, 10)),
]


def _cyc_unit(algebra, rng):
    """A rational times a root of unity, plus one nilpotent monomial: a unit
    of the Grassmann algebra whose inverse has a nilpotent part."""
    field = algebra.field
    c = field.from_fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
    c = c * field.e ** rng.randrange(field.order)
    m = field.from_fraction(rng.choice((-1, 1)))
    return algebra.element({0: c, rng.randrange(1, algebra.dim): m})


class ConstructCyc:
    name = "construct_cyc"
    BLOCKS = 8
    POOL = 32

    def setup(self, seed):
        self.blocks = pick_blocks(self.name, seed, self.BLOCKS, self.POOL)
        return self.build(self.blocks)

    def build(self, blocks):
        specs = {key: _example(*params) for key, params in CYC_SPECS.items()}
        algebras = {}
        requests = []
        for k in blocks:
            rng = block_rng(self.name, k)
            for op, what in CYC_SLOTS:
                if op in ("transitive", "blowup_square"):
                    g, order, n, m = what
                    key = (g, order)
                    if key not in algebras:
                        algebras[key] = grassmann.GrassmannAlgebra(
                            g, CyclotomicField(order))
                    E = algebras[key]
                    units = [_cyc_unit(E, rng) for _ in range(n)]
                    label = f"E g={g} {_field_name(order)} n={n}"
                    if op == "transitive":
                        requests.append(Request(op, label, (E, units)))
                        continue
                    T = matrices.transitive_from_units(E, units)
                    cuts = sorted(rng.sample(range(1, m), n - 1)) + [m]
                    requests.append(Request(op, f"{label}->{m}", (T, cuts)))
                    continue
                spec, grid = specs[what]
                if op == "shape":
                    requests.append(Request(op, what, CYC_SPECS[what]))
                elif op == "closure":
                    A = supermatrix.sample_supermatrix(spec, rng, grid)
                    B = supermatrix.sample_supermatrix(spec, rng, grid)
                    requests.append(Request(op, what, (spec, A, B)))
                elif op == "verify":
                    pairs = [(spec.ring.random_element(rng),
                              spec.ring.random_element(rng)) for _ in range(2)]
                    requests.append(Request(op, what, (spec, pairs)))
                else:
                    requests.append(Request(op, what, (spec,)))
        return requests

    def inputs_text(self, requests):
        lines = []
        for r in requests:
            if r.op == "shape":
                body = repr(r.args)
            elif r.op == "closure":
                body = _encode(r.args[1]) + _encode(r.args[2])
            elif r.op == "verify":
                body = "".join(_encode(x) + _encode(y) for x, y in r.args[1])
            elif r.op == "transitive":
                body = "".join(_encode(u) for u in r.args[1])
            elif r.op == "blowup_square":
                body = _encode(r.args[0].matrix) + repr(r.args[1])
            else:
                body = ""
            lines.append(f"{r.op}|{r.label}|{body}")
        return "\n".join(lines)

    def execute(self, req):
        op, args = req.op, req.args
        if op == "shape":
            return _example(*args)
        if op == "closure":
            return supermatrix.closure_check(args[0], args[1], args[2],
                                             scalars=(1, 2))
        if op == "verify":
            return supermatrix.verify_embedding(args[0], args[1])
        if op == "conditions":
            return supermatrix.check_embedding_conditions(args[0])
        if op == "transitive":
            return matrices.transitive_from_units(*args)
        if op == "blowup_square":
            big = matrices.blow_up(*args)
            return big, matrices.transitive_square(big)
        raise ValueError(op)

    def canonical(self, req, out):
        op = req.op
        if op == "shape":
            spec, grid = out
            return _dumps({"spec": serialize.spec_to_json(spec),
                           "shape": [[[serialize.element_to_json(b)
                                       for b in cb.basis] for cb in row]
                                     for row in grid]})
        if op in ("closure", "verify"):
            return _dumps(bool(out))
        if op == "conditions":
            return _dumps(out.as_dict())
        if op == "transitive":
            return _encode(out.matrix)
        big, sq = out
        return _encode(big.matrix) + _encode(sq)

    def check(self, req, out):
        op = req.op
        if op == "shape":
            spec, grid = out
            n, E = spec.n, spec.ring
            for i in range(n):
                for j in range(n):
                    expected = grassmann.graded_component_basis(E, (i - j) % n, n)
                    if not grid[i][j].same_span(expected):
                        return f"5.2 shape entry ({i + 1},{j + 1})"
            return None
        if op == "closure":
            return None if out is True else "closure_check failed"
        if op == "verify":
            return None if out.ok else f"verify_embedding: {out.failures[0][0]}"
        if op == "conditions":
            d = out.as_dict()
            needed = ["first_column_central_units", "t_power_n_is_one",
                      "power_sums_vanish", "inverse_power_sums_vanish",
                      "t_in_fixed_ring", "delta_order_n",
                      "inverse_sum_condition_redundant"]
            missing = [k for k in needed if not d[k]]
            return f"conditions report: {missing}" if missing else None
        if op == "transitive":
            E, units = req.args
            inv = [E.try_invert(u) for u in units]
            for i, gi in enumerate(units):
                for j, hj in enumerate(inv):
                    if out.matrix.rows[i][j] != gi * hj:
                        return f"t_{i + 1}{j + 1} != g_i g_j^-1"
            return _square_check(out.matrix)
        big, sq = out
        return _square_check(big.matrix, sq)


def _square_check(T, sq=None):
    """T^2 = nT, with the product recomputed entry by entry."""
    n = T.nrows
    for i in range(n):
        for j in range(n):
            acc = T.ring.zero
            for k in range(n):
                acc = acc + T.rows[i][k] * T.rows[k][j]
            if acc != T.rows[i][j] * n:
                return "T^2 != nT"
            if sq is not None and sq.rows[i][j] != acc:
                return "transitive_square output differs from T^2"
    return None


# ---------------------------------------------------------------------------
# cli_cold: one fresh `python -m lienil.cli` process per request
# ---------------------------------------------------------------------------

EXIT_OK, EXIT_CHECK_FAILED, EXIT_BAD_INPUT, EXIT_COST_CAP = 0, 1, 2, 3


@dataclass
class Doc:
    name: str
    argv: list           # subcommand and options; "{file}" is the input path
    body: object         # JSON document, or None (no file / missing file)
    expected_exit: int   # from the CLI's documented contract


CLI_SPECS = {"5.1 n=3": ("5.1", 3, 4, 1, 1), "5.2 n=3": ("5.2", 3, 4, 3),
             "5.3 n=2": ("5.3", 2, 4, 1, 1), "5.1 n=2": ("5.1", 2, 4, 1, 1)}


def _cli_docs(rng, specs):
    """The timed documents, then the known-defect probes.  Expected exit
    codes follow the documented contract (0 success, 1 check failed,
    2 invalid input, 3 over the cost cap), not the current behaviour."""
    enc, mat = serialize.element_to_json, serialize.matrix_to_json
    ring = serialize.ring_to_json

    def member(key):
        spec, grid = specs[key]
        return spec, supermatrix.sample_supermatrix(spec, rng, grid)

    s51, A51 = member("5.1 n=3")
    s52, A52 = member("5.2 n=3")
    s53, A53 = member("5.3 n=2")
    s51b, A51b = member("5.1 n=2")
    E3 = grassmann.GrassmannAlgebra(4, CyclotomicField(3))
    E1 = grassmann.GrassmannAlgebra(4, CyclotomicField(1))
    units = [_cyc_unit(E3, rng) for _ in range(3)]
    T = matrices.transitive_from_units(E3, units)

    names = ["a", "b", "c", "d"]
    def poly():
        terms = []
        for _ in range(rng.randrange(1, 3)):
            c = rng.choice((-3, -2, -1, 1, 2, 3))
            mono = "*".join(rng.sample(names, rng.randrange(0, 3)))
            terms.append(f"{c}*{mono}" if mono else str(c))
        return " + ".join(terms)
    n_or = rng.choice((2, 3))
    oracle = {"ring": {"type": "oracle", "variables": names},
              "matrix": {"n": n_or, "entries": [[poly() for _ in range(n_or)]
                                                for _ in range(n_or)]}}
    G2 = {"type": "grassmann", "g": 2, "root_order": 1}
    n6 = [["1" if i == j else ("0" if rng.random() < 0.7 else str(rng.randrange(1, 4)))
           for j in range(6)] for i in range(6)]

    timed = [
        Doc("sdet", ["sdet", "{file}"],
            {"ring": ring(s51.ring), "matrix": mat(A51)}, EXIT_OK),
        Doc("preadjoint", ["preadjoint", "{file}"],
            {"ring": ring(s52.ring), "matrix": mat(A52)}, EXIT_OK),
        Doc("charpoly", ["charpoly", "{file}", "--k", "1", "--side", "left"],
            {"ring": ring(s53.ring), "matrix": mat(A53)}, EXIT_OK),
        Doc("ch-check", ["ch-check", "{file}", "--k", "2"],
            {"ring": ring(s51b.ring), "matrix": mat(A51b)}, EXIT_OK),
        Doc("membership", ["membership", "{file}"],
            dict(serialize.spec_to_json(s52), matrix=mat(A52)), EXIT_OK),
        Doc("sample", ["sample", "{file}", "--seed", str(rng.randrange(10 ** 6))],
            serialize.spec_to_json(s51b), EXIT_OK),
        Doc("embed", ["embed", "{file}", "--n", "3"],
            {"ring": ring(E3), "delta": "rho_e:3",
             "element": enc(E3.random_element(rng))}, EXIT_OK),
        Doc("conditions", ["conditions", "{file}"],
            serialize.spec_to_json(s52), EXIT_OK),
        Doc("transitive-check", ["transitive", "check", "{file}"],
            {"ring": ring(E3), "matrix": mat(T.matrix)}, EXIT_OK),
        Doc("transitive-build", ["transitive", "build", "{file}"],
            {"ring": ring(E3), "units": [enc(u) for u in units]},
            EXIT_OK),
        Doc("transitive-factor", ["transitive", "factor", "{file}"],
            {"ring": ring(E3), "matrix": mat(T.matrix)}, EXIT_OK),
        Doc("integrality", ["integrality", "{file}", "--n", "2", "--k", "2"],
            {"ring": ring(E1), "delta": "epsilon",
             "element": enc(E1.random_element(rng))}, EXIT_OK),
        Doc("example", ["example", rng.choice(("5.1", "5.2", "5.3")),
                        "--n", str(rng.choice((2, 3))), "--g", "4"],
            None, EXIT_OK),
        Doc("oracle-sdet", ["sdet", "{file}"], oracle, EXIT_OK),
        Doc("over-cap", ["sdet", "{file}"],
            {"ring": G2, "matrix": {"n": 6, "entries": n6}}, EXIT_COST_CAP),
        Doc("unknown-ring", ["sdet", "{file}"],
            {"ring": {"type": rng.choice(("quaternion", "octonion", "mystery"))},
             "matrix": {"n": 1, "entries": [["1"]]}}, EXIT_BAD_INPUT),
        Doc("missing-file", ["sdet", "{missing}"], None, EXIT_BAD_INPUT),
    ]
    probes = [
        Doc("integer-entries", ["sdet", "{file}"],
            {"ring": G2, "matrix": {"n": 2, "entries": [
                [rng.randrange(1, 9) for _ in range(2)] for _ in range(2)]}},
            EXIT_BAD_INPUT),
        Doc("top-level-list", ["sdet", "{file}"],
            [rng.randrange(1, 9) for _ in range(3)], EXIT_BAD_INPUT),
        Doc("oracle-div-zero", ["sdet", "{file}"],
            {"ring": {"type": "oracle", "variables": ["a"]},
             "matrix": {"n": 1, "entries": [["1/0"]]}}, EXIT_BAD_INPUT),
    ]
    return timed, probes


def has_traceback(stderr):
    return "Traceback (most recent call last)" in stderr


class CliCold:
    """Each request is one cold CLI process; the benchmark process writes the
    input files during set-up and checks every reply against an in-process
    ``lienil.cli.main`` run on the same file."""

    name = "cli_cold"
    BLOCKS = 2
    POOL = 32

    def __init__(self, workdir, src_dir, launcher=None):
        self.workdir = workdir
        self.launcher = launcher      # the tracing launcher script
        self.env = dict(os.environ)
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src_dir + (os.pathsep + path if path else "")
        self._expected = {}

    def setup(self, seed):
        self.blocks = pick_blocks(self.name, seed, self.BLOCKS, self.POOL)
        return self.build(self.blocks)

    def build(self, blocks):
        os.makedirs(self.workdir, exist_ok=True)
        specs = {key: _example(*params) for key, params in CLI_SPECS.items()}
        requests, self.probes = [], []
        for b, k in enumerate(blocks):
            timed, probes = _cli_docs(block_rng(self.name, k), specs)
            for d in timed:
                requests.append(Request("cli", d.name, (self._materialise(b, d),)))
            if b == 0:
                self.probes = [Request("probe", d.name, (self._materialise(b, d),))
                               for d in probes]
        return requests

    def _materialise(self, block, doc):
        path = os.path.join(self.workdir, f"b{block}-{doc.name}.json")
        if doc.body is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(doc.body, sort_keys=True))
        missing = os.path.join(self.workdir, f"b{block}-absent.json")
        argv = [a.replace("{file}", path).replace("{missing}", missing)
                for a in doc.argv]
        return Doc(doc.name, argv, doc.body, doc.expected_exit)

    def inputs_text(self, requests):
        return "\n".join(
            f"{r.label}|{' '.join(os.path.basename(a) for a in r.args[0].argv)}|"
            f"{json.dumps(r.args[0].body, sort_keys=True)}"
            for r in requests + self.probes)

    def execute(self, req, trace_out=None):
        doc = req.args[0]
        if trace_out is None:
            cmd = [sys.executable, "-m", "lienil.cli"] + doc.argv
        else:
            cmd = [sys.executable, self.launcher, trace_out] + doc.argv
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=self.env, timeout=60)
        return proc.returncode, proc.stdout, proc.stderr

    def expected(self, req):
        """(exit code, stdout) of ``lienil.cli.main`` run in this process."""
        key = tuple(req.args[0].argv)
        if key not in self._expected:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(key))
                except Exception:      # the subprocess shows it as exit 1
                    code = EXIT_CHECK_FAILED
            self._expected[key] = (code, out.getvalue())
        return self._expected[key]

    def canonical(self, req, out):
        code, stdout, _ = out
        return _dumps({"exit": code, "stdout": stdout})

    def check(self, req, out):
        code, stdout, stderr = out
        doc = req.args[0]
        if has_traceback(stderr):
            return "traceback on stderr"
        if code != doc.expected_exit:
            return f"exit {code}, expected {doc.expected_exit}"
        exp_code, exp_stdout = self.expected(req)
        if (code, stdout) != (exp_code, exp_stdout):
            return "reply differs from the in-process result"
        return None

