#!/usr/bin/env python3
"""Micro-benchmark of the scalar, Grassmann, determinant and oracle layers,
and of a cold CLI.

Prints microseconds per operation for ``Cyc`` multiplication, addition and
inverse over Q(zeta_n) at n = 1, 3, 4, 5, and for Grassmann multiplication
at g = 4 and 8 over Q, Q(zeta3) and Q(zeta5) (rows suffixed ``_n3`` and
``_n5``).  There are three Grassmann pools, with integer coefficients:
``grassmann_mul`` multiplies random 4-term (g = 4) or 12-term (g = 8)
elements, ``grassmann_one_dense`` a one-term element and one on every
monomial (in either order), and ``grassmann_three`` two 3-term elements;
``grassmann_add`` adds the operands of ``grassmann_mul``.  ``grassmann_dot4_g4``
times one ``GrassmannAlgebra.dot`` of four products of the g = 4 operands
of ``grassmann_mul`` over Q, the sum behind one entry of a 4 x 4 matrix
product.
Operands come from fixed seeds, so two checkouts time the same inputs.
Each figure is the best of several repeats of a loop over a fixed pool of
operands.

The determinant section prints the milliseconds of ``sdet`` and
``preadjoint`` on a seeded n x n matrix of random g = 4 Grassmann elements
over Q, at n = 3, 4, 5, of ``sdet`` and ``preadjoint`` on a seeded sparse
5 x 5 matrix at g = 4 (a unit diagonal; each off-diagonal entry is one
monomial with probability 0.4, else zero), of ``sdet`` on a seeded member
of example 5.1 at n = 4, d = 2, g = 4 (det_stream's dearest class), of
the adjoint chains on the n = 3 matrix: ``rdet`` at k = 2, ``charpoly`` at
k = 1 and the Cayley-Hamilton residual at k = 2 (``lienil rdet --k 2``,
``charpoly --k 1`` and ``ch-check --k 2``), of ``charpoly`` at k = 1 on a
seeded member of example 5.2 at n = 3, g = 4 over Q(zeta3)
(``charpoly1_5_2_n3_zeta3``, a det_stream class), and of the product of
two seeded 4 x 4 matrices whose g = 4 entries have all 16 monomials, over
Q and over Q(zeta3) (``matmul_n4``, ``matmul_n4_zeta3``).  Each is the
best of three calls in this interpreter.  Next to each time it prints the
Grassmann ring multiplies of one more call, counted by wrapping
``GrassmannElement.__mul__`` and ``GrassmannAlgebra.dot`` in this script,
and on the ``sdet``/``preadjoint`` rows the items that call hands to
``map_reduce_sum`` (what the benchmark's ``dets.perm_terms`` counts).

The construction section prints the milliseconds of two construct_cyc
classes of the benchmark: the shape of example 5.2 over Q(i) at n = 4,
g = 4 and at n = 2, g = 6 (``shape_5_2_n4_g4``, ``shape_5_2_n2_g6``), with
the ``solve_constraint`` calls each makes, and the blow-up of a seeded
transitive 6 x 6 matrix of g = 5 units over Q(i) to 12 x 12 and its
square (``blowup_square_g5_12``), with the ``GrassmannAlgebra.dot`` calls
of the square (the blow-up's transitivity check multiplies through
``GrassmannElement.__mul__`` and is not counted).  Each is the best of
three calls in this interpreter.

The oracle section prints the wall seconds of acceptance criterion 3
(``sdet = n! det`` and ``A* = (n-1)! adj`` on symbolic n = 2, 3, 4) and
the milliseconds of ``sdet`` and ``preadjoint`` on the symbolic n x n
matrix [a_ij] at n = 3 and 4.  Each is one call in a fresh interpreter,
after the imports, so that no cache filled by an earlier call helps; the
median of three such runs is printed.

The cold-start section prints the median wall milliseconds of a fresh
interpreter for ``python -c pass`` and for nine ``python -m lienil.cli``
requests: ``sdet`` on a 2x2 Grassmann document and on a 2x2 oracle
document, ``charpoly --k 1`` on the Grassmann document,
``example 5.2 --n 3 --g 4``, ``sdet`` on a missing file (exit 2), and the
four cli_cold kinds ``transitive check`` (a seeded transitive 3x3 of g = 4
units over Q(zeta3)), ``embed --n 3`` (a seeded element of that ring under
``rho_e:3``), ``integrality --n 2 --k 2`` (a seeded g = 4 element over Q
under ``epsilon``) and ``sample --seed 1`` (the spec of example 5.1 at
n = 2, d = 1, g = 4).  The runs alternate, so drift in the machine's load
reaches all of them alike.
Under each request it names the lienil modules the request loads, read
from one more run under ``-X importtime`` (``lienil.cli``, which runs as
``__main__``, is added to them), with their source lines: the code a cold
request compiles when no bytecode is cached.  Last, ``reproduce_all_s``
is the median wall seconds of three cold ``reproduce-all --report`` runs,
each checked to exit 0 and write ``tests/data/reproduce_all_report.json``'s
bytes.

Usage: python3 scripts/bench.py [--label NAME] [--out FILE]

The package is imported from ``src/`` next to this script.  With ``--out``
the figures are stored under ``--label`` in that JSON file, next to the
labels it already holds, with the host they were measured on.
"""

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
sys.path.insert(0, SRC)

from lienil import dets, serialize, supermatrix  # noqa: E402
from lienil.grassmann import GrassmannAlgebra, GrassmannElement  # noqa: E402
from lienil.matrices import (Matrix, blow_up,  # noqa: E402
                             transitive_from_units, transitive_square)
from lienil.scalars import QQ, CyclotomicField  # noqa: E402
from lienil.supermatrix import (example_5_1, example_5_2,  # noqa: E402
                                sample_supermatrix, shape)

ORDERS = (1, 3, 4, 5)
GENERATORS = (4, 8)
GRASSMANN_ORDERS = (1, 3, 5)
POOL = 64
REPEATS = 9
DET_SIZES = (3, 4, 5)
DET_REPEATS = 3
SPARSE_N = 5
SPARSE_DENSITY = 0.4
EXAMPLE_5_1 = (4, 2, 4)       # n, d, g: det_stream's dearest sdet class
EXAMPLE_5_2 = (3, 4)          # n, g: det_stream's charpoly1_right class
MATMUL_N = 4
CHAIN_N = 3
SHAPES = ((4, 4), (2, 6))     # (n, g) of example 5.2 over Q(i)
BLOWUP = (5, 6, 12)           # g, n and blown-up size, over Q(i)
CHAINS = {"rdet2": lambda A: dets.rdet(A, 2),
          "charpoly1": lambda A: dets.charpoly(A, 1),
          "ch_check2": lambda A: dets.cayley_hamilton_check(A, 2)}
ORACLE_REPEATS = 3
# One timed oracle call (argv[1]: criterion_3 or <sdet|preadjoint>_n<n>).
ORACLE_SNIPPET = """
import sys, time
from lienil import Matrix, OracleRing, dets
from lienil.acceptance import criterion_3_oracle_equivalence
what = sys.argv[1]
if what == "criterion_3":
    t0 = time.perf_counter()
    assert criterion_3_oracle_equivalence()[0]
else:
    name, n = what.split("_n")
    n = int(n)
    ring = OracleRing([f"a{i}{j}" for i in range(n) for j in range(n)])
    A = Matrix(ring, [[ring.var(f"a{i}{j}") for j in range(n)]
                      for i in range(n)])
    t0 = time.perf_counter()
    getattr(dets, name)(A)
print(time.perf_counter() - t0)
"""
COLD_REPEATS = 15
COLD_DOCS = {
    "grassmann_sdet": {
        "ring": {"type": "grassmann", "g": 2, "root_order": 1},
        "matrix": {"n": 2, "entries": [["1", {"coeffs": {"1": "1"}}],
                                       [{"coeffs": {"2": "1"}}, "2"]]}},
    "oracle_sdet": {
        "ring": {"type": "oracle", "variables": ["a", "b", "c"]},
        "matrix": {"n": 2, "entries": [["a^2 - 3*b/2", "2*(a + 1)"],
                                       ["-b*c + 7", "(a - b)**2/3"]]}},
}
REPRODUCE_ALL_REPEATS = 3


def _best_us(fn, pairs, loops):
    """Best-of-REPEATS microseconds per call of ``fn`` over ``pairs``."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(loops):
            for a, b in pairs:
                fn(a, b)
        best = min(best, time.perf_counter() - t0)
    return best / (loops * len(pairs)) * 1e6


def _scalar(field, rng):
    """Small rationals: mostly integers, some thirds and halves."""
    return field.element([Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3)))
                          for _ in range(field.degree)])


def scalar_cases(order):
    field = CyclotomicField(order)
    rng = random.Random(1000 + order)
    xs = [_scalar(field, rng) for _ in range(POOL)]
    pairs = list(zip(xs, xs[1:] + xs[:1]))
    nonzero = [(x, None) for x in xs if x]
    loops = 20 if order == 1 else 5
    return {
        f"cyc_mul_n{order}": _best_us(lambda a, b: a * b, pairs, loops),
        f"cyc_add_n{order}": _best_us(lambda a, b: a + b, pairs, loops),
        f"cyc_inverse_n{order}": _best_us(lambda a, b: a.inverse(), nonzero,
                                          max(1, loops // 5)),
    }


def grassmann_cases(g, order):
    """Grassmann products over Q(zeta_order) with integer coefficients in
    -5..5: the pool of 4-term (g = 4) or 12-term (g = 8) operands, one-term
    times dense operands (in either order) and 3-term times 3-term
    operands."""
    algebra = GrassmannAlgebra(g, CyclotomicField(order))
    field = algebra.field
    rng = random.Random(2000 + g + 100 * (order - 1))

    def coefficient():
        return field.element([rng.randint(-5, 5)
                              for _ in range(field.degree)])

    def element(masks):
        return algebra.element({m: coefficient() for m in masks})

    terms = 4 if g == 4 else 12
    xs = [algebra.element({rng.randrange(algebra.dim): coefficient()
                           for _ in range(terms)}) for _ in range(POOL // 4)]
    mixed = list(zip(xs, xs[1:] + xs[:1]))
    one_dense = []
    for i in range(POOL // 4):
        one = element([rng.randrange(algebra.dim)])
        dense = element(algebra.basis_masks())
        one_dense.append((one, dense) if i % 2 else (dense, one))
    three = [(element(rng.sample(range(algebra.dim), 3)),
              element(rng.sample(range(algebra.dim), 3)))
             for _ in range(POOL // 4)]
    suffix = f"g{g}" if order == 1 else f"g{g}_n{order}"
    out = {f"grassmann_{name}_{suffix}": _best_us(lambda a, b: a * b,
                                                  pairs, 3)
           for name, pairs in (("mul", mixed), ("one_dense", one_dense),
                               ("three", three))}
    out[f"grassmann_add_{suffix}"] = _best_us(lambda a, b: a + b, mixed, 10)
    if g == 4 and order == 1:
        terms = [[(a, b, i % 2 == 1) for i, (a, b) in enumerate(mixed[k:k + 4])]
                 for k in range(0, len(mixed), 4)]
        out["grassmann_dot4_g4"] = _best_us(
            lambda ts, _: algebra.dot(ts), [(ts, None) for ts in terms], 10)
    return out


def _sparse_matrix(algebra, rng, n):
    """A unit diagonal (a +-1, +-2 scalar plus one monomial); each
    off-diagonal entry is one +-1, +-2 monomial with probability
    SPARSE_DENSITY, else zero."""
    def entry(i, j):
        if i == j:
            return algebra.element({rng.randrange(1, algebra.dim):
                                    rng.choice((-1, 1)),
                                    0: rng.choice((-2, -1, 1, 2))})
        if rng.random() < SPARSE_DENSITY:
            return algebra.element({rng.randrange(algebra.dim):
                                    rng.choice((-2, -1, 1, 2))})
        return algebra.zero
    return Matrix(algebra, [[entry(i, j) for j in range(n)] for i in range(n)])


def _full_matrix(field, rng):
    """A MATMUL_N x MATMUL_N matrix over g = 4 whose entries have all 16
    monomials, with integer coefficients in -5..5."""
    algebra = GrassmannAlgebra(4, field)

    def entry():
        return algebra.element({m: field.element(
            [rng.randint(-5, 5) for _ in range(field.degree)])
            for m in algebra.basis_masks()})
    return Matrix(algebra, [[entry() for _ in range(MATMUL_N)]
                            for _ in range(MATMUL_N)])


def _counts(fn, A):
    """(multiplies, items): the Grassmann ring multiplies that fn(A) makes,
    one per ``GrassmannElement.__mul__`` call and one per term of a
    ``GrassmannAlgebra.dot`` sum, whatever its operands, and the items it
    hands to ``dets.map_reduce_sum``."""
    count = items = 0
    mul, dot, reduce = (GrassmannElement.__mul__, GrassmannAlgebra.dot,
                        dets.map_reduce_sum)

    def counted(a, b):
        nonlocal count
        count += 1
        return mul(a, b)

    def counted_dot(ring, terms):
        nonlocal count
        terms = list(terms)
        count += len(terms)
        return dot(ring, terms)

    def counted_reduce(xs, term, zero):
        nonlocal items
        xs = list(xs)
        items += len(xs)
        return reduce(xs, term, zero)

    GrassmannElement.__mul__, GrassmannAlgebra.dot = counted, counted_dot
    dets.map_reduce_sum = counted_reduce
    try:
        fn(A)
    finally:
        GrassmannElement.__mul__, GrassmannAlgebra.dot = mul, dot
        dets.map_reduce_sum = reduce
    return count, items


def det_cases():
    """Best-of-DET_REPEATS milliseconds of the permutation double sums and
    the adjoint chains, the ring multiplies of each, and the map_reduce_sum
    items of each sdet and preadjoint."""
    algebra = GrassmannAlgebra(4, QQ)
    cases = []
    dense = {}
    for n in DET_SIZES:
        rng = random.Random(3000 + n)
        A = dense[n] = Matrix(algebra, [[algebra.random_element(rng)
                                         for _ in range(n)] for _ in range(n)])
        cases += [(f"{name}_n{n}", getattr(dets, name), A)
                  for name in ("sdet", "preadjoint")]
    sparse = _sparse_matrix(algebra, random.Random(3100 + SPARSE_N), SPARSE_N)
    cases += [(f"{name}_sparse_n{SPARSE_N}", getattr(dets, name), sparse)
              for name in ("sdet", "preadjoint")]
    spec = example_5_1(*EXAMPLE_5_1)
    member = sample_supermatrix(spec, random.Random(3200 + spec.n))
    cases.append((f"sdet_5_1_n{spec.n}", dets.sdet, member))
    cases += [(f"{name}_n{CHAIN_N}", fn, dense[CHAIN_N])
              for name, fn in CHAINS.items()]
    spec = example_5_2(*EXAMPLE_5_2, field=CyclotomicField(3))
    member = sample_supermatrix(spec, random.Random(3300 + spec.n))
    cases.append(("charpoly1_5_2_n3_zeta3", CHAINS["charpoly1"], member))
    for order, suffix in ((1, ""), (3, "_zeta3")):
        rng = random.Random(3400 + order)
        left, right = (_full_matrix(CyclotomicField(order), rng)
                       for _ in range(2))
        cases.append((f"matmul_n{MATMUL_N}{suffix}",
                      lambda A, right=right: A * right, left))
    out, multiplies, items = {}, {}, {}
    for label, fn, A in cases:
        best = float("inf")
        for _ in range(DET_REPEATS):
            t0 = time.perf_counter()
            fn(A)
            best = min(best, time.perf_counter() - t0)
        out[label] = best * 1e3
        multiplies[label], count = _counts(fn, A)
        if label.startswith(("sdet", "preadjoint")):
            items[label] = count
    return out, multiplies, items


def _construct_counts(fn):
    """(solves, dots): the ``solve_constraint`` calls that fn() makes
    through ``supermatrix``, and its ``GrassmannAlgebra.dot`` calls."""
    solves = dots = 0
    solve, dot = supermatrix.solve_constraint, GrassmannAlgebra.dot

    def counted_solve(delta, t):
        nonlocal solves
        solves += 1
        return solve(delta, t)

    def counted_dot(ring, terms):
        nonlocal dots
        dots += 1
        return dot(ring, terms)

    supermatrix.solve_constraint, GrassmannAlgebra.dot = (counted_solve,
                                                          counted_dot)
    try:
        fn()
    finally:
        supermatrix.solve_constraint, GrassmannAlgebra.dot = solve, dot
    return solves, dots


def construct_cases():
    """Best-of-DET_REPEATS milliseconds of two shapes and one blow-up
    square, and (count, unit): the solves of each shape and the dots of
    the square."""
    F = CyclotomicField(4)
    cases = [(f"shape_5_2_n{n}_g{g}", "solves",
              lambda spec=example_5_2(n, g, field=F): shape(spec))
             for n, g in SHAPES]
    g, n, m = BLOWUP
    E = GrassmannAlgebra(g, F)
    rng = random.Random(3500)
    units = [E.element({0: F.from_fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
                        * F.e ** rng.randrange(4),
                        rng.randrange(1, E.dim): rng.choice((-1, 1))})
             for _ in range(n)]
    T = transitive_from_units(E, units)
    cuts = sorted(rng.sample(range(1, m), n - 1)) + [m]
    cases.append((f"blowup_square_g{g}_{m}", "dots",
                  lambda: transitive_square(blow_up(T, cuts))))
    out, counts = {}, {}
    for label, unit, fn in cases:
        best = float("inf")
        for _ in range(DET_REPEATS):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        out[label] = best * 1e3
        counts[label] = (dict(zip(("solves", "dots"),
                                  _construct_counts(fn)))[unit], unit)
    return out, counts


def oracle_cases():
    """Median seconds of criterion 3 and milliseconds of the symbolic calls,
    each timed in a fresh interpreter (see the docstring)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = {}
    for what in ("criterion_3", "sdet_n3", "preadjoint_n3", "sdet_n4",
                 "preadjoint_n4"):
        walls = [float(subprocess.run(
            [sys.executable, "-c", ORACLE_SNIPPET, what], env=env, check=True,
            capture_output=True, text=True).stdout)
            for _ in range(ORACLE_REPEATS)]
        wall = statistics.median(walls)
        if what == "criterion_3":
            out["criterion_3_s"] = wall
        else:
            out[f"oracle_{what}_ms"] = wall * 1e3
    return out


def _lienil_imports(argv, env):
    """{module: source lines} of the lienil modules that
    ``python -m lienil.cli argv`` loads, from its ``-X importtime`` report,
    ``lienil.cli`` included."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m",
                           "lienil.cli"] + argv, env=env, capture_output=True,
                          text=True)
    names = {line.rsplit("|", 1)[1].strip() for line in
             proc.stderr.splitlines() if line.startswith("import time:")}
    names = {n for n in names if n == "lienil" or n.startswith("lienil.")}
    package = Path(SRC) / "lienil"
    return {name: len((package / (name.partition(".")[2] or "__init__")
                       ).with_suffix(".py").read_text().splitlines())
            for name in sorted(names | {"lienil.cli"})}


def _cold_kind_docs():
    """{name: (argv before the file, argv after it, document)} of the
    seeded cli_cold kinds (see the docstring)."""
    rng = random.Random(3600)
    E3 = GrassmannAlgebra(4, CyclotomicField(3))
    E1 = GrassmannAlgebra(4, QQ)
    T = transitive_from_units(E3, [E3.random_unit(rng) for _ in range(3)])
    ring = serialize.ring_to_json
    return {
        "transitive_check": (["transitive", "check"], [], {
            "ring": ring(E3), "matrix": serialize.matrix_to_json(T.matrix)}),
        "embed": (["embed"], ["--n", "3"], {
            "ring": ring(E3), "delta": "rho_e:3",
            "element": serialize.element_to_json(E3.random_element(rng))}),
        "integrality": (["integrality"], ["--n", "2", "--k", "2"], {
            "ring": ring(E1), "delta": "epsilon",
            "element": serialize.element_to_json(E1.random_element(rng))}),
        "sample": (["sample"], ["--seed", "1"],
                   serialize.spec_to_json(example_5_1(2, 1, 4))),
    }


def cold_start_cases():
    """Median wall milliseconds of fresh interpreters, and the lienil
    modules each request loads with their source lines (see the
    docstring)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    with tempfile.TemporaryDirectory() as tmp:
        requests = {}                     # name -> (argv, exit code)
        for name, doc in COLD_DOCS.items():
            path = os.path.join(tmp, name + ".json")
            Path(path).write_text(json.dumps(doc))
            requests[name] = (["sdet", path], 0)
        requests["grassmann_charpoly"] = (
            ["charpoly", "--k", "1", os.path.join(tmp, "grassmann_sdet.json")],
            0)
        for name, (before, after, doc) in _cold_kind_docs().items():
            path = os.path.join(tmp, name + ".json")
            Path(path).write_text(json.dumps(doc))
            requests[name] = (before + [path] + after, 0)
        requests["example_5_2"] = ("example 5.2 --n 3 --g 4".split(), 0)
        missing = os.path.join(tmp, "none.json")
        requests["missing_file"] = (["sdet", missing], 2)
        commands = {"python_pass": ([sys.executable, "-c", "pass"], 0)}
        for name, (argv, code) in requests.items():
            commands[name] = ([sys.executable, "-m", "lienil.cli"] + argv,
                              code)
        walls = {name: [] for name in commands}
        for _ in range(COLD_REPEATS):
            for name, (cmd, code) in commands.items():
                t0 = time.perf_counter()
                proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                                      stderr=subprocess.DEVNULL)
                walls[name].append(time.perf_counter() - t0)
                if proc.returncode != code:
                    raise RuntimeError(f"{name}: exit {proc.returncode}")
        modules = {f"cold_{name}": _lienil_imports(argv, env)
                   for name, (argv, _) in requests.items()}
    return ({f"cold_{name}": statistics.median(w) * 1e3
             for name, w in walls.items()}, modules)


def reproduce_all_case():
    """Median wall seconds of cold ``reproduce-all --report`` runs, each
    checked against the committed report."""
    env = dict(os.environ, PYTHONPATH=SRC)
    golden = (ROOT / "tests" / "data" / "reproduce_all_report.json"
              ).read_bytes()
    walls = []
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "report.json"
        for _ in range(REPRODUCE_ALL_REPEATS):
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "lienil.cli",
                                   "reproduce-all", "--report", str(report)],
                                  env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL)
            walls.append(time.perf_counter() - t0)
            if proc.returncode != 0 or report.read_bytes() != golden:
                raise RuntimeError("reproduce-all: exit "
                                   f"{proc.returncode} or another report")
    return statistics.median(walls)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", default="current",
                        help="name to store the figures under")
    parser.add_argument("--out", default=None,
                        help="JSON file to merge the figures into")
    args = parser.parse_args(argv)

    us = {}
    for order in ORDERS:
        us.update(scalar_cases(order))
    for order in GRASSMANN_ORDERS:
        for g in GENERATORS:
            us.update(grassmann_cases(g, order))
    for name, value in us.items():
        print(f"{name:<24} {value:9.2f} us/op")
    det_ms, det_muls, det_items = det_cases()
    for name, value in det_ms.items():
        items = (f"  {det_items[name]} sum items" if name in det_items
                 else "")
        print(f"{name:<24} {value:9.1f} ms  {det_muls[name]} multiplies"
              f"{items}")
    construct_ms, construct_counts = construct_cases()
    for name, value in construct_ms.items():
        count, unit = construct_counts[name]
        print(f"{name:<24} {value:9.1f} ms  {count} {unit}")
    oracle = oracle_cases()
    for name, value in oracle.items():
        print(f"{name:<24} {value:9.3f} {name.rsplit('_', 1)[1]}")
    cold, modules = cold_start_cases()
    for name, value in cold.items():
        print(f"{name:<24} {value:9.1f} ms")
        if name in modules:
            lines = modules[name]
            print(f"    {len(lines)} lienil modules, "
                  f"{sum(lines.values())} lines: " + ", ".join(
                      f"{m.partition('.')[2] or 'lienil'} {n}"
                      for m, n in lines.items()))
    reproduce_all_s = reproduce_all_case()
    print(f"{'reproduce_all_s':<24} {reproduce_all_s:9.2f} s")

    if args.out:
        path = Path(args.out)
        doc = json.loads(path.read_text()) if path.exists() else {}
        doc.setdefault("host", {
            "machine": platform.machine(), "cpus": os.cpu_count(),
            "python": platform.python_version()})
        doc[args.label] = {
            "us_per_op": {k: round(v, 3) for k, v in us.items()},
            "dets_ms": {k: round(v, 1) for k, v in det_ms.items()},
            "dets_multiplies": det_muls,
            "dets_sum_items": det_items,
            "construct_ms": {k: round(v, 1) for k, v in construct_ms.items()},
            "construct_counts": construct_counts,
            "oracle": {k: round(v, 3) for k, v in oracle.items()},
            "cold_start_ms": {k: round(v, 1) for k, v in cold.items()},
            "cold_lienil_modules": modules,
            "reproduce_all_s": round(reproduce_all_s, 2)}
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
