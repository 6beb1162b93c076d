#!/usr/bin/env python3
"""Micro-benchmark of the scalar, Grassmann, determinant and oracle layers,
and of a cold CLI.

Prints microseconds per operation for ``Cyc`` multiplication, addition and
inverse over Q(zeta_n) at n = 1, 3, 4, 5, and for Grassmann multiplication
at g = 4 and 8 over Q.  Operands come from fixed seeds, so two checkouts
time the same inputs.  Each figure is the best of several repeats of a
loop over a fixed pool of operands.

The determinant section prints the milliseconds of ``sdet`` and
``preadjoint`` on a seeded n x n matrix of random g = 4 Grassmann elements
over Q, at n = 3, 4, 5, and of ``sdet`` on a seeded sparse 5 x 5 matrix
at g = 4 (a unit diagonal; each off-diagonal entry is one monomial with
probability 0.4, else zero): the best of three calls in this interpreter.
Next to each time it prints the Grassmann ring multiplies of one more
call, counted by wrapping ``GrassmannElement.__mul__`` in this script.

The oracle section prints the wall seconds of acceptance criterion 3
(``sdet = n! det`` and ``A* = (n-1)! adj`` on symbolic n = 2, 3, 4) and
the milliseconds of ``sdet`` and ``preadjoint`` on the symbolic n x n
matrix [a_ij] at n = 3 and 4.  Each is one call in a fresh interpreter,
after the imports, so that no cache filled by an earlier call helps; the
median of three such runs is printed.

The cold-start section prints the median wall milliseconds of a fresh
interpreter for ``python -c pass`` and for four ``python -m lienil.cli``
requests: ``sdet`` on a 2x2 Grassmann document and on a 2x2 oracle
document, ``example 5.2 --n 3 --g 4``, and ``sdet`` on a missing file
(exit 2).  The runs alternate, so drift in the machine's load reaches all
of them alike.  Next to each request it prints how many ``lienil.*``
modules the request imports, counted in one more run under
``-X importtime``; ``lienil.cli`` itself runs as ``__main__`` and is not
counted.

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

SRC = str(Path(__file__).resolve().parents[1] / "src")
sys.path.insert(0, SRC)

from lienil import dets  # noqa: E402
from lienil.grassmann import GrassmannAlgebra, GrassmannElement  # noqa: E402
from lienil.matrices import Matrix  # noqa: E402
from lienil.scalars import QQ, CyclotomicField  # noqa: E402

ORDERS = (1, 3, 4, 5)
GENERATORS = (4, 8)
POOL = 64
REPEATS = 9
DET_SIZES = (3, 4, 5)
DET_REPEATS = 3
SPARSE_N = 5
SPARSE_DENSITY = 0.4
ORACLE_REPEATS = 3
# One timed oracle call (argv[1]: criterion_3 or <sdet|preadjoint>_n<n>).
ORACLE_SNIPPET = """
import sys, time
from lienil import Matrix, dets, oracle_ring
from lienil.acceptance import criterion_3_oracle_equivalence
what = sys.argv[1]
if what == "criterion_3":
    t0 = time.perf_counter()
    assert criterion_3_oracle_equivalence()[0]
else:
    name, n = what.split("_n")
    n = int(n)
    ring = oracle_ring([f"a{i}{j}" for i in range(n) for j in range(n)])
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


def grassmann_cases(g):
    algebra = GrassmannAlgebra(g, QQ)
    rng = random.Random(2000 + g)
    terms = 4 if g == 4 else 12
    xs = []
    for _ in range(POOL // 4):
        coeffs = {}
        for _ in range(terms):
            coeffs[rng.randrange(algebra.dim)] = rng.randint(-5, 5)
        xs.append(algebra.element(coeffs))
    pairs = list(zip(xs, xs[1:] + xs[:1]))
    return {f"grassmann_mul_g{g}": _best_us(lambda a, b: a * b, pairs, 3)}


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


def _multiplies(fn, A):
    """The number of Grassmann ring multiplies that fn(A) makes."""
    count = 0
    mul = GrassmannElement.__mul__

    def counted(a, b):
        nonlocal count
        count += 1
        return mul(a, b)

    GrassmannElement.__mul__ = counted
    try:
        fn(A)
    finally:
        GrassmannElement.__mul__ = mul
    return count


def det_cases():
    """Best-of-DET_REPEATS milliseconds of the permutation double sums, and
    the ring multiplies of each."""
    algebra = GrassmannAlgebra(4, QQ)
    cases = []
    for n in DET_SIZES:
        rng = random.Random(3000 + n)
        A = Matrix(algebra, [[algebra.random_element(rng) for _ in range(n)]
                             for _ in range(n)])
        cases += [(f"{name}_n{n}", name, A) for name in ("sdet", "preadjoint")]
    sparse = _sparse_matrix(algebra, random.Random(3100 + SPARSE_N), SPARSE_N)
    cases.append((f"sdet_sparse_n{SPARSE_N}", "sdet", sparse))
    out, multiplies = {}, {}
    for label, name, A in cases:
        fn = getattr(dets, name)
        best = float("inf")
        for _ in range(DET_REPEATS):
            t0 = time.perf_counter()
            fn(A)
            best = min(best, time.perf_counter() - t0)
        out[label] = best * 1e3
        multiplies[label] = _multiplies(fn, A)
    return out, multiplies


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
    """The number of ``lienil.*`` modules that ``python -m lienil.cli argv``
    imports, from its ``-X importtime`` report."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m",
                           "lienil.cli"] + argv, env=env, capture_output=True,
                          text=True)
    names = [line.rsplit("|", 1)[1].strip() for line in
             proc.stderr.splitlines() if line.startswith("import time:")]
    return sum(name.startswith("lienil.") for name in names)


def cold_start_cases():
    """Median wall milliseconds of fresh interpreters, and the lienil
    modules each request imports (see the docstring)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    with tempfile.TemporaryDirectory() as tmp:
        requests = {}                     # name -> (argv, exit code)
        for name, doc in COLD_DOCS.items():
            path = os.path.join(tmp, name + ".json")
            Path(path).write_text(json.dumps(doc))
            requests[name] = (["sdet", path], 0)
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
    for g in GENERATORS:
        us.update(grassmann_cases(g))
    for name, value in us.items():
        print(f"{name:<24} {value:9.2f} us/op")
    det_ms, det_muls = det_cases()
    for name, value in det_ms.items():
        print(f"{name:<24} {value:9.1f} ms  {det_muls[name]} multiplies")
    oracle = oracle_cases()
    for name, value in oracle.items():
        print(f"{name:<24} {value:9.3f} {name.rsplit('_', 1)[1]}")
    cold, modules = cold_start_cases()
    for name, value in cold.items():
        count = (f"  {modules[name]} lienil modules" if name in modules
                 else "")
        print(f"{name:<24} {value:9.1f} ms{count}")

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
            "oracle": {k: round(v, 3) for k, v in oracle.items()},
            "cold_start_ms": {k: round(v, 1) for k, v in cold.items()},
            "cold_lienil_modules": modules}
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
