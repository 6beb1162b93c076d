"""The repository's acceptance checks, runnable as one deterministic report.

Each criterion is a function returning (passed, details) where details is a
JSON-ready dict with no timing data, so reports are byte-identical across
runs.  Timings are collected separately.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
import time

from . import dets
from .grassmann import (ComponentBasis, GrassmannAlgebra, epsilon,
                        graded_component_basis)
from .matrices import (Matrix, blow_up, factor_transitive, hadamard,
                       is_transitive, matrix_units_counterexample, theta,
                       theta_inverse, transitive_from_units,
                       transitive_square)
from .oracle import OracleRing, classical_adj, classical_det
from .rings import fixed_ring_member
from .scalars import QQ, CyclotomicField
from .serialize import canonical_report
from .supermatrix import (check_embedding_conditions, example_5_1,
                          example_5_2, example_5_3, is_supermatrix, p_matrix,
                          sample_supermatrix, shape, verify_embedding)

SEED = 20240515


def _random_unit(ring, field_kind, rng):
    if field_kind == "grassmann":
        return ring.random_unit(rng)
    nz = [-3, -2, -1, 1, 2, 3]
    c = ring.field.from_fraction(rng.choice(nz))
    if ring.field.order > 1:
        c = c * ring.field.e ** rng.randrange(ring.field.order)
    return ring.from_scalar(c)


def _random_matrix(ring, n, rng):
    """n x n random elements of ring, drawn row by row."""
    return Matrix(ring, [[ring.random_element(rng) for _ in range(n)]
                         for _ in range(n)])


def criterion_1_transitivity():
    """T^2 = nT, blow-ups stay transitive, factor/rebuild round-trips."""
    rng = random.Random(SEED + 1)
    contexts = [
        ("Q", GrassmannAlgebra(0, QQ), "scalar"),
        ("Q(zeta3)", GrassmannAlgebra(0, CyclotomicField(3)), "scalar"),
        ("E", GrassmannAlgebra(3, QQ), "grassmann"),
    ]
    checked = 0
    per_context = {name: 0 for name, _, _ in contexts}
    while checked < 200:
        name, ring, kind = contexts[checked % len(contexts)]
        n = rng.choice([2, 3, 4])
        units = [_random_unit(ring, kind, rng) for _ in range(n)]
        T = transitive_from_units(ring, units)
        transitive_square(T)                      # raises unless T^2 = nT
        cuts = sorted(rng.sample(range(1, n + 2), n - 1)) + [n + 2]
        if not is_transitive(blow_up(T, cuts).matrix):
            return False, {"failure": "blow-up not transitive"}
        rebuilt = transitive_from_units(ring, factor_transitive(T))
        if rebuilt.matrix != T.matrix:
            return False, {"failure": "factor/rebuild round trip"}
        per_context[name] += 1
        checked += 1
    return True, {"matrices_checked": checked, "per_context": per_context}


def criterion_2_theta():
    """Theta_T multiplicativity for transitive central T, plus an explicit
    matrix-unit counterexample for a non-transitive T."""
    rng = random.Random(SEED + 2)
    E = GrassmannAlgebra(3, QQ)
    F3 = CyclotomicField(3)
    S3 = GrassmannAlgebra(2, F3)
    configs = [
        ("P over E", E, p_matrix(E, QQ.from_fraction(-1), n=2)),
        ("H_3 over E", E, transitive_from_units(E, [E.one] * 3)),
        ("P^(e) over E/Q(zeta3)", S3, p_matrix(S3, F3.e, n=3)),
    ]
    pairs_per_config = 100
    for name, ring, T in configs:
        for _ in range(pairs_per_config):
            A = _random_matrix(ring, T.n, rng)
            B = _random_matrix(ring, T.n, rng)
            if theta(T, A * B) != theta(T, A) * theta(T, B):
                return False, {"failure": f"multiplicativity on {name}"}
            if theta_inverse(T, theta(T, A)) != A:
                return False, {"failure": f"inverse on {name}"}
    # non-transitive T: Theta fails on a pair of standard matrix units
    bad = Matrix(E, [[E.one, E.one], [E.zero, E.one]])
    pair = matrix_units_counterexample(bad)
    if pair is None:
        return False, {"failure": "counterexample construction"}
    Eij, Ejk = pair
    if hadamard(bad, Eij * Ejk) == hadamard(bad, Eij) * hadamard(bad, Ejk):
        return False, {"failure": "counterexample did not separate"}
    return True, {"configs": [c[0] for c in configs],
                  "pairs_per_config": pairs_per_config,
                  "counterexample_found": True}


def criterion_3_oracle_equivalence():
    """sdet = n! det and A* = (n-1)! adj over the commutative oracle with
    fully symbolic entries, n = 2, 3, 4."""
    details = {}
    for n in (2, 3, 4):
        names = [f"a{i}{j}" for i in range(1, n + 1) for j in range(1, n + 1)]
        R = OracleRing(names)
        A = Matrix(R, [[R.var(f"a{i}{j}") for j in range(1, n + 1)]
                       for i in range(1, n + 1)])
        nfact = math.factorial(n)
        if dets.sdet(A) != classical_det(A) * nfact:
            return False, {"failure": f"sdet vs det at n={n}"}
        if dets.preadjoint(A) != nfact // n * classical_adj(A):
            return False, {"failure": f"preadjoint vs adj at n={n}"}
        details[f"n={n}"] = "sdet=n!det and A*=(n-1)!adj"
    return True, details


def criterion_4_minor_identity():
    """Preadjoint entries equal signed sdet of minors over E (g=6)."""
    rng = random.Random(SEED + 4)
    E = GrassmannAlgebra(6, QQ)
    count = 0
    per_n = {2: 0, 3: 0, 4: 0}
    while count < 50:
        n = rng.choice([2, 3, 4])
        A = _random_matrix(E, n, rng)
        if dets.preadjoint(A) != dets.preadjoint_via_minors(A):
            return False, {"failure": f"minor identity at n={n}"}
        per_n[n] += 1
        count += 1
    return True, {"matrices_checked": count,
                  "per_n": {str(k): v for k, v in per_n.items()}}


def _example_specs(g=4):
    specs = []
    for n in (2, 3):
        for d in range(1, n):
            specs.append((f"5.1 n={n} d={d}", example_5_1(n, d, g)))
    for n in (2, 3):
        specs.append((f"5.2 n={n}", example_5_2(n, g)))
    for n in (2, 3):
        for d in range(1, n):
            specs.append((f"5.3 n={n} d={d}", example_5_3(n, d, g)))
    return specs


def criterion_5_closure():
    """A* stays a member for sampled members of every example spec."""
    rng = random.Random(SEED + 5)
    details = {}
    for name, spec in _example_specs():
        bases = shape(spec)
        for _ in range(50):
            A = sample_supermatrix(spec, rng, bases)
            if not is_supermatrix(spec, dets.preadjoint(A)):
                return False, {"failure": f"preadjoint closure on {name}"}
        details[name] = 50
    return True, details


def criterion_6_fixed_ring():
    """rdet/ldet (k <= 2) and characteristic polynomial coefficients of
    sampled members lie in the fixed ring, exactly."""
    rng = random.Random(SEED + 6)
    details = {}
    for name, spec in _example_specs():
        bases = shape(spec)
        delta = spec.delta
        for _ in range(5):
            A = sample_supermatrix(spec, rng, bases)
            for k in (1, 2):
                if not fixed_ring_member(delta, dets.rdet(A, k)):
                    return False, {"failure": f"rdet_({k}) on {name}"}
                if not fixed_ring_member(delta, dets.ldet(A, k)):
                    return False, {"failure": f"ldet_({k}) on {name}"}
            k_values = (1, 2) if spec.n == 2 else (1,)
            for k in k_values:
                for side in ("right", "left"):
                    p = dets.charpoly(A, k, side=side)
                    if not all(fixed_ring_member(delta, c) for c in p.coeffs):
                        return False, {"failure": f"charpoly k={k} {side} on {name}"}
        details[name] = {"samples": 5}
    return True, details


def criterion_7_cayley_hamilton():
    """Degree-4 right Cayley-Hamilton residual vanishes on M_2(E, eps, P);
    leading coefficient matches the closed form."""
    rng = random.Random(SEED + 7)
    spec = example_5_1(2, 1, 4)
    bases = shape(spec)
    if dets.leading_coefficient_value(2, 2) != 2:
        return False, {"failure": "closed form at (n,k)=(2,2)"}
    for _ in range(25):
        A = sample_supermatrix(spec, rng, bases)
        p = dets.charpoly(A, 2)
        if p.coeffs[-1] != spec.ring.from_scalar(2):
            return False, {"failure": "leading coefficient"}
        res = p.subst_matrix(A)
        if any(e for row in res.rows for e in row):
            return False, {"failure": "nonzero residual at n=2 k=2"}
    return True, {"n2_k2_matrices": 25, "leading_coefficient": 2}


def criterion_8_embedding():
    """Embedding laws on 100 random pairs for (E, eps, P, n=2) and
    (E, rho_e, P^(e), n=3) over Q(zeta3); condition report all-true for
    P^(e) with the inverse-sum redundancy flagged."""
    rng = random.Random(SEED + 8)
    spec_a = example_5_1(2, 1, 4)
    spec_b = example_5_2(3, 4)
    for name, spec in (("eps/P n=2", spec_a), ("rho_e/P^(e) n=3", spec_b)):
        pairs = [(spec.ring.random_element(rng), spec.ring.random_element(rng))
                 for _ in range(100)]
        verdict = verify_embedding(spec, pairs)
        if not verdict.ok:
            return False, {"failure": f"{name}: {verdict.failures[0][0]}"}
    report = check_embedding_conditions(spec_b)
    d = report.as_dict()
    needed = ["first_column_central_units", "t_power_n_is_one",
              "power_sums_vanish", "inverse_power_sums_vanish",
              "t_in_fixed_ring", "delta_order_n",
              "inverse_sum_condition_redundant"]
    if not all(d[kk] for kk in needed):
        return False, {"failure": "conditions report", "report": d}
    return True, {"pairs_per_spec": 100, "conditions": d}


def criterion_9_integrality():
    """Degree-4 certificates (n=2, k=2, delta=eps) for random Grassmann
    elements: coefficients even, substitution zero on both sides."""
    rng = random.Random(SEED + 9)
    E = GrassmannAlgebra(4, QQ)
    eps = epsilon(E, validate=False)
    for _ in range(10):
        r = E.random_element(rng)
        cert = dets.integrality_certificate(r, eps, 2, 2)
        if not (cert.right_holds and cert.left_holds):
            return False, {"failure": "substitution residual nonzero"}
        if not cert.coefficients_fixed:
            return False, {"failure": "coefficient outside the fixed ring"}
        for c in cert.right_coeffs + cert.left_coeffs:
            if any(m.bit_count() % 2 for m in c.coeffs):
                return False, {"failure": "coefficient outside the even part"}
    return True, {"elements": 10, "degree": 4}


def criterion_10_shapes():
    """Solver shapes match the graded decomposition for the root-of-unity
    grading, and the sigma-conjugation shape characterizations hold."""
    for n in (2, 3):
        spec = example_5_2(n, 4)
        E = spec.ring
        grid = shape(spec)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                expected = graded_component_basis(E, (i - j) % n, n)
                if not grid[i - 1][j - 1].same_span(expected):
                    return False, {"failure": f"5.2 n={n} entry ({i},{j})"}
    # 5.3 at g=4
    spec = example_5_3(2, 1, 4)
    E = spec.ring
    grid = shape(spec)
    v1, v2 = E.generator(1), E.generator(2)
    even = [E.basis_element(m) for m in E.basis_masks() if m.bit_count() % 2 == 0]
    e0v1 = [b * v1 for b in even if b * v1]
    fix_expected = ComponentBasis(E, even + e0v1)
    for i in (1, 2):
        if not grid[i - 1][i - 1].same_span(fix_expected):
            return False, {"failure": f"5.3 diagonal entry ({i},{i})"}
    e0v1_basis = ComponentBasis(E, e0v1)
    for (i, j, sign) in ((1, 2, 1), (2, 1, -1)):
        for w in grid[i - 1][j - 1].basis:
            g0 = sum((w.homogeneous_component(k) for k in range(0, E.g + 1, 2)),
                     E.zero)
            g1 = w - g0
            probe = g1 * 2 - v2 * g0 * sign
            if probe and not e0v1_basis.contains(probe):
                return False, {"failure": f"5.3 Omega_({i},{j}) characterization"}
    return True, {"5.2": "matches graded components (n=2,3)",
                  "5.3": "Fix(sigma) and Omega characterizations hold"}


CORE_CRITERIA = [
    (1, "transitivity laws", criterion_1_transitivity),
    (2, "Hadamard automorphism", criterion_2_theta),
    (3, "oracle equivalence", criterion_3_oracle_equivalence),
    (4, "minor identity", criterion_4_minor_identity),
    (5, "preadjoint closure", criterion_5_closure),
    (6, "fixed-ring determinants", criterion_6_fixed_ring),
    (7, "Cayley-Hamilton", criterion_7_cayley_hamilton),
    (8, "embedding laws", criterion_8_embedding),
    (9, "integrality certificates", criterion_9_integrality),
    (10, "shape computations", criterion_10_shapes),
]


def run_core():
    """Run criteria 1-10; returns (results, timings).  A criterion that
    raises fails, with the exception as its details, and the rest still
    run."""
    results = []
    timings = {}
    for num, name, fn in CORE_CRITERIA:
        t0 = time.perf_counter()
        try:
            passed, details = fn()
        except Exception as exc:
            passed, details = False, {"error": f"{type(exc).__name__}: {exc}"}
        timings[str(num)] = time.perf_counter() - t0
        results.append({"criterion": num, "name": name,
                        "passed": bool(passed), "details": details})
    return results, timings


# Criterion 11's rerun: criteria 1-10 in a fresh interpreter, which writes
# their canonical report to stdout.
RERUN = ("import sys\n"
         "from lienil.acceptance import canonical_report, run_core\n"
         "sys.stdout.buffer.write(canonical_report(run_core()[0]).encode())\n")


def start_rerun():
    """Start RERUN in a ``sys.executable`` child that imports this copy of
    lienil, under a PYTHONHASHSEED other than this process's: one more than
    a fixed seed, else 0 (this process's hashes are then random).  Its
    string hashes differ, so a report that depends on set or dict order
    differs too.  The child's stderr is discarded."""
    seed = os.environ.get("PYTHONHASHSEED", "")
    path = os.environ.get("PYTHONPATH")
    src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ,
               PYTHONHASHSEED=str((int(seed) + 1) % 2 ** 32)
               if seed.isdigit() else "0",
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.Popen([sys.executable, "-c", RERUN], env=env,
                            stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)


def reproduce_all():
    """Full acceptance run: criteria 1-10 plus the determinism criterion,
    which reruns them in a child process (``start_rerun``), started first
    so that it runs alongside, and passes when the child exits 0 having
    written this run's canonical report bytes."""
    with start_rerun() as child:
        results, timings = run_core()
        t0 = time.perf_counter()
        rerun = child.communicate()[0]
    identical = (child.returncode == 0
                 and rerun == canonical_report(results).encode())
    timings["11"] = time.perf_counter() - t0
    results.append({"criterion": 11, "name": "determinism",
                    "passed": identical,
                    "details": {"runs_compared": 2}})
    return {"results": results, "all_passed": all(r["passed"] for r in results)}, timings
