#!/usr/bin/env python3
"""Mutation checks: each listed mutant must be killed by the tests.

A mutant is one textual edit of one file of the package: (name, file under
``src/lienil``, old text, new text, pytest selection).  For each mutant the
script copies ``src/`` next to this script into a temporary directory,
replaces the old text, which must occur exactly once, by the new one, and
runs the mutant's pytest selection against that copy (``-o pythonpath``
points the tests, and the fresh interpreters some of them start, at the
copy).  The mutant is killed if a selected test fails, and it survived if
all of them pass.  Each distinct selection first runs once on an unchanged
copy and must pass there: a test that fails in the copy for another reason
would otherwise count as a kill.  One line per mutant gives the verdict,
the seconds the run took and the name.

Exit status: 0 if every mutant was killed, 1 if one survived, 2 if a
mutant could not be applied or its run did not complete as a test run
(no test collected, a usage error, a timeout), or if its selection does
not pass on the unchanged copy.

Usage: python3 scripts/mutants.py [--only NAME ...]
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600

MUTANTS = [
    # A span test that trusts the dimensions alone.
    ("same_span_by_dim", "grassmann.py",
     "return self.dim == other.dim == linalg.rank(\n"
     "            self._coords() + other._coords(), self.algebra.dim)",
     "return self.dim == other.dim",
     ["tests/test_grassmann.py::test_component_basis_contains_and_same_span"]),
    # A membership test that never looks at x.
    ("contains_ignores_x", "grassmann.py",
     "coords = self._coords() + [self.algebra.coordinates(x)]",
     "coords = self._coords()",
     ["tests/test_grassmann.py::test_component_basis_contains_and_same_span"]),
    # A fresh R[z] per charpoly: its zero, one and z point back at it, so
    # every call leaves a reference cycle behind.
    ("r_z_per_call", "dets.py",
     "rz = ring.polynomials",
     "rz = type(ring.polynomials)(ring)",
     ["tests/test_dets.py::test_sums_leave_no_reference_cycle"]),
    # e^(2 order / n) has order n / gcd(n, 2), not n, for even n.
    ("primitive_root_exponent_doubled", "scalars.py",
     "return self.e ** (self.order // n)",
     "return self.e ** (2 * self.order // n)",
     ["tests/test_scalars.py::test_primitive_roots"]),
    # The join of the permutation sums with its sign flipped.
    ("pair_sums_join_sign", "dets.py",
     "sr * sc < 0", "sr * sc > 0",
     ["tests/test_dets.py::test_sdet_first_form_agrees"]),
    # A subset sum whose term sign reads the row position alone.
    ("subset_sum_sign_by_row", "dets.py",
     "pair[i + j & 1]", "pair[i & 1]",
     ["tests/test_dets.py::test_sdet_first_form_agrees"]),
    # The join with head and tail swapped.  A full sdet sums over every
    # order of the positions, so it does not see the swap; a 1x1 minor,
    # whose join reads the head alone, does.
    ("pair_sums_head_tail_swapped", "dets.py",
     "terms.append((head, tail,", "terms.append((tail, head,",
     ["tests/test_dets.py::test_preadjoint_is_scaled_adjugate_commutative"]),
    # The elimination's zero skip keyed on the wrong operand: a row update
    # keeps a zero entry where it should subtract f times the pivot row.
    ("rref_skip_keyed_on_x", "linalg.py",
     "x - f * y if y else x", "x - f * y if x else x",
     ["tests/test_grassmann.py::test_elimination_skips_products_with_a_zero"]),
    # The algebra table keyed by g alone: GrassmannAlgebra(4, Q(zeta3))
    # would hand back the algebra over Q built first.
    ("algebra_table_keyed_by_g", "grassmann.py",
     "key = (g, field)", "key = g",
     ["tests/test_grassmann.py::"
      "test_one_algebra_and_one_monomial_per_g_and_field"]),
    # A table that holds its algebras for the life of the process.
    ("algebra_table_holds_strongly", "grassmann.py",
     "_ALGEBRAS = weakref.WeakValueDictionary()", "_ALGEBRAS = {}",
     ["tests/test_grassmann.py::test_an_algebra_nothing_holds_is_freed"]),
    # The solver copies each monomial where it should hand out the
    # algebra's own basis element, so a shape keeps 2^g new elements.
    ("solver_copies_monomials", "grassmann.py",
     "basis.append(algebra.basis_element(*coeffs))",
     "basis.append(algebra.element(coeffs))",
     ["tests/test_supermatrix.py::"
      "test_rho_and_epsilon_shapes_hold_the_shared_monomials"]),
]


def apply(src, file, old, new):
    """Replace the one occurrence of old in src/lienil/file."""
    path = src / "lienil" / file
    text = path.read_text(encoding="utf-8")
    count = text.count(old)
    if count != 1:
        raise ValueError(f"{file}: the old text occurs {count} times, not once")
    path.write_text(text.replace(old, new), encoding="utf-8")


def run(selection, edit=None):
    """(pytest exit code, seconds) of selection against a copy of src/,
    with edit = (file, old, new) applied to the copy first; the code is
    None if the run timed out.  Raises ValueError if edit cannot apply."""
    with tempfile.TemporaryDirectory(prefix="lienil-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        if edit:
            apply(src, *edit)
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env.pop("PYTHONPATH", None)
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x",
                 "-p", "no:cacheprovider", "-o", f"pythonpath={src}"]
                + selection, cwd=ROOT, env=env, capture_output=True,
                text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, TIMEOUT_S
        return proc.returncode, time.perf_counter() - t0


def judge(mutant, baseline):
    """(verdict, seconds): "killed", "survived" or "error: ...".  baseline
    is the exit code of the mutant's selection on an unchanged copy: a
    selection that does not pass there cannot tell the mutant apart."""
    name, file, old, new, selection = mutant
    if baseline != 0:
        return f"error: the unchanged copy gives {describe(baseline)}", 0.0
    try:
        code, seconds = run(selection, (file, old, new))
    except ValueError as exc:
        return f"error: {exc}", 0.0
    if code in (0, 1):
        return ("survived", "killed")[code], seconds
    return f"error: {describe(code)}", seconds


def describe(code):
    if code is None:
        return f"no verdict in {TIMEOUT_S} s"
    return f"pytest exit {code}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--only", nargs="+", metavar="NAME",
                        choices=[m[0] for m in MUTANTS],
                        help="run only these mutants")
    args = parser.parse_args(argv)
    chosen = [m for m in MUTANTS if not args.only or m[0] in args.only]
    baselines = {}
    status = 0
    for mutant in chosen:
        selection = tuple(mutant[4])
        if selection not in baselines:
            baselines[selection] = run(list(selection))[0]
        verdict, seconds = judge(mutant, baselines[selection])
        print(f"{verdict:<9} {seconds:6.1f} s  {mutant[0]}", flush=True)
        if verdict == "survived":
            status = max(status, 1)
        elif verdict != "killed":
            status = 2
    return status


if __name__ == "__main__":
    sys.exit(main())
