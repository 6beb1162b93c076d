"""The acceptance gate: one test per criterion, all read from one
reproduce_all report, plus degree-9 Cayley-Hamilton instances at n = 3."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from lienil import RingError, acceptance, cli, dets
from lienil.acceptance import canonical_report

GOLDEN_REPORT = Path(__file__).parent / "data" / "reproduce_all_report.json"


@pytest.fixture(scope="module")
def report():
    """One full acceptance run: the core suite here and in a child process,
    compared by bytes."""
    return acceptance.reproduce_all()[0]


def check(report, num):
    result = report["results"][num - 1]
    assert result["criterion"] == num
    assert result["passed"], result["details"]


def test_criterion_1_transitivity(report):
    check(report, 1)


def test_criterion_2_hadamard_automorphism(report):
    check(report, 2)


def test_criterion_3_oracle_equivalence(report):
    check(report, 3)


def test_criterion_4_minor_identity(report):
    check(report, 4)


def test_criterion_5_preadjoint_closure(report):
    check(report, 5)


def test_criterion_6_fixed_ring_determinants(report):
    check(report, 6)


def test_criterion_7_cayley_hamilton(report):
    check(report, 7)


def test_criterion_8_embedding(report):
    check(report, 8)


def test_criterion_9_integrality(report):
    check(report, 9)


def test_criterion_10_shapes(report):
    check(report, 10)


def test_criterion_11_determinism(report):
    """Reports are byte-identical across runs (reproduce_all reruns the
    whole suite in a child under another hash seed and compares the bytes)
    and equal the committed report."""
    check(report, 11)
    assert report["all_passed"]
    nums = [r["criterion"] for r in report["results"]]
    assert nums == list(range(1, 12))
    # timings never leak into the canonical report
    assert "time" not in canonical_report(report["results"])
    assert canonical_report(report["results"]) == GOLDEN_REPORT.read_text(
        encoding="utf-8")


def test_criterion_4_sees_a_sign_error_in_pair_sums(monkeypatch):
    """The join sign flipped (``sr * sc < 0`` read as ``> 0``) negates every
    restricted sum.  Criterion 4 sums the minors by ``sdet_first_form``,
    which does not go through ``_pair_sums``, so it fails."""
    pair_sums = dets._pair_sums

    def flipped(A, row_sets, col_sets):
        return [[-x for x in row] for row in pair_sums(A, row_sets, col_sets)]

    monkeypatch.setattr(dets, "_pair_sums", flipped)
    assert acceptance.criterion_4_minor_identity() == (
        False, {"failure": "minor identity at n=4"})


def test_a_criterion_that_raises_fails_and_the_rest_run(monkeypatch,
                                                        capsys):
    """reproduce-all prints the report and exits 1, not 2: its input is
    fixed, so a library fault inside a criterion is a failed check."""
    def raises():
        raise RingError("leading term mismatch")

    core = [
        {"criterion": 1, "name": "passes", "passed": True,
         "details": {"checked": 1}},
        {"criterion": 2, "name": "raises", "passed": False,
         "details": {"error": "RingError: leading term mismatch"}},
        {"criterion": 3, "name": "runs after", "passed": True, "details": {}}]
    monkeypatch.setattr(acceptance, "CORE_CRITERIA", [
        (1, "passes", lambda: (True, {"checked": 1})),
        (2, "raises", raises),
        (3, "runs after", lambda: (True, {}))])
    # The rerun child does not see the patch: it writes these criteria's
    # report as the child of a run that reproduces them would.
    monkeypatch.setattr(acceptance, "RERUN", rerun_writing(
        canonical_report(core)))
    assert cli.main(["reproduce-all"]) == 1
    out, err = capsys.readouterr()
    assert out == canonical_report(core + [
        {"criterion": 11, "name": "determinism", "passed": True,
         "details": {"runs_compared": 2}}]) + "\n"
    assert "criterion  2  FAIL  raises" in err


def rerun_writing(text, code=0):
    """A rerun child's source that writes ``text`` and exits ``code``."""
    return f"import sys\nsys.stdout.write({text!r})\nsys.exit({code})\n"


CORE = [{"criterion": 1, "name": "passes", "passed": True, "details": {}}]


@pytest.mark.parametrize("rerun", [
    rerun_writing(canonical_report(CORE), code=1),
    rerun_writing(canonical_report(CORE) + " "),
    rerun_writing(""),
    "raise RuntimeError('the rerun broke')\n"],
    ids=["exit-1", "other-bytes", "no-bytes", "raises"])
def test_a_failing_rerun_fails_determinism(monkeypatch, capfd, rerun):
    """A child that exits non-zero or writes other bytes fails criterion
    11: reproduce-all prints the report and exits 1, and no traceback
    reaches stderr, the child's included."""
    monkeypatch.setattr(acceptance, "CORE_CRITERIA", [
        (1, "passes", lambda: (True, {}))])
    monkeypatch.setattr(acceptance, "RERUN", rerun)
    assert cli.main(["reproduce-all"]) == 1
    out, err = capfd.readouterr()
    assert out == canonical_report(CORE + [
        {"criterion": 11, "name": "determinism", "passed": False,
         "details": {"runs_compared": 2}}]) + "\n"
    assert "criterion 11  FAIL  determinism" in err
    assert "Traceback" not in err


def fresh_env(**env):
    """This process's environment, with this lienil importable and the
    given variables set, or removed where None."""
    env = dict(os.environ, PYTHONPATH=str(Path(acceptance.__file__).parents[1]),
               **env)
    return {k: v for k, v in env.items() if v is not None}


@pytest.mark.parametrize("seed", [None, "random", "0", "7", "4294967295"])
def test_the_rerun_runs_under_another_hash_seed(seed):
    """In a fresh process run under PYTHONHASHSEED=seed (None: unset), the
    rerun child's PYTHONHASHSEED and its hash of a string differ from the
    process's own."""
    script = (
        "import os\n"
        "from lienil import acceptance\n"
        "acceptance.RERUN = "
        "'import os; print(os.environ[\"PYTHONHASHSEED\"], hash(\"lienil\"))'\n"
        "with acceptance.start_rerun() as child:\n"
        "    print(os.environ.get('PYTHONHASHSEED'), hash('lienil'))\n"
        "    print(child.communicate(timeout=60)[0].decode(), end='')\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=fresh_env(PYTHONHASHSEED=seed),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    (own_seed, own_hash), (child_seed, child_hash) = (
        line.split() for line in proc.stdout.splitlines())
    assert own_seed == str(seed)
    assert child_seed != own_seed
    assert child_hash != own_hash


def test_reproduce_all_from_a_fresh_process_writes_the_golden_report(
        tmp_path):
    """``python -m lienil.cli reproduce-all --report FILE``, as a user runs
    it, exits 0 and writes the committed report's bytes."""
    report = tmp_path / "report.json"
    proc = subprocess.run([sys.executable, "-m", "lienil.cli",
                           "reproduce-all", "--report", str(report)],
                          capture_output=True, text=True, env=fresh_env(),
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert report.read_bytes() == GOLDEN_REPORT.read_bytes()


@pytest.mark.parametrize("seed", [acceptance.SEED, acceptance.SEED + 70])
def test_slow_degree9_cayley_hamilton(seed):
    """n = 3, k = 2: the degree-9 right Cayley-Hamilton identity on a
    sampled member of M_3(E, rho_e, P^(e))."""
    from lienil import charpoly, leading_coefficient_value
    from lienil.supermatrix import example_5_2, sample_supermatrix, shape
    spec = example_5_2(3, 4)
    A = sample_supermatrix(spec, random.Random(seed), shape(spec))
    p = charpoly(A, 2)
    assert p.degree == 9
    assert p.coeffs[-1] == spec.ring.from_scalar(
        leading_coefficient_value(3, 2))
    res = p.subst_matrix(A)
    assert not any(e for row in res.rows for e in row)
