"""Every script in ``scripts/`` starts from any directory without
``PYTHONPATH``: it finds the package in ``src/`` next to it by itself.  And
``scripts/mutants.py`` runs: a cheap mutant is reported killed, and a
selection that fails without the mutant is reported as an error."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_are_found():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help_runs_without_pythonpath(script, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(script), "--help"],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:"), proc.stdout


def test_mutants_kills_a_cheap_mutant(tmp_path):
    """scripts/mutants.py applies a mutant to a copy of src/ and reports it
    killed by its tests; the checkout's own src/ is left as it was."""
    script = ROOT / "scripts" / "mutants.py"
    source = ROOT / "src" / "lienil" / "grassmann.py"
    before = source.read_bytes()
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(script), "--only",
                           "contains_ignores_x"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.split()[0] == "killed", proc.stdout
    assert proc.stdout.split()[-1] == "contains_ignores_x", proc.stdout
    assert source.read_bytes() == before


def test_mutants_refuses_a_selection_failing_without_the_mutant(
        tmp_path, monkeypatch, capsys):
    """A test that fails on the unchanged copy for a reason of its own (here
    it asks that lienil be imported from the checkout) cannot kill a mutant:
    the mutant is reported as an error and the script exits 2."""
    test = tmp_path / "test_checkout_only.py"
    test.write_text(
        "import lienil\n\n\n"
        "def test_imported_from_the_checkout():\n"
        f"    assert lienil.__file__.startswith({str(ROOT / 'src')!r})\n",
        encoding="utf-8")
    spec = importlib.util.spec_from_file_location(
        "mutants", ROOT / "scripts" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    name, file, old, new, _ = next(
        m for m in mutants.MUTANTS if m[0] == "contains_ignores_x")
    monkeypatch.setattr(mutants, "MUTANTS",
                        [(name, file, old, new, [str(test)])])
    assert mutants.main(["--only", name]) == 2
    out = capsys.readouterr().out
    assert out.startswith("error: the unchanged copy gives pytest exit 1"), out
    assert out.split()[-1] == name, out
