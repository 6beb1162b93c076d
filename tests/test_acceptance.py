"""The acceptance gate: one test per criterion, plus the determinism
criterion and the slow degree-9 Cayley-Hamilton instance."""

import random
from pathlib import Path

import pytest

from lienil import acceptance
from lienil.acceptance import (canonical_report, criterion_1_transitivity,
                               criterion_2_theta,
                               criterion_3_oracle_equivalence,
                               criterion_4_minor_identity,
                               criterion_5_closure, criterion_6_fixed_ring,
                               criterion_7_cayley_hamilton,
                               criterion_8_embedding,
                               criterion_9_integrality,
                               criterion_10_shapes)

GOLDEN_REPORT = Path(__file__).parent / "data" / "reproduce_all_report.json"


def check(fn, **kwargs):
    passed, details = fn(**kwargs)
    assert passed, details


def test_criterion_1_transitivity():
    check(criterion_1_transitivity)


def test_criterion_2_hadamard_automorphism():
    check(criterion_2_theta)


def test_criterion_3_oracle_equivalence():
    check(criterion_3_oracle_equivalence)


def test_criterion_4_minor_identity():
    check(criterion_4_minor_identity)


def test_criterion_5_preadjoint_closure():
    check(criterion_5_closure)


def test_criterion_6_fixed_ring_determinants():
    check(criterion_6_fixed_ring)


def test_criterion_7_cayley_hamilton():
    check(criterion_7_cayley_hamilton)


def test_criterion_8_embedding():
    check(criterion_8_embedding)


def test_criterion_9_integrality():
    check(criterion_9_integrality)


def test_criterion_10_shapes():
    check(criterion_10_shapes)


def test_criterion_11_determinism():
    """Reports are byte-identical across runs (reproduce_all reruns the
    whole suite and compares the bytes) and equal the committed report."""
    report, timings = acceptance.reproduce_all()
    assert report["all_passed"]
    nums = [r["criterion"] for r in report["results"]]
    assert nums == list(range(1, 12))
    # timings never leak into the canonical report
    assert "time" not in canonical_report(report["results"])
    assert canonical_report(report["results"]) == GOLDEN_REPORT.read_text(
        encoding="utf-8")


@pytest.mark.slow
def test_slow_degree9_cayley_hamilton():
    """n = 3, k = 2: the degree-9 right Cayley-Hamilton identity on a
    sampled member of M_3(E, rho_e, P^(e))."""
    from lienil import charpoly, leading_coefficient_value
    from lienil.supermatrix import example_5_2, sample_supermatrix, shape
    spec = example_5_2(3, 4)
    A = sample_supermatrix(spec, random.Random(20240515), shape(spec))
    p = charpoly(A, 2)
    assert p.degree == 9
    assert p.coeffs[-1] == spec.ring.from_scalar(
        leading_coefficient_value(3, 2))
    res = p.subst_right_matrix(A)
    assert not any(e for row in res.rows for e in row)
