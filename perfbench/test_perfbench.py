"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/test_perfbench.py

They check the harness, not lienil: seeded inputs, committed digests for
every seed, the percentile rule, the block-boundary stop, that wrong answers
and unexpected exit codes are counted as failed, and the tracer's self-time
accounting.
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.load_lienil(os.path.dirname(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402
from lienil import dets, grassmann, matrices, parallel  # noqa: E402


@pytest.fixture(scope="module")
def det_run():
    """A det_stream workload after set-up, its requests and their digests."""
    wl = workloads.DetStream()
    requests = wl.setup(7)
    return wl, requests, run.load_digests(wl)


# --- seeded inputs ---------------------------------------------------------

@pytest.mark.parametrize("name", ["det_stream", "construct_cyc", "cli_cold"])
def test_same_seed_same_inputs_other_seed_other_inputs(name, tmp_path):
    texts = []
    for i, seed in enumerate((11, 11, 12)):
        wl = run.make_workload(name, str(tmp_path / str(i)), "src")
        texts.append(wl.inputs_text(wl.setup(seed)))
    assert texts[0] == texts[1]
    assert texts[0] != texts[2]


SLOTS = {"det_stream": len(workloads.DET_SLOTS),
         "construct_cyc": len(workloads.CYC_SLOTS), "cli_cold": 17}


@pytest.mark.parametrize("name", ["det_stream", "construct_cyc", "cli_cold"])
def test_every_seed_has_committed_digests(name, tmp_path):
    wl = run.make_workload(name, str(tmp_path), "src")
    for seed in (0, 21, 10 ** 9):
        wl.blocks = workloads.pick_blocks(name, seed, wl.BLOCKS, wl.POOL)
        assert len(run.load_digests(wl)) == wl.BLOCKS * SLOTS[name]
    wl.blocks = [wl.POOL]                   # outside the pool
    with pytest.raises(run.CheckoutError):
        run.load_digests(wl)


# --- timed loop and percentile rule ----------------------------------------

def test_timed_loop_ends_at_a_block_boundary():
    class TwoBlocks:
        BLOCKS = 2

        def execute(self, req):
            return req

    outs, *_ = run.timed_loop(TwoBlocks(), list(range(6)), 0.0)
    assert outs == [0, 1, 2]


def test_p90_needs_ten_samples_beyond_it():
    assert run.percentile(list(range(99)), 0.9) is None
    assert run.percentile(list(range(100)), 0.9) == 89
    assert run.percentile(list(range(19)), 0.5) is None
    assert run.percentile(list(range(20)), 0.5) == 9


# --- failures are counted --------------------------------------------------

def test_wrong_answer_is_counted(det_run):
    wl, requests, digests = det_run
    reqs = requests[:3]                     # sdet, preadjoint, rdet2
    outs = [wl.execute(r) for r in reqs]
    assert run.check_outputs(wl, reqs, outs, {}, digests[:3]) == {}
    outs[0] = outs[0] + outs[0].ring.one    # an injected wrong sdet
    failures = run.check_outputs(wl, reqs, outs, {}, digests[:3])
    assert list(failures) == [0]


def test_changed_output_bytes_are_counted(det_run):
    wl, requests, digests = det_run
    reqs = requests[:2]
    outs = [wl.execute(r) for r in reqs]
    bad = [digests[0], "0" * 10]
    assert list(run.check_outputs(wl, reqs, outs, {}, bad)) == [1]


def test_raised_request_is_counted(det_run):
    wl, requests, digests = det_run
    reqs = requests[:2]
    outs = [wl.execute(reqs[0]), None]
    failures = run.check_outputs(wl, reqs, outs, {1: "RingError: boom"},
                                 digests[:2])
    assert failures == {1: "RingError: boom"}


def test_unexpected_exit_code_and_traceback_are_counted(tmp_path):
    wl = workloads.CliCold(str(tmp_path), "src")
    reqs = wl.setup(3)
    digests = run.load_digests(wl)
    ok = next(i for i, r in enumerate(reqs) if r.label == "sdet")
    cap = next(i for i, r in enumerate(reqs) if r.label == "over-cap")
    ok_req, cap_req = reqs[ok], reqs[cap]
    code, stdout = wl.expected(ok_req)
    assert code == 0
    outs = [(code, stdout, ""),                          # as expected
            (1, stdout, ""),                             # wrong exit code
            (0, stdout, "Traceback (most recent call last):\n"),
            (0, "", "")]                                 # cap not enforced
    failures = run.check_outputs(wl, [ok_req, ok_req, ok_req, cap_req], outs,
                                 {}, [digests[ok]] * 3 + [digests[cap]])
    assert sorted(failures) == [1, 2, 3]


# --- tracer ----------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_child_time():
    clock = FakeClock()
    tr = tracer.Tracer(clock=clock)

    def inner():
        clock.now += 5.0

    inner_w = tr.wrap("fakechild.inner", inner)

    def outer():
        clock.now += 1.0
        inner_w()
        inner_w()
        clock.now += 2.0

    outer_w = tr.wrap("fakelayer.outer", outer)
    tr.request("r", outer_w)
    calls, self_s, busy_s = tr.agg["fakelayer.outer"]
    assert (calls, self_s, busy_s) == (1, 3.0, 13.0)
    assert tr.agg["fakechild.inner"] == [2, 10.0, 10.0]
    assert tr.request_total == 13.0 and tr.request_self == 0.0
    # spans: two layer entries into fakechild, one into fakelayer, the request
    names = sorted(name for _, _, name, _, _ in tr.spans)
    assert names == ["fakechild.inner", "fakechild.inner", "fakelayer.outer",
                     "request.r"]
    ids = {sid: parent for sid, parent, _, _, _ in tr.spans}
    outer_id = next(s[0] for s in tr.spans if s[2] == "fakelayer.outer")
    assert all(ids[s[0]] == outer_id for s in tr.spans if s[2] == "fakechild.inner")


def test_install_patches_every_holder_and_uninstall_restores():
    original = parallel.map_reduce_sum
    tr = tracer.Tracer()
    tr.install()
    try:
        assert dets.map_reduce_sum is parallel.map_reduce_sum
        assert dets.map_reduce_sum is not original
    finally:
        tr.uninstall()
    assert dets.map_reduce_sum is original and parallel.map_reduce_sum is original


def test_traced_counts_repeat_exactly():
    E = grassmann.GrassmannAlgebra(3)
    A = matrices.Matrix(E, [[E.element({(i * 3 + j) % 8: i - j + 1})
                             for j in range(3)] for i in range(3)])
    snaps = []
    for _ in range(2):
        tr = tracer.Tracer()
        tr.install()
        try:
            tr.request("sdet", dets.sdet, A)
        finally:
            tr.uninstall()
        snaps.append(tr.snapshot())
    a, b = snaps
    assert a["counters"]["dets.perm_terms"] == 36
    for key in ("dets.perm_terms", "dets.perm_terms_nonzero",
                "grassmann.mul.pairs", "grassmann.mul.hits"):
        assert a["counters"][key] == b["counters"][key]
    for metric in ("grassmann.mul", "scalars.mul", "dets.sdet",
                   "parallel.map_reduce_sum"):
        assert a["agg"][metric][0] == b["agg"][metric][0] > 0
