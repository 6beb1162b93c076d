"""lienil benchmark: one seeded workload per run, outputs checked.

Run from the root of a checkout (the directory holding ``src/lienil``):

    python3 perfbench/run.py --workload det_stream --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
runs a fixed prefix of the same requests once untraced and once under the
layer tracer and reports the per-layer metrics and the tracing overhead.
Every output is checked after the timed window; the last line of stdout is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
metric names, units and bounds are declared in ``BENCHMARK.json``.  The line
before it, ``report {...}``, holds the raw figures of the run as JSON.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("det_stream", "construct_cyc", "cli_cold")
SETUP_REPS = 3                       # set-up runs per run; setup_s is their median
REF_NOMINAL_S = 0.00086              # the reference loop's median time in seconds
                                     # on the baseline machine (README.md)
TRACE_BLOCKS = {"det_stream": 2, "construct_cyc": 1, "cli_cold": 1}
INTERPRETER_RUNS = 5                 # bare `python -c pass` runs (traced cli_cold)


class CheckoutError(RuntimeError):
    pass


def load_lienil(root):
    """Import lienil from ``root/src`` and nowhere else."""
    src = os.path.join(os.path.abspath(root), "src")
    if not os.path.isfile(os.path.join(src, "lienil", "__init__.py")):
        raise CheckoutError(f"no lienil package under {src}")
    sys.path.insert(0, src)
    import lienil
    if os.path.dirname(os.path.dirname(os.path.abspath(lienil.__file__))) != src:
        raise CheckoutError(f"lienil imported from {lienil.__file__}, not {src}")
    return src


# --- statistics ------------------------------------------------------------

def percentile(values, q, min_beyond=10):
    """Nearest-rank q-quantile, or None unless at least ``min_beyond``
    samples lie above it (the rule for reporting a tail percentile)."""
    n = len(values)
    if not n:
        return None
    rank = max(1, -(-int(q * 1000) * n // 1000))      # ceil(q * n)
    if n - rank < min_beyond:
        return None
    return sorted(values)[rank - 1]


def peak_rss_mb(children=False):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# --- running ---------------------------------------------------------------

def make_workload(name, workdir, src):
    import workloads
    if name == "det_stream":
        return workloads.DetStream()
    if name == "construct_cyc":
        return workloads.ConstructCyc()
    if name == "cli_cold":
        return workloads.CliCold(workdir, src,
                                 launcher=os.path.join(HERE, "launcher.py"))
    raise CheckoutError(f"unknown workload {name!r}")


def reference_loop():
    """A fixed piece of pure-Python work (Fraction and dict arithmetic, like
    lienil's inner loops) timed after every request and around every
    set-up.  A shared machine's speed can drift by 20-50% over seconds (the
    baseline machine did); dividing a latency by the reference time measured
    next to it cancels most of that drift."""
    t0 = time.perf_counter()
    acc, d = Fraction(0), {}
    for _ in range(2):
        for i in range(1, 60):
            acc += Fraction(i, i + 1) * Fraction(3, 7)
            d[i & 15] = d.get(i & 15, 0) + i
    return time.perf_counter() - t0


def reference_time(samples=5):
    return statistics.median(reference_loop() for _ in range(samples))


def run_setup(wl, seed):
    """SETUP_REPS identical set-ups.  Returns (requests, raw times, scaled
    times, deterministic); a scaled time is in seconds at the reference speed
    (the raw time times REF_NOMINAL_S over the reference time around it)."""
    raw, scaled, texts, requests = [], [], [], None
    for _ in range(SETUP_REPS):
        gc.collect()
        before = reference_time()
        t0 = time.perf_counter()
        requests = wl.setup(seed)
        t = time.perf_counter() - t0
        after = reference_time()
        raw.append(t)
        scaled.append(t * REF_NOMINAL_S / ((before + after) / 2))
        texts.append(wl.inputs_text(requests))
    return requests, raw, scaled, len(set(texts)) == 1


def timed_loop(wl, requests, seconds):
    """Closed loop, one client: send the next request when the last returns,
    until ``seconds`` have passed and a block is complete, so that every run
    has the same mix of operations.  Returns (outputs, latencies, relative
    latencies, reference times, errors, wall); a relative latency is the
    latency divided by the mean of the reference times measured just before
    and just after."""
    gc.collect()
    outs, lats, errors = [], [], {}
    refs = [reference_loop()]
    n = len(requests)
    block = n // wl.BLOCKS
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        req = requests[i % n]
        t0 = time.perf_counter()
        try:
            out = wl.execute(req)
        except Exception as exc:        # a raising request counts as failed
            out = None
            errors[i] = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        refs.append(reference_loop())
        outs.append(out)
        lats.append(t1 - t0)
        i += 1
        if i % block == 0 and t1 >= deadline:
            break
    wall = time.perf_counter() - start
    rel = [t / ((refs[k] + refs[k + 1]) / 2) for k, t in enumerate(lats)]
    return outs, lats, rel, refs, errors, wall


def load_digests(wl):
    """The committed digest of every request set-up made, in request order."""
    path = os.path.join(HERE, "digests", f"{wl.name}.json")
    try:
        with open(path, encoding="utf-8") as fh:
            table = json.load(fh)
    except FileNotFoundError:
        raise CheckoutError(f"{path} is missing: run make_digests.py") from None
    out = []
    for k in wl.blocks:
        if str(k) not in table:
            raise CheckoutError(f"digests/{wl.name}.json has no pool block {k}: "
                                "regenerate it with make_digests.py")
        out.extend(table[str(k)])
    return out


def check_outputs(wl, requests, outs, errors, expected_digests):
    """Failure reasons by request index (checked outside the timed window)."""
    import workloads
    failures = dict(errors)
    n = len(requests)
    for i, out in enumerate(outs):
        if i in failures:
            continue
        req = requests[i % n]
        try:
            reason = wl.check(req, out)
            if reason is None and \
                    workloads.digest(wl.canonical(req, out)) != expected_digests[i % n]:
                reason = "output differs from the committed digest"
        except Exception as exc:
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures[i] = reason
    return failures


def run_probes(wl):
    """Known-defect documents (cli_cold only): (name, reason or None)."""
    results = []
    for req in wl.probes:
        out = wl.execute(req)
        results.append((req.label, wl.check(req, out), out[0]))
    return results


def end_to_end(wl, requests, seconds, setup_raw, setup_scaled):
    outs, lats, rel, refs, errors, wall = timed_loop(wl, requests, seconds)
    rss = peak_rss_mb(children=wl.name == "cli_cold")
    metrics = {
        "op_p50_ref": (statistics.median(rel), "ref"),
        "op_mean_ref": (statistics.fmean(rel), "ref"),
        "setup_s": (statistics.median(setup_scaled), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    p90 = percentile(lats, 0.9)
    extra = {"setup_raw_s": (statistics.median(setup_raw), "s"),
             "ref_loop_s": (statistics.median(refs), "s"),
             "wall_s": (wall, "s"),
             "ops_per_s": (len(outs) / wall, "1/s"),
             "op_p50_ms": (statistics.median(lats) * 1e3, "ms"),
             "op_p90_ms": (p90 * 1e3 if p90 is not None else None, "ms"),
             "samples": (len(lats), "count")}
    return outs, lats, rel, errors, metrics, extra


def traced(wl, requests, seed, root):
    """Run the trace prefix untraced, then traced; per-layer metrics."""
    n_trace = TRACE_BLOCKS[wl.name] * len(requests) // wl.BLOCKS
    subset = requests[:n_trace]
    if wl.name == "cli_cold":       # the probes count in cli.exit_code.*
        subset, outs, errors, snap, walls = traced_cli(wl, subset + wl.probes)
        return (subset[:n_trace], outs[:n_trace],
                {i: e for i, e in errors.items() if i < n_trace}, snap, walls)

    gc.collect()
    t0 = time.perf_counter()
    for req in subset:
        wl.execute(req)
    untraced_wall = time.perf_counter() - t0

    tr = tracer.Tracer()
    tr.install()
    try:
        tr.request("setup", wl.setup, seed)
        tr.request_total = tr.request_self = 0.0   # account requests only
        gc.collect()
        outs, errors = [], {}
        t0 = time.perf_counter()
        for i, req in enumerate(subset):
            try:
                outs.append(tr.request(req.op, wl.execute, req))
            except Exception as exc:
                outs.append(None)
                errors[i] = f"{type(exc).__name__}: {exc}"
        traced_wall = time.perf_counter() - t0
    finally:
        tr.uninstall()
    snap = tr.snapshot()
    write_spans(root, f"{wl.name}-{seed}", tr.spans)
    return subset, outs, errors, snap, {"traced_wall_s": traced_wall,
                                        "untraced_wall_s": untraced_wall}


def traced_cli(wl, subset):
    """cli_cold: children run plain, then through the tracing launcher,
    which writes each child's aggregates to a file."""
    import workloads
    gc.collect()
    t0 = time.perf_counter()
    for req in subset:
        wl.execute(req)
    untraced_wall = time.perf_counter() - t0

    trace_dir = os.path.join(wl.workdir, "trace")
    os.makedirs(trace_dir, exist_ok=True)
    outs, errors, snaps = [], {}, []
    t0 = time.perf_counter()
    for i, req in enumerate(subset):
        out_path = os.path.join(trace_dir, f"{i}.json")
        try:
            outs.append(wl.execute(req, trace_out=out_path))
        except Exception as exc:
            outs.append(None)
            errors[i] = f"{type(exc).__name__}: {exc}"
    traced_wall = time.perf_counter() - t0
    for i in range(len(subset)):
        path = os.path.join(trace_dir, f"{i}.json")
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                snaps.append(json.load(fh))
    snap = tracer.merge_snapshots(snaps)
    floor = []
    for _ in range(INTERPRETER_RUNS):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        floor.append(time.perf_counter() - t)
    codes = [o[0] for o in outs if o is not None]
    cli = {"import_s": statistics.median(s["import_s"] for s in snaps) if snaps else 0.0,
           "interpreter_s": statistics.median(floor),
           "exit_codes": {k: codes.count(k) for k in range(4)},
           "tracebacks": sum(1 for o in outs
                             if o is not None and workloads.has_traceback(o[2]))}
    return subset, outs, errors, snap, {"traced_wall_s": traced_wall,
                                        "untraced_wall_s": untraced_wall,
                                        "cli": cli}


def write_spans(root, tag, spans):
    """Keep the traced run's spans (id, parent, name, start, end) in the
    checkout for inspection."""
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{tag}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([list(s) for s in spans], fh)


def layer_metrics(snap, walls):
    """Every per-layer metric, (value, unit), for the traced prefix."""
    agg, c = snap["agg"], snap["counters"]

    def calls(m):
        return agg.get(m, [0, 0.0, 0.0])[0]

    def self_s(m):
        return agg.get(m, [0, 0.0, 0.0])[1]

    def busy_s(m):
        return agg.get(m, [0, 0.0, 0.0])[2]

    def ratio(num, den):
        return num / den if den else 0.0

    cli = walls.get("cli", {"import_s": 0.0, "interpreter_s": 0.0,
                            "exit_codes": {k: 0 for k in range(4)},
                            "tracebacks": 0})
    out = {}
    for m in ("scalars.mul", "scalars.inverse", "grassmann.mul",
              "linalg.kernel_basis", "linalg.rank", "matrices.matmul",
              "matrices.is_transitive", "dets.sdet", "dets.preadjoint",
              "rings.rpoly_mul", "rings.endomorphism"):
        out[f"{m}.calls"] = (calls(m), "count")
        out[f"{m}.self_s"] = (self_s(m), "s")
    for m in ("scalars.add", "grassmann.add", "grassmann.solve_constraint",
              "supermatrix.shape", "rings.oracle_mul",
              "parallel.map_reduce_sum", "supermatrix.is_supermatrix",
              "supermatrix.embed", "supermatrix.check_embedding_conditions",
              "dets.charpoly", "dets.integrality_certificate", "cli.main",
              "serialize.decode", "serialize.encode", "matrices.blow_up"):
        out.setdefault(f"{m}.calls", (calls(m), "count"))
    for m in ("grassmann.solve_constraint", "matrices.blow_up",
              "supermatrix.shape", "supermatrix.check_embedding_conditions",
              "dets.charpoly", "dets.integrality_certificate",
              "parallel.map_reduce_sum", "cli.main", "serialize.decode",
              "serialize.encode"):
        out[f"{m}.busy_s"] = (busy_s(m), "s")
    for m in ("supermatrix.is_supermatrix", "supermatrix.embed"):
        out[f"{m}.self_s"] = (self_s(m), "s")
    out["grassmann.mul.pairs"] = (c.get("grassmann.mul.pairs", 0), "count")
    out["grassmann.mul.pair_hit_ratio"] = (
        ratio(c.get("grassmann.mul.hits", 0), c.get("grassmann.mul.pairs", 0)),
        "ratio")
    out["supermatrix.shape.repeat_ratio"] = (
        ratio(c.get("supermatrix.shape.repeats", 0), calls("supermatrix.shape")),
        "ratio")
    out["dets.perm_terms"] = (c.get("dets.perm_terms", 0), "count")
    out["dets.perm_terms_nonzero_ratio"] = (
        ratio(c.get("dets.perm_terms_nonzero", 0), c.get("dets.perm_terms", 0)),
        "ratio")
    for layer in tracer.LAYERS:
        out[f"{layer}.errors"] = (snap["errors"].get(layer, 0), "count")
    out["cli.import_s"] = (cli["import_s"], "s")
    out["process.interpreter_s"] = (cli["interpreter_s"], "s")
    for k in range(4):
        out[f"cli.exit_code.{k}"] = (cli["exit_codes"][k], "count")
    out["cli.tracebacks"] = (cli["tracebacks"], "count")
    out["trace.traced_wall_s"] = (walls["traced_wall_s"], "s")
    out["trace.untraced_wall_s"] = (walls["untraced_wall_s"], "s")
    out["trace.overhead_ratio"] = (
        ratio(walls["traced_wall_s"], walls["untraced_wall_s"]), "x")
    out["trace.layer_share"] = (
        1.0 - ratio(snap["request_self"], snap["request_total"]), "ratio")
    out["trace.spans"] = (snap["spans"], "count")
    return out


def declared_metrics(root, section):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[section]]


def fmt(value):
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    # One CPU for the benchmark and its children: no migrations, and the
    # reference loop runs where the requests run.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        src = load_lienil(root)
    except (CheckoutError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    workdir = os.path.join(root, ".perfbench_work", str(os.getpid()))
    try:
        return run(args, root, src, workdir)
    except CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass


def run(args, root, src, workdir):
    wl = make_workload(args.workload, workdir, src)
    requests, setup_raw, setup_scaled, deterministic = run_setup(wl, args.seed)
    digests = load_digests(wl)
    if len(digests) != len(requests):
        raise CheckoutError(f"digests/{wl.name}.json has {len(digests)} digests "
                            f"for seed {args.seed}, set-up made {len(requests)} "
                            "requests: regenerate it with make_digests.py")
    report = {}
    lines = [f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
             f"requests generated {len(requests)}  pool blocks {wl.blocks}  "
             f"set-up runs {', '.join(f'{t:.3f}s' for t in setup_raw)}"]

    if args.trace:
        subset, outs, errors, snap, walls = traced(wl, requests, args.seed, root)
        failures = check_outputs(wl, subset, outs, errors,
                                 digests[:len(subset)])
        values = layer_metrics(snap, walls)
        section = "per_layer"
        attempted = len(outs)
    else:
        outs, lats, rel, errors, values, extra = end_to_end(
            wl, requests, args.seconds, setup_raw, setup_scaled)
        failures = check_outputs(wl, requests, outs, errors, digests)
        section = "end_to_end"
        attempted = len(outs)
        for name, (v, unit) in extra.items():
            lines.append(f"  {name:<34} {fmt(v):>14} {unit}")
            report[name] = v
        by_op = {}
        for i, (t, r) in enumerate(zip(lats, rel)):
            req = requests[i % len(requests)]
            by_op.setdefault(f"{req.op} [{req.label}]", []).append((t, r))
        lines.append("  per input class: median ms, median ref (samples)")
        for key, ts in by_op.items():
            lines.append(f"    {key:<48} {statistics.median(t for t, _ in ts) * 1e3:10.2f}"
                         f" {statistics.median(r for _, r in ts):10.2f} ({len(ts)})")

    probes = run_probes(wl) if wl.name == "cli_cold" else []
    failed = len(failures)
    for name, (v, unit) in values.items():
        lines.append(f"  {name:<34} {fmt(v):>14} {unit}")
    report["failed_ratio"] = failed / attempted
    lines.append(f"  failed_ratio {failed}/{attempted} = {failed / attempted:.4f}"
                 f"   set-up deterministic {deterministic}")
    for i, reason in sorted(failures.items())[:10]:
        req = requests[i % len(requests)] if not args.trace else subset[i]
        lines.append(f"  FAILED #{i} {req.op} [{req.label}]: {reason}")
    if probes:
        bad = sum(1 for _, reason, _ in probes if reason)
        documents = len(probes) + len(requests) // wl.BLOCKS
        report["known_defect_failed_ratio"] = bad / documents
        lines.append(f"  known-defect probes violating the exit-code contract: "
                     f"{bad}/{len(probes)} (share of all documents "
                     f"{bad}/{documents})")
        for name, reason, code in probes:
            lines.append(f"    probe {name}: exit {code}, {reason or 'ok'}")
    print("\n".join(lines))
    print("report " + json.dumps(report))

    metrics = {name: {"value": values[name][0], "unit": values[name][1]}
               for name in declared_metrics(root, section)}
    print(json.dumps({"correct": failed == 0 and deterministic,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
