"""Measure every workload over a range of seeds and write BASELINE.json.

    python3 perfbench/baseline.py --seeds 0-9 [--out perfbench/BASELINE.json]

Run from the root of a checkout.  Each seed runs each workload once untraced
for ``run_seconds`` (from BENCHMARK.json); the first seed also runs traced.
For every end-to-end metric, and for the raw figures on run.py's ``report``
line (``ops_per_s``, ``op_p50_ms``, ``ref_loop_s``, ...), it records the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, that is the distance between the quartiles as a share of the median.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_range(text):
    """A seed or an inclusive range such as 0-9."""
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def one_run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    report = json.loads(lines[-2].removeprefix("report "))
    return json.loads(lines[-1]), report


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True)
    parser.add_argument("--out", default=os.path.join(HERE, "BASELINE.json"))
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    import sympy

    out = {"machine": {"nproc": os.cpu_count(),
                       "python": platform.python_version(),
                       "sympy": sympy.__version__,
                       "platform": platform.platform()},
           "run_seconds": seconds, "seeds": list(args.seeds),
           "end_to_end": {}, "report": {}, "failed": {}, "per_layer": {}}
    for wl in (w["name"] for w in bench["workloads"]):
        metrics, report, failed = {}, {}, []
        for seed in args.seeds:
            result, raw = one_run(wl, seed, seconds, 0)
            print(wl, seed, json.dumps(result), flush=True)
            for name, m in result["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
            for name, value in raw.items():
                if value is not None:
                    report.setdefault(name, []).append(value)
            failed.append([result["failed"], result["attempted"]])
        out["end_to_end"][wl] = {k: summary(v) for k, v in metrics.items()}
        out["report"][wl] = {k: summary(v) for k, v in report.items()
                             if len(v) == len(args.seeds)}
        out["failed"][wl] = failed
        result, _ = one_run(wl, args.seeds[0], seconds, 1)
        out["per_layer"][wl] = {k: m["value"] for k, m in result["metrics"].items()}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
