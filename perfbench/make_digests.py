"""Write the expected output digests that run.py compares every output with.

    python3 perfbench/make_digests.py --workload det_stream

Run from the root of a checkout.  Every block of the workload's pool is
built and each of its requests is run once (cli_cold documents in-process
through ``lienil.cli.main``); the digest of each canonical output is stored
in ``perfbench/digests/<workload>.json`` under the block's number.  A run
with any seed uses only pool blocks, so every output it makes has a digest.
Regenerate only when a change is meant to alter lienil's outputs.
"""

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOADS)
    args = parser.parse_args()
    root = os.getcwd()
    src = run.load_lienil(root)
    import workloads

    path = os.path.join(HERE, "digests", f"{args.workload}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    workdir = os.path.join(root, ".perfbench_work", f"digests-{os.getpid()}")
    table = {}
    try:
        for block in range(run.make_workload(args.workload, workdir, src).POOL):
            # a fresh workload per block: cli_cold caches replies by argv,
            # and every block's documents are written to the same paths
            wl = run.make_workload(args.workload, workdir, src)
            out = []
            for req in wl.build([block]):
                if args.workload == "cli_cold":
                    code, stdout = wl.expected(req)
                    result = (code, stdout, "")
                else:
                    result = wl.execute(req)
                reason = wl.check(req, result)
                if reason is not None:
                    sys.exit(f"block {block}: {req.op} [{req.label}]: {reason}")
                out.append(workloads.digest(wl.canonical(req, result)))
            table[str(block)] = out
            print(f"{args.workload} block {block}: {len(out)} digests", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                                    for k, v in table.items()) + "\n}\n")


if __name__ == "__main__":
    main()
