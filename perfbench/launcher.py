"""Traced stand-in for ``python -m lienil.cli`` (cli_cold with --trace 1).

    python launcher.py <aggregates.json> <lienil cli arguments...>

Times the import of ``lienil.cli``, installs the layer tracer, runs
``lienil.cli.main`` on the arguments as one request and writes the tracer's
aggregates to the given file.  Exit code, stdout and stderr (including a
traceback if ``main`` raises) are those of ``python -m lienil.cli``; lienil
is found through PYTHONPATH, as for the untraced child.
"""

import json
import sys
import time

t0 = time.perf_counter()
import lienil.cli  # noqa: E402
import_s = time.perf_counter() - t0

from tracer import Tracer  # noqa: E402  (this script's directory is on sys.path)


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return tracer.request("cli", lienil.cli.main, argv)
    finally:
        tracer.uninstall()
        snap = tracer.snapshot()
        snap["import_s"] = import_s
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(snap, fh)


if __name__ == "__main__":
    sys.exit(main())
