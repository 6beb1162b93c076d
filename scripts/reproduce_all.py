#!/usr/bin/env python3
"""Run the full acceptance suite (criteria 1-11) and print the canonical
report to stdout; per-criterion timings go to stderr.

Usage: python3 scripts/reproduce_all.py [--report FILE]
"""

import sys

from lienil.cli import main

if __name__ == "__main__":
    sys.exit(main(["reproduce-all", *sys.argv[1:]]))
