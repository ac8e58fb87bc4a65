#!/usr/bin/env python3
"""Reproduce every appendix scenario (switch order, landscape, weak coupling,
dephasing, classical inputs, mixer, pumped completion, admixtures).

At their production cutoffs and --jobs 1 on 2 vCPUs (OpenBLAS, 2 threads),
the dephasing run (appendixC_dephasing) takes 19-21 s and the mixer run
(appendixC_mw) about 3.5 s.

Usage: python scripts/run_appendices.py [output_root] [--jobs N] [--skip-slow]
"""

import argparse
import pathlib
import sys

from cohabs.cli import dispatch

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"

FAST = [
    ("switch", "appendixA"),
    ("landscape", "appendixB"),
    ("sweep", "appendixC_weak"),
    ("sweep", "appendixC_weakscan"),
    ("sweep", "appendixE"),
]
SLOW = [
    ("evolve", "appendixC_dephasing"),
    ("evolve", "appendixC_thermal"),
    ("evolve", "appendixC_prcoherent"),
    ("evolve", "appendixC_mw"),
    ("completed", "appendixD"),
]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("output_root", nargs="?", default="results")
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--skip-slow", action="store_true")
    args = ap.parse_args()
    runs = FAST if args.skip_slow else FAST + SLOW
    for command, name in runs:
        print(f"== {name} ==", flush=True)
        code = dispatch([command, "--config", str(CONFIGS / f"{name}.json"),
                         "--output", f"{args.output_root}/{name}",
                         "--jobs", str(args.jobs)])
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
