#!/usr/bin/env python3
"""Reproduce the four headline scenarios (fig1..fig4) into an output root.

Usage: python scripts/run_headline.py [output_root] [--jobs N]
"""

import argparse
import pathlib
import sys

from cohabs.cli import dispatch

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"

RUNS = [
    ("evolve", "fig1"),
    ("switch", "fig2"),
    ("sweep", "fig3"),
    ("sweep", "fig4"),
]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("output_root", nargs="?", default="results")
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args()
    for command, name in RUNS:
        print(f"== {name} ==", flush=True)
        code = dispatch([command, "--config", str(CONFIGS / f"{name}.json"),
                         "--output", f"{args.output_root}/{name}",
                         "--jobs", str(args.jobs)])
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
