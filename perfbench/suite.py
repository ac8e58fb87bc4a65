#!/usr/bin/env python3
"""Run every workload, the known-failing `dephasing` included, one after
another, each in its own process so peak memory is per workload.

    python3 perfbench/suite.py --seed 0 --seconds 10            # end-to-end metrics
    python3 perfbench/suite.py --seed 0 --seconds 10 --trace 1  # per-layer metrics

Exits non-zero if any workload run does not produce a result.
"""

from __future__ import annotations

import argparse
from pathlib import Path
import subprocess
import sys

import workloads

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    status = 0
    for name in workloads.WORKLOADS:
        print(f"== {name} ==", flush=True)
        code = subprocess.run([sys.executable, str(RUN), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)]).returncode
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
