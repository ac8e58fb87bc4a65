#!/usr/bin/env python3
"""Benchmark runner: runs one seeded workload through the cohabs CLI.

    python3 perfbench/run.py --workload fock_wigner --seed 0 --seconds 10 --trace 0

Operations are `cohabs.cli.dispatch` calls made one after another in this
process (a closed loop with one client) until `--seconds` have passed; each
gets a fresh output directory and a cleared propagator cache, as a new CLI
process would.  `--trace 0` prints the end-to-end metrics; `--trace 1`
alternates untraced and traced operations and prints the per-layer metrics.
The last line of standard output is the JSON result; the full record, with
spans when traced, goes to `.perfbench/results/`.  The program is imported
from `src/` of the checkout this file sits in, never from elsewhere.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
from pathlib import Path
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench"
SETUP_SAMPLES = 5


def import_program():
    """cohabs from this checkout's src/, or exit when it is not there."""
    src = ROOT / "src"
    if not (src / "cohabs" / "__init__.py").is_file():
        sys.exit(f"error: no cohabs package under {src}")
    sys.path.insert(0, str(src))
    import cohabs.cli
    import cohabs.experiments
    if src not in Path(cohabs.__file__).resolve().parents:
        sys.exit(f"error: imported cohabs from {cohabs.__file__}, not from {src}")
    return cohabs.cli, cohabs.experiments


def load_metric_specs() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


# -- set-up ------------------------------------------------------------------

def prepare(cli, work: workloads.Workload, workdir: Path) -> Path:
    """Write the workload's document and validate it with --dry-run."""
    config = workdir / "config.json"
    config.write_bytes(json.dumps(work.document, indent=2, sort_keys=True).encode())
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.dispatch(work.argv(str(config), str(workdir / "dry")) + ["--dry-run"])
    if code != 0:
        sys.exit(f"error: {work.name} fails --dry-run validation (exit {code}): "
                 f"{out.getvalue().strip()}")
    return config


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from starting a fresh interpreter to an operation being ready to
    start, once per sample; the children run one at a time."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            _, err = child.communicate(timeout=120)
        if line.strip() != "ready" or child.returncode != 0:
            sys.exit(f"error: set-up probe failed (exit {child.returncode}): {err.strip()}")
        samples.append(elapsed)
    return samples


# -- operations --------------------------------------------------------------

def _tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def run_operation(cli, experiments, work, config: Path, outdir: Path,
                  reference: dict | None, tracer=None, op: int = 0) -> dict:
    """One dispatch call, timed, then checked; failures are counted, never retried."""
    clear = getattr(experiments, "clear_propagator_cache", None)
    if clear is not None:
        clear()
    out, err = io.StringIO(), io.StringIO()
    error = None
    if tracer is not None:
        tracer.install()
        tracer.begin_operation(op)
    cpu0 = time.process_time()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.dispatch(work.argv(str(config), str(outdir)))
    except Exception as exc:            # an escaped error is a failed operation
        code, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu0
        if tracer is not None:
            tracer.end_operation()
            tracer.uninstall()
    if code not in (0, None):
        error = f"exit {code}: {err.getvalue().strip()}"
    problems = []
    if error is None:
        try:
            summary = json.loads(out.getvalue())
        except ValueError:
            problems = ["the printed summary is not JSON"]
        else:
            problems = checks.check_summary(summary, work.expected_leakage, reference)
            problems += checks.check_artifacts(str(outdir), work.command, work.points)
    artifact_bytes = _tree_bytes(outdir) if outdir.exists() else 0
    shutil.rmtree(outdir, ignore_errors=True)
    ok = error is None and not problems
    return {"op": op, "traced": tracer is not None, "wall_s": wall, "cpu_s": cpu,
            "ok": ok, "error": error, "problems": problems,
            "points": work.points if ok else 0, "artifact_bytes": artifact_bytes,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def run_loop(cli, experiments, work, config, workdir, reference, seconds,
             tracer=None) -> list[dict]:
    """Operations back to back until `seconds` have passed; with a tracer,
    untraced and traced operations alternate and at least one of each runs."""
    results = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(results) % 2 == 1
        results.append(run_operation(cli, experiments, work, config,
                                     workdir / f"op{len(results)}", reference,
                                     tracer if traced else None, len(results)))
        enough = tracer is None or any(r["traced"] for r in results)
        if enough and time.perf_counter() - start >= seconds:
            return results


# -- metrics -----------------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else None


def highest_percentile(values) -> tuple[float, float] | None:
    """(p, value) for the highest of p50/p90/p99/p99.9 with >= 10 samples beyond it."""
    best = None
    for p in (50.0, 90.0, 99.0, 99.9):
        if len(values) * (1.0 - p / 100.0) >= 10:
            best = (p, statistics.quantiles(values, n=1000, method="inclusive")
                    [round(p * 10) - 1])
    return best


def end_to_end(results: list[dict], setup: list[float]) -> dict:
    ok = [r for r in results if r["ok"]]
    total_wall = sum(r["wall_s"] for r in results)
    return {
        "setup_s": _median(setup),
        "wall_s": _median([r["wall_s"] for r in ok]),
        "points_per_s": sum(r["points"] for r in ok) / total_wall,
        "cpu_s": _median([r["cpu_s"] for r in ok]),
        # as one CLI invocation sees it: later operations in the same process
        # only add allocator growth
        "peak_rss_mb": results[0]["peak_rss_mb"],
        "failed_share": (len(results) - len(ok)) / len(results),
    }


def result_line(results: list[dict], values: dict, wanted: list[dict]) -> dict:
    """The JSON result; a run is correct only if every operation succeeded."""
    return {
        "correct": all(r["ok"] for r in results),
        "attempted": len(results),
        "failed": sum(not r["ok"] for r in results),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def per_layer(results: list[dict], tracer) -> tuple[dict, list[dict]]:
    selfs = tracing.self_times(tracer.spans)
    by_op: dict[int, list[int]] = {}
    for i, span in enumerate(tracer.spans):
        by_op.setdefault(span.op, []).append(i)
    traced = [r for r in results if r["traced"]]
    per_op = []
    for r in traced:
        idx = by_op.get(r["op"], [])
        spans = [tracer.spans[i] for i in idx]
        remap = {old: new for new, old in enumerate(idx)}
        local = [tracing.Span(s.name, s.start, s.end, remap.get(s.parent), s.op, s.thread,
                              s.attrs) for s in spans]
        m = tracing.operation_metrics(local, [selfs[i] for i in idx], r["wall_s"])
        m["cli.artifact_bytes"] = r["artifact_bytes"]
        per_op.append(m)
    out = {key: statistics.median(m[key] for m in per_op) for key in per_op[0]}
    untraced = [r["wall_s"] for r in results if not r["traced"]]
    out["trace.overhead"] = statistics.median(r["wall_s"] for r in traced) \
        / statistics.median(untraced) - 1.0
    return out, per_op


# -- run metadata ------------------------------------------------------------

def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cohabs").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _blas() -> dict:
    import numpy
    try:
        name = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        name = None
    threads = None
    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("lib*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": name, "threads": threads}


def metadata(args, work, cache_cleared: bool) -> dict:
    import numpy
    import scipy
    return {
        "workload": work.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "jobs": work.jobs, "git_sha": _git_sha(),
        "source_sha256": _source_digest(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": _blas(),
        "propagator_cache_cleared": cache_cleared,
    }


# -- entry point -------------------------------------------------------------

def _format(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    specs = None if args.setup_only else load_metric_specs()
    cli, experiments = import_program()
    setup = None if args.setup_only else measure_setup(args.workload, args.seed)
    work = workloads.generate(args.workload, args.seed)
    (WORK_ROOT / "tmp").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK_ROOT / "tmp"))
    try:
        config = prepare(cli, work, workdir)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        reference = checks.load_reference(work.name) \
            if args.seed == workloads.DEFAULT_SEED else None
        tracer = tracing.Tracer() if args.trace else None
        results = run_loop(cli, experiments, work, config, workdir, reference,
                           args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    meta = metadata(args, work, hasattr(experiments, "clear_propagator_cache"))
    e2e = end_to_end(results, setup)
    failed = sum(not r["ok"] for r in results)
    record = {"metadata": meta, "end_to_end": e2e, "operations": results,
              "setup_samples": setup}
    print(f"workload {work.name} seed {args.seed}: {len(results)} operations, "
          f"{failed} failed")
    for r in results:
        if not r["ok"]:
            print(f"  op {r['op']} failed: {r['error'] or '; '.join(r['problems'])}")
    units = {m["name"]: m["unit"] for m in specs["end_to_end"]}
    units["failed_share"] = "ratio"
    ok_walls = [r["wall_s"] for r in results if r["ok"]]
    tail = highest_percentile(ok_walls)
    notes = {"setup_s": f"median of {len(setup)} set-ups",
             "wall_s": f"median of {len(ok_walls)} operations" + (
                 f", p{tail[0]:g} {tail[1]:.6g} s" if tail else
                 "; too few samples for a tail percentile")}
    for name, value in e2e.items():
        print(f"  {name:<14} {_format(value):>12} {units.get(name, '')}"
              f"  {notes.get(name, '')}")

    if tracer is None:
        wanted = specs["end_to_end"]
        values = e2e
    else:
        values, per_op = per_layer(results, tracer)
        wanted = specs["per_layer"]
        record["per_layer"] = values
        record["per_operation_layers"] = per_op
        record["absent_layers"] = tracer.absent_layers()
        record["spans"] = [vars(s) for s in tracer.spans]
        print(f"  per-layer (median of {len(per_op)} traced operations; "
              f"absent layers: {record['absent_layers'] or 'none'}):")
        for name, value in values.items():
            print(f"  {name:<40} {_format(value):>12} {tracing.unit(name)}")
        print("  experiments.cache.eigh_per_model per traced operation: "
              + ", ".join(_format(m["experiments.cache.eigh_per_model"]) for m in per_op))

    (WORK_ROOT / "results").mkdir(parents=True, exist_ok=True)
    path = WORK_ROOT / "results" / f"{work.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({"metadata": meta}))
    print(json.dumps(result_line(results, values, wanted)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
