#!/usr/bin/env python3
"""Compare two artifact trees written by the cohabs CLI.

Every `series.csv`, `summary.json` and `config.json`, and every other file
that is not a Wigner grid, must be byte-equal.  Wigner grids (`wigner*.txt`
and `wigner*.csv`) are parsed: their axes must agree exactly and their values
and normalization integrals to within --wigner-atol, because `%.12g` text may
legitimately differ in the last printed digit (one unit there is 1e-12 for
0.1 <= |W| < 1; the error of parsing the decimal text is allowed for).  A
file present in only one tree is a mismatch.

A text file whose bytes differ but whose non-numeric text is the same is
also compared number by number, and its largest absolute difference is
printed; it still counts as a mismatch.  The last line is the verdict:
AGREE, or DISAGREE naming every missing file, every byte-differing file with
its largest numeric difference, and every Wigner grid beyond --wigner-atol.

Usage: python scripts/compare_outputs.py A B [--wigner-atol 1e-12]
Exit code 0 when the trees agree, 1 otherwise.
"""

import argparse
import pathlib
import re
import sys

import numpy as np

from cohabs.observables import load_wigner_text


def _files(root: pathlib.Path) -> set[pathlib.Path]:
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}


def _is_wigner(rel: pathlib.Path) -> bool:
    return rel.name.startswith("wigner") and rel.suffix in (".txt", ".csv")


def _excess(va: np.ndarray, vb: np.ndarray) -> tuple[float, float]:
    """Largest |a - b|, and the largest amount by which |a - b| exceeds the
    error of parsing the two decimal texts.  Each parse is off by up to half
    an ulp, so two texts whose decimal difference is exactly atol can read
    as atol + eps (|a| + |b|): one unit in the 12th digit of two values near
    0.1 reads as 1.0000056e-12."""
    diff = np.abs(va - vb)
    slack = np.finfo(float).eps * (np.abs(va) + np.abs(vb))
    return float(np.max(diff, initial=0.0)), float(np.max(diff - slack, initial=0.0))


def _wigner_difference(a: pathlib.Path, b: pathlib.Path) -> tuple[float, float, bool]:
    """`_excess` of the grid values (and normalization integral), and whether
    the coordinate axes agree exactly."""
    if a.suffix == ".txt":
        ga, gb = load_wigner_text(a), load_wigner_text(b)
        if ga.values.shape != gb.values.shape:
            return float("inf"), float("inf"), False
        axes_equal = np.array_equal(ga.x, gb.x) and np.array_equal(ga.p, gb.p)
        diff, excess = _excess(np.append(ga.values, ga.normalization_integral),
                               np.append(gb.values, gb.normalization_integral))
        return diff, excess, axes_equal
    ta = np.loadtxt(a, delimiter=",", skiprows=1, ndmin=2)
    tb = np.loadtxt(b, delimiter=",", skiprows=1, ndmin=2)
    if ta.shape != tb.shape:
        return float("inf"), float("inf"), False
    return *_excess(ta[:, 2], tb[:, 2]), np.array_equal(ta[:, :2], tb[:, :2])


NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _numeric_difference(a: pathlib.Path, b: pathlib.Path) -> float | None:
    """Largest absolute difference between the numbers of two text files, or
    None when their text apart from the numbers differs."""
    try:
        ta, tb = a.read_text(), b.read_text()
    except UnicodeDecodeError:
        return None
    if NUMBER.sub("#", ta) != NUMBER.sub("#", tb):
        return None
    va = np.array([float(v) for v in NUMBER.findall(ta)])
    vb = np.array([float(v) for v in NUMBER.findall(tb)])
    return float(np.max(np.abs(va - vb), initial=0.0))


def compare(root_a: pathlib.Path, root_b: pathlib.Path, wigner_atol: float) -> bool:
    files_a, files_b = _files(root_a), _files(root_b)
    # what disagrees, by kind, each entry naming a file and how far it is off
    missing, differ, grids = [], [], []
    for rel in sorted(files_a ^ files_b):
        print(f"MISSING  {rel} (only in {root_a if rel in files_a else root_b})")
        missing.append(str(rel))
    worst = 0.0
    for rel in sorted(files_a & files_b):
        a, b = root_a / rel, root_b / rel
        if _is_wigner(rel):
            diff, excess, axes_equal = _wigner_difference(a, b)
            worst = max(worst, diff)
            good = axes_equal and excess <= wigner_atol
            print(f"{'OK' if good else 'DIFFER':8} {rel} max|dW|={diff:.3e}"
                  + ("" if axes_equal else " (axes differ)"))
            if not good:
                grids.append(f"{rel} max|dW|={diff:.3e}" + ("" if axes_equal else ", axes differ"))
        else:
            good = a.read_bytes() == b.read_bytes()
            detail = "byte-equal" if good else "bytes differ"
            if not good:
                diff = _numeric_difference(a, b)
                numbers = "text differs" if diff is None else f"max|d|={diff:.3e}"
                detail += f", {numbers}"
                differ.append(f"{rel} {numbers}")
            print(f"{'OK' if good else 'DIFFER':8} {rel} {detail}")
    reasons = [f"{len(names)} {kind} ({'; '.join(names)})" for kind, names in (
        ("missing", missing), ("byte-differing", differ),
        (f"Wigner over atol {wigner_atol:g}", grids)) if names]
    if reasons:
        print("DISAGREE: " + ", ".join(reasons))
    else:
        print(f"AGREE: largest Wigner difference {worst:.3e} (atol {wigner_atol:g})")
    return not reasons


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=pathlib.Path)
    ap.add_argument("b", type=pathlib.Path)
    ap.add_argument("--wigner-atol", type=float, default=1e-12)
    args = ap.parse_args()
    for root in (args.a, args.b):
        if not root.is_dir():
            print(f"error: {root} is not a directory", file=sys.stderr)
            return 2
    return 0 if compare(args.a, args.b, args.wigner_atol) else 1


if __name__ == "__main__":
    sys.exit(main())
