"""Output checks for one benchmark operation.

Invariants hold at every seed; at the default seed the headline numbers must
also match the values recorded in `reference.json` to 1e-9 (ROADMAP's
tolerance for headline values).
"""

from __future__ import annotations

import json
import math
import os

HEADLINE_ATOL = 1e-9
NORMALIZATION_ATOL = 0.02
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

_HEADLINE_KEYS = ("max_coherence", "tau_at_max", "shell_removed_coherence",
                  "effective_max_coherence")


def point_records(summary: dict) -> list[dict]:
    """Per-trajectory records of a CLI summary (one for a single scenario)."""
    return summary["points"] if "points" in summary else [summary]


def headline(summary: dict) -> dict[str, float]:
    """Headline numbers keyed by their place in the summary."""
    out = {}
    for i, rec in enumerate(point_records(summary)):
        for key in _HEADLINE_KEYS:
            if key in rec:
                out[f"{i}.{key}"] = rec[key]
        if abs(rec.get("max_coherence", 1.0)) <= HEADLINE_ATOL:
            del out[f"{i}.tau_at_max"]    # argmax of round-off: no maximum to place
        for label in ("half", "max"):
            if f"wigner_{label}" in rec:
                out[f"{i}.wigner_{label}.negativity_volume"] = \
                    rec[f"wigner_{label}"]["negativity_volume"]
    return out


def _finite_nonnegative(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and value >= 0.0


def check_summary(summary: dict, expected_leakage: bool,
                  reference: dict | None = None) -> list[str]:
    """Problems found in one operation's summary; empty when it passes."""
    problems = []
    for i, rec in enumerate(point_records(summary)):
        for key in ("max_coherence", "half_coherence", "shell_removed_coherence"):
            if key in rec and not _finite_nonnegative(rec[key]):
                problems.append(f"point {i}: {key} = {rec[key]!r} is not finite and >= 0")
        if rec.get("leakage_flag") is not expected_leakage:
            problems.append(f"point {i}: leakage flag is {rec.get('leakage_flag')!r}, "
                            f"expected {expected_leakage}")
        for label in ("half", "max"):
            grid = rec.get(f"wigner_{label}")
            if grid is None:
                continue
            norm = grid["normalization_integral"]
            if not abs(norm - 1.0) <= NORMALIZATION_ATOL:
                problems.append(f"point {i}: Wigner normalization at {label} is {norm!r}")
    if reference is not None:
        got = headline(summary)
        for key, want in reference.items():
            if key not in got:
                problems.append(f"headline {key} missing")
            elif not abs(got[key] - want) <= HEADLINE_ATOL:
                problems.append(f"headline {key} = {got[key]!r}, recorded {want!r}")
    return problems


def check_artifacts(output_dir: str, command: str, points: int) -> list[str]:
    """The files an operation must leave behind."""
    if command == "evolve":
        series = os.path.join(output_dir, "series.csv")
        if not os.path.exists(series):
            return ["series.csv missing"]
        with open(series) as fh:
            rows = sum(1 for _ in fh) - 1
        return [] if rows == points else [f"series.csv has {rows} rows, expected {points}"]
    found = [f for f in os.listdir(output_dir) if f.endswith("_summary.json")]
    return [] if found else ["sweep summary file missing"]


def load_reference(workload: str) -> dict | None:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh).get(workload)
