"""Spans around the public entry points of each cohabs module, patched in
from outside the package and restored afterwards.

Each function is wrapped at the name binding its caller uses: `cohabs.cli`
and `cohabs.experiments` import several functions by name, so those bindings
are patched beside the defining module's.  A span records its name, start,
end, parent span and operation id; spans stay in memory until the run writes
them out.  A target missing after a refactor is reported as absent, not
raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import functools
import hashlib
import importlib
import os
import threading
import time

import numpy as np

SWEEPS = ("experiments.admixture_sweep", "experiments.completed_model_run")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None          # index of the parent span in the tracer's list
    op: int | None
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _union_length(intervals) -> float:
    total = 0.0
    lo = hi = None
    for a, b in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if hi is None or a > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = a, b
        else:
            hi = max(hi, b)
    if hi is not None:
        total += hi - lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover.

    Children running in parallel threads overlap; their union is subtracted
    once.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    return [s.duration - _union_length((max(c.start, s.start), min(c.end, s.end))
                                       for c in children.get(i, ()))
            for i, s in enumerate(spans)]


# -- attributes recorded per span -------------------------------------------

def _state_at_name(args, kwargs) -> str:
    state0 = args[1] if len(args) > 1 else kwargs["state0"]
    return "evolution.propagate_ket" if state0.is_vector else "evolution.propagate_density"


def _eigh_attrs(args, kwargs, result) -> dict:
    entries = np.ascontiguousarray((args[1] if len(args) > 1 else kwargs["hamiltonian"]).entries)
    dim = entries.shape[0]
    return {"dim": dim, "bytes": 16 * dim * dim,
            "model": hashlib.blake2b(entries.tobytes(), digest_size=16).hexdigest()}


def _hamiltonian_attrs(args, kwargs, result) -> dict:
    return {"dim": result.entries.shape[0]}


def _wigner_attrs(args, kwargs, result) -> dict:
    return {"grid_points": int(result.values.size)}


def _saved_bytes(args, kwargs, result) -> dict:
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _lindblad_attrs(args, kwargs, result) -> dict:
    return {"points": len(result.times)}


# (span name, module, attribute path, attribute recorder)
TARGETS = (
    ("cli.dispatch", "cohabs.cli", "dispatch", None),
    ("experiments.run_scenario", "cohabs.experiments", "run_scenario", None),
    ("experiments.run_point", "cohabs.experiments", "run_point", None),
    *((name, "cohabs.experiments", name.split(".", 1)[1], None) for name in SWEEPS),
    ("states.make_state", "cohabs.states", "make_state", None),
    ("models.build_hamiltonian", "cohabs.models", "build_hamiltonian", _hamiltonian_attrs),
    ("models.dephasing_dissipator", "cohabs.models", "dephasing_dissipator", None),
    ("evolution.eigh", "cohabs.evolution", "HamiltonianPropagator.__init__", _eigh_attrs),
    (_state_at_name, "cohabs.evolution", "HamiltonianPropagator.state_at", None),
    ("evolution.lindblad", "cohabs.experiments", "lindblad_evolve", _lindblad_attrs),
    ("evolution.leakage", "cohabs.experiments", "top_level_population", None),
    ("hilbert.partial_trace", "cohabs.experiments", "partial_trace", None),
    ("observables.diagnose", "cohabs.experiments", "diagnose", None),
    ("observables.wigner", "cohabs.observables", "wigner", _wigner_attrs),
    ("observables.save_wigner", "cohabs.observables", "save_wigner_text", _saved_bytes),
    ("observables.save_wigner", "cohabs.observables", "save_wigner_csv", _saved_bytes),
    ("observables.shell_removal", "cohabs.observables", "remove_gaussian_shell", None),
    ("observables.coherence", "cohabs.observables", "coherence", None),
    ("observables.negativity_volume", "cohabs.observables", "negativity_volume", None),
)


class Tracer:
    """Span recorder.  Spans opened by a thread with nothing open of its own
    (a sweep worker) hang under the innermost span open in the thread that
    started the operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._op: int | None = None
        self._op_thread: int | None = None

    def begin_operation(self, op: int) -> None:
        self._op = op
        self._op_thread = threading.get_ident()

    def end_operation(self) -> None:
        self._op = None

    def open(self, name: str) -> int:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                origin = self._stacks.get(self._op_thread)
                parent = origin[-1] if origin else None
            self.spans.append(Span(name, time.perf_counter(), float("nan"), parent,
                                   self._op, tid))
            stack.append(len(self.spans) - 1)
            return len(self.spans) - 1

    def close(self, index: int) -> Span:
        end = time.perf_counter()
        with self._lock:
            span = self.spans[index]
            span.end = end
            self._stacks[span.thread].pop()
            return span

    def wrap(self, name, fn, recorder=None):
        """`fn` inside a span; `name` may be a function of the call's arguments."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(index).attrs["error"] = type(exc).__name__
                raise
            span = self.close(index)
            if recorder is not None:
                span.attrs.update(recorder(args, kwargs, result))
            return result

        return traced

    def install(self, targets=TARGETS) -> None:
        self.absent = []
        for name, module_name, path, recorder in targets:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{path}")
                continue
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, recorder))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def absent_layers(self, targets=TARGETS) -> list[str]:
        """Layers none of whose patch targets exist."""
        missing = set(self.absent)
        by_layer: dict[str, list[bool]] = {}
        for name, module_name, path, _ in targets:
            layer = "evolution.state_at" if callable(name) else name
            by_layer.setdefault(layer, []).append(f"{module_name}.{path}" in missing)
        return sorted(layer for layer, gone in by_layer.items() if all(gone))


# -- per-operation layer metrics ---------------------------------------------

def unit(metric: str) -> str:
    if metric.endswith((".s", "self_s")):
        return "s"
    if metric.endswith("bytes"):
        return "bytes"
    if metric.endswith((".calls", ".grid_points", ".points", ".max_dim")):
        return "count"
    return "ratio"


TIMED_LAYERS = ("observables.wigner", "observables.save_wigner", "observables.diagnose",
                "observables.shell_removal", "hilbert.partial_trace",
                "evolution.propagate_density", "evolution.propagate_ket",
                "evolution.lindblad", "evolution.eigh", "models.build_hamiltonian",
                "states.make_state")


def _descends_from(spans: list[Span], index: int, ancestor: int) -> bool:
    parent = spans[index].parent
    while parent is not None:
        if parent == ancestor:
            return True
        parent = spans[parent].parent
    return False


def operation_metrics(spans: list[Span], selfs: list[float], wall: float) -> dict:
    """Layer metrics of one operation from its spans and their self times."""
    out: dict[str, float] = {}
    for layer in TIMED_LAYERS:
        mine = [i for i, s in enumerate(spans) if s.name == layer]
        out[f"{layer}.calls"] = len(mine)
        out[f"{layer}.s"] = sum(selfs[i] for i in mine)

    out["evolution.state_at.s"] = out["evolution.propagate_ket.s"] \
        + out["evolution.propagate_density.s"]

    def attr_values(layer, key):
        return [s.attrs.get(key, 0) for s in spans if s.name == layer]

    out["observables.wigner.grid_points"] = sum(attr_values("observables.wigner", "grid_points"))
    out["observables.save_wigner.bytes"] = sum(attr_values("observables.save_wigner", "bytes"))
    out["evolution.lindblad.points"] = sum(attr_values("evolution.lindblad", "points"))
    out["evolution.eigh.max_dim"] = max(attr_values("evolution.eigh", "dim"), default=0)
    out["evolution.eigh.bytes"] = sum(attr_values("evolution.eigh", "bytes"))
    out["models.build_hamiltonian.max_dim"] = max(
        attr_values("models.build_hamiltonian", "dim"), default=0)

    models = {s.attrs["model"] for s in spans
              if s.name == "evolution.eigh" and "model" in s.attrs}
    out["experiments.cache.eigh_per_model"] = (
        out["evolution.eigh.calls"] / len(models) if models else 0.0)

    sweep_wall = point_time = 0.0
    for i, s in enumerate(spans):
        if s.name in SWEEPS:
            sweep_wall += s.duration
            point_time += sum(p.duration for j, p in enumerate(spans)
                              if p.name == "experiments.run_point"
                              and _descends_from(spans, j, i))
    out["experiments.sweep.concurrency"] = point_time / sweep_wall if sweep_wall else 0.0

    out["experiments.self_s"] = sum(t for s, t in zip(spans, selfs)
                                    if s.name.startswith("experiments."))
    out["cli.dispatch.s"] = sum(t for s, t in zip(spans, selfs) if s.name == "cli.dispatch")
    layer_time = sum(t for s, t in zip(spans, selfs)
                     if not s.name.startswith(("experiments.", "cli.")))
    out["trace.coverage"] = layer_time / wall if wall > 0 else 0.0
    return out
