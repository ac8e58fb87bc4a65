"""Scenario runner and sweep engine.

A scenario is a JSON document (model + initial state + schedule + diagnostic
flags + cutoff ladder).  Each run reports a scaled-time series of diagnostics
on the absorber-traced oscillator state, headline numbers (max coherence, its
time, the earliest half-max crossing), and a truncation-convergence shift
between the top two cutoffs of the ladder.  Identical configs produce
byte-identical artifacts.

Scaled time is tau = g_hi * t, with g_hi the coupling of the highest-order
interaction; couplings and frequencies are quoted in units of the linear
coupling.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from functools import cache, partial
from dataclasses import dataclass, field, fields, is_dataclass, replace
import hashlib
import itertools
import json
import math
import os
import typing

import numpy as np

from . import models, observables, states
from .errors import ConfigError
from .evolution import HamiltonianPropagator, lindblad_evolve
from .hilbert import partial_trace
from .models import Interaction, ModelSpec, OSC_LABEL
from .observables import DiagnosticsRecord, WignerGridSpec, diagnose
from .states import InitialStateSpec

CONVERGENCE_SHIFT_ATOL = 0.05
LEAKAGE_WARN = 1e-6             # leakage above which a run raises its leakage flag
DEFAULT_POINTS = 600
TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# configuration documents
# One codec reads and writes every config dataclass from its fields and their
# annotations: a dataclass is an object keyed by its field names, or inside a
# tuple the list of its field values; a complex number is [re, im].  Fields
# that are None, or that the object's kind does not read (_UNREAD), are left
# out.  Decoding rejects unknown keys and converts each value to its field's
# annotated type; `sweep` is an untyped dict.

@dataclass(frozen=True)
class SwitchSegment:
    order: int
    tau: float


@dataclass(frozen=True)
class ScheduleSpec:
    type: str = "continuous"            # "continuous" | "switch"
    tau_max: float = TWO_PI
    points: int = DEFAULT_POINTS
    segments: tuple[SwitchSegment, ...] = ()

    def __post_init__(self):
        if self.type not in ("continuous", "switch"):
            raise ConfigError(f"schedule type must be continuous|switch, got {self.type!r}")
        if self.type == "switch" and not self.segments:
            raise ConfigError("switch schedule needs at least one segment")
        if any(s.tau <= 0 for s in self.segments):
            raise ConfigError("switch segments need strictly positive durations")
        if self.points < 1:
            raise ConfigError("schedule needs at least one point")
        if not (math.isfinite(self.tau_max) and self.tau_max >= 0):
            raise ConfigError(f"schedule tau_max must be finite and >= 0, got {self.tau_max}")
        if self.points > 1 and self.tau_max == 0:
            raise ConfigError(f"a schedule of {self.points} points needs tau_max > 0")

    def taus(self) -> np.ndarray:
        """The default output grid: the segment ends, or `points` taus to tau_max."""
        return (np.cumsum([s.tau for s in self.segments]) if self.type == "switch"
                else np.linspace(0.0, self.tau_max, self.points))


@dataclass(frozen=True)
class DiagnosticsFlags:
    wigner: bool = False
    shell_removal: bool = False
    wigner_points: int = 201

    def __post_init__(self):
        if self.wigner_points < 2:
            raise ConfigError(f"a Wigner grid needs at least 2 points per axis, "
                              f"got {self.wigner_points}")


@dataclass(frozen=True)
class ScenarioConfig:
    name: str = field(default="scenario", kw_only=True)
    model: ModelSpec
    initial: InitialStateSpec
    schedule: ScheduleSpec = ScheduleSpec()
    diagnostics: DiagnosticsFlags = DiagnosticsFlags()
    cutoff_ladder: tuple[int, ...] = ()
    sweep: dict = field(default_factory=dict)
    lindblad_tol: float = 1e-7

    def __post_init__(self):
        ladder = self.cutoff_ladder
        if ladder and (ladder[0] < 2 or any(b <= a for a, b in zip(ladder, ladder[1:]))):
            raise ConfigError(f"cutoff ladder must be strictly increasing cutoffs >= 2, "
                              f"got {ladder}")
        if self.sweep and frozenset(self.sweep) not in _SWEEP_KINDS:
            accepted = "; ".join(" + ".join(_ordered(axes)) for axes in _SWEEP_KINDS)
            raise ConfigError(f"sweep axes {sorted(self.sweep)} are not one of the "
                              f"accepted sets: {accepted}")
        for axis, vals in self.sweep.items():
            if not isinstance(vals, (list, tuple)) or len(vals) == 0:
                raise ConfigError(f"sweep axis {axis!r} must be a non-empty list")
            list(map(_AXES[axis][0], vals))
            if ignored := _ignoring(self, axis):
                raise ConfigError(f"sweep axis {axis!r} does not apply to {ignored}")
        if not (math.isfinite(self.lindblad_tol) and self.lindblad_tol > 0):
            raise ConfigError(f"lindblad_tol must be finite and > 0, got {self.lindblad_tol}")
        for s in self.schedule.segments if self.schedule.type == "switch" else ():
            self.model.coupling(s.order)        # the model holds each segment's order

    def ladder(self) -> tuple[int, ...]:
        return self.cutoff_ladder or (self.model.cutoff,)

    def to_dict(self) -> dict:
        return to_document(self)

    @staticmethod
    def from_dict(d: dict) -> "ScenarioConfig":
        return from_document(ScenarioConfig, d)

    def hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def apply_overrides(self, pairs: list[str]) -> "ScenarioConfig":
        """Apply `--set dotted.key=value` overrides onto the document (see
        `_override_slot`).  A `model.cutoff` that would be ignored, because
        `cutoff_ladder` is kept and its top cutoff differs, is an error."""
        doc = self.to_dict()
        keys = set()
        for pair in pairs:
            if "=" not in pair:
                raise ConfigError(f"override {pair!r} is not of the form key=value")
            key, raw = pair.split("=", 1)
            keys.add(key)
            try:
                value = json.loads(raw)
            except json.JSONDecodeError:
                value = raw
            node, last = _override_slot(doc, key)
            node[last] = value
        config = ScenarioConfig.from_dict(doc)
        ladder, cutoff = config.cutoff_ladder, config.model.cutoff
        if "model.cutoff" in keys and "cutoff_ladder" not in keys and ladder \
                and ladder[-1] != cutoff:
            raise ConfigError(f"model.cutoff={cutoff} would be ignored: runs use "
                              f"cutoff_ladder {list(ladder)}, whose top is {ladder[-1]}; "
                              f"set cutoff_ladder as well")
        return config


def _override_slot(doc: dict, key: str) -> tuple[dict, str]:
    """The document node that holds the dotted override `key`, and the key
    within it.  A part of `key` names a field of the config dataclass at that
    point of the path by the type hints, so a field the document leaves out
    (None, or not read by the object's kind) is reached too; inside the
    untyped `sweep` a part must name a key the document holds."""
    node, tp, parts = doc, ScenarioConfig, key.split(".")
    for depth, part in enumerate(parts, 1):
        hints = typing.get_type_hints(tp) if is_dataclass(tp) else {}
        if not isinstance(node, dict) or part not in (hints or node):
            raise ConfigError(f"override key {key!r} does not exist in the config")
        if depth == len(parts):
            return node, part
        node, tp = node.setdefault(part, {}), hints.get(part)


_UNREAD = {     # config dataclass -> the fields an object of it does not read
    ModelSpec: lambda m: {"absorber_dim"} if m.absorber == "qubit" else set(),
    ScheduleSpec: lambda s: {"tau_max", "points"} if s.type == "switch" else {"segments"},
    InitialStateSpec: lambda s: {"n", "nbar", "p", "beta"} - {
        "fock": {"n"}, "admixture": {"n", "p"}, "thermal": {"nbar"},
        "phase_randomized_coherent": {"nbar"}, "coherent": {"beta"}}.get(s.kind, set()),
}


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


_SCALARS = {    # annotation -> (accepts a document value, what the value must be)
    bool: (lambda v: isinstance(v, bool), "true or false"),
    int: (lambda v: _number(v) and (isinstance(v, int) or v.is_integer()), "an integer"),
    float: (_number, "a number"),
    complex: (lambda v: _number(v) or (isinstance(v, list) and len(v) == 2
                                       and all(map(_number, v))), "a number or [re, im]"),
    str: (lambda v: isinstance(v, str), "a string"),
    dict: (lambda v: isinstance(v, dict), "a JSON object"),
}


def to_document(value):
    """The JSON document of a config dataclass, or of one of its values."""
    if is_dataclass(value):
        unread = _UNREAD.get(type(value), lambda _: set())(value)
        return {f.name: to_document(getattr(value, f.name)) for f in fields(value)
                if f.name not in unread and getattr(value, f.name) is not None}
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, dict):
        return {k: to_document(v) for k, v in sorted(value.items())}
    if isinstance(value, (tuple, list)):
        return [[to_document(getattr(v, f.name)) for f in fields(v)] if is_dataclass(v)
                else to_document(v) for v in value]
    return value


def from_document(tp, doc, where: str = ""):
    """The value of annotation `tp` (a config dataclass, for a whole document)
    read from its document; `where`, its dotted path, is named in errors."""
    args = typing.get_args(tp)
    if type(None) in args:                          # X | None
        return None if doc is None else from_document(args[0], doc, where)
    if typing.get_origin(tp) is tuple:              # tuple[X, ...]
        if not isinstance(doc, list):
            raise ConfigError(f"{where} must be a list, got {doc!r}")
        if is_dataclass(args[0]):                   # each X is the list of its field values
            names = [f.name for f in fields(args[0])]
            if any(not isinstance(row, list) or len(row) != len(names) for row in doc):
                raise ConfigError(f"{where} must hold lists [{', '.join(names)}], got {doc!r}")
            doc = [dict(zip(names, row)) for row in doc]
        return tuple(from_document(args[0], v, f"{where}[{i}]") for i, v in enumerate(doc))
    if not is_dataclass(tp):
        accepts, what = _SCALARS[tp]
        if not accepts(doc):
            raise ConfigError(f"{where} must be {what}, got {doc!r}")
        return complex(*doc) if isinstance(doc, list) else tp(doc)
    name = where or "the config"
    if not isinstance(doc, dict):
        raise ConfigError(f"{name} must be a JSON object, got {doc!r}")
    hints = typing.get_type_hints(tp)
    if unknown := sorted(doc.keys() - hints):
        raise ConfigError(f"unknown key {unknown[0]!r} in {name}")
    try:
        return tp(**{key: from_document(hints[key], value, f"{where}.{key}".lstrip("."))
                     for key, value in doc.items()})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def load_config(path) -> ScenarioConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read the config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"the config is not valid JSON: {exc}") from exc
    return ScenarioConfig.from_dict(doc)


# ---------------------------------------------------------------------------
# single-point runs

@dataclass
class PointRun:
    coords: dict
    taus: np.ndarray
    times: np.ndarray
    records: list[DiagnosticsRecord]
    max_coherence: float
    tau_at_max: float
    half_coherence: float
    tau_at_half: float
    convergence_shift: float
    converged: bool
    leakage_flag: bool
    extras: dict = field(default_factory=dict)
    # trajectory(tau): the reduced state at any tau, top cutoff (`_evolve`); not serialized
    trajectory: Callable | None = field(default=None, repr=False)

    def summary(self) -> dict:
        at_max = self.records[int(np.argmax([r.coherence for r in self.records]))]
        return {**self.coords, **self.headline(), "converged": self.converged,
                "mean_N_at_max": at_max.mean_n, "std_N_at_max": at_max.std_n, **self.extras}

    def headline(self) -> dict:
        """The headline numbers and flags that every report carries."""
        return {key: getattr(self, key) for key in (
            "max_coherence", "tau_at_max", "half_coherence", "tau_at_half",
            "convergence_shift", "leakage_flag")}


def _pieces(config: ScenarioConfig, model: ModelSpec,
            taus) -> list[tuple[ModelSpec, float, np.ndarray]]:
    """The run of `model` as (model, raw duration, raw output times from the
    piece's start) pieces of constant Hamiltonians, with the increasing scaled
    times `taus` split among them: one unbounded piece for a continuous
    schedule, and for a switch schedule one per segment, the model with only
    its interaction on, closed on the right (the taus in (start, end], the
    first piece also those before, the last those after), an end taken at
    the segment's own duration, never as a difference of cumulative ends."""
    scale, taus = model.tau_scale(), np.asarray(taus, float)
    if config.schedule.type == "continuous":
        return [(model, math.inf, taus / scale)]
    pieces, ends = [], config.schedule.taus()
    which = np.searchsorted(ends[:-1], taus)
    for i, (s, start, end) in enumerate(zip(config.schedule.segments, np.r_[0.0, ends], ends)):
        mine, only = taus[which == i], Interaction(s.order, model.coupling(s.order))
        pieces.append((replace(model, interactions=(only,)), s.tau / scale,
                       np.where(mine == end, s.tau, mine - start) / scale))
    return pieces


def _hamiltonian_key(model: ModelSpec) -> ModelSpec:
    """The key of the model's Hamiltonian, which its propagators are shared
    under: the pump amplitude enters only the initial state, so it is
    replaced by the pump dimension it sets."""
    if model.has_pump:
        return replace(model, pump=0j, pump_dim=model.effective_pump_dim())
    return model


def _propagator(key: ModelSpec) -> HamiltonianPropagator:
    return HamiltonianPropagator(models.build_hamiltonian(key))


def _resume(hamiltonian, jumps, rho0, tol: float, run, t: float):
    """The state at raw time t of the dephased run `run`, resumed from its
    latest checkpoint at or before t."""
    return lindblad_evolve(hamiltonian, jumps, rho0, [t], tol=tol, resume=run).states[0]


def _evolve(config: ScenarioConfig, cutoff: int, taus, observe,
            propagators: dict[ModelSpec, HamiltonianPropagator]):
    """Evolve the configured initial state at one cutoff, piece by piece (see
    `_pieces`), and call observe(state) at each output time: the increasing
    scaled times `taus`, or the schedule's default grid when None.  A piece
    starts from the state at the previous piece's end, an output time or not.
    Unitary runs pass KetEnsembles, dephased runs density-matrix states.  A
    unitary piece takes its propagator from `propagators` ({Hamiltonian key:
    propagator}), adding it when missing.  Returns (taus, raw times,
    trajectory): trajectory(tau) is the reduced state at any scaled time, from
    the propagator and expansion or the checkpoints of the piece holding tau."""
    model = replace(config.model, cutoff=cutoff)
    state = states.make_state(config.initial, model.layout(), pump_amplitude=model.pump)
    taus = config.schedule.taus() if taus is None else taus
    state_ats = []              # each piece's state_at(raw time from its start)
    for piece, duration, times in _pieces(config, model, taus):
        state = state_ats[-1](end) if state_ats else state     # the previous piece's end
        end = duration
        if piece.dephasing_rate > 0:
            args = (models.build_hamiltonian(piece),
                    models.dephasing_dissipator(piece.dephasing_rate, piece), state)
            run = lindblad_evolve(*args, times, tol=config.lindblad_tol, observer=observe)
            state_ats.append(partial(_resume, *args, config.lindblad_tol, run))
        else:
            key = _hamiltonian_key(piece)
            prop = propagators.get(key)
            if prop is None:
                prop = propagators[key] = _propagator(key)
            initial = prop.expand(state)
            # each state is held until the next is made: freed first, its block at
            # the top of the heap is trimmed and faulted back in at every point
            for t in times:
                observe(last := prop.state_at(initial, float(t)))
            state_ats.append(partial(prop.state_at, initial))

    def trajectory(tau):        # on the one piece that holds tau
        for state_at, (*_, times) in zip(state_ats, _pieces(config, model, [tau])):
            if len(times):
                return partial_trace(state_at(float(times[0])), OSC_LABEL)
    return taus, np.asarray(taus, float) / model.tau_scale(), trajectory


def oscillator_states(config: ScenarioConfig, taus) -> list:
    """Reduced oscillator states at the scaled times `taus`, at the top ladder
    cutoff, from a run of their own.  Unitary runs give ket ensembles
    (rho = Phi Phi^dag), dephased runs density matrices; every function in
    `observables` takes either."""
    grid = sorted({float(tau) for tau in taus})
    *_, trajectory = _evolve(config, config.ladder()[-1], grid, lambda state: None, {})
    return [trajectory(float(tau)) for tau in taus]


def wigner_snapshot(rho, points: int):
    """(grid spec, Wigner grid, negativity volume) of a reduced state on the
    extent its mean occupation calls for."""
    spec = WignerGridSpec.for_state(rho, points=points)
    grid = observables.wigner(rho, spec)
    return spec, grid, observables.negativity_volume(grid)


def run_point(config: ScenarioConfig, propagators: dict | None = None) -> PointRun:
    """Run the scenario over its cutoff ladder; series and trajectory kept for
    the top cutoff.  `propagators` ({Hamiltonian key: propagator}) supplies
    and collects the run's propagators."""
    propagators = {} if propagators is None else propagators
    max_by_cutoff = []
    for cutoff in config.ladder():
        records: list[DiagnosticsRecord] = []
        taus, times, trajectory = _evolve(
            config, cutoff, None,
            lambda state: records.append(diagnose(partial_trace(state, OSC_LABEL))), propagators)
        max_by_cutoff.append(max(r.coherence for r in records))
    shift = (abs(max_by_cutoff[-1] - max_by_cutoff[-2])
             if len(max_by_cutoff) >= 2 else 0.0)
    cs = np.array([r.coherence for r in records])
    i_max = int(np.argmax(cs))                          # the first max of C
    above = np.flatnonzero(cs >= cs[i_max] / 2.0)       # the earliest C >= C_max / 2
    i_half = int(above[0]) if len(above) else i_max
    return PointRun(
        coords={},
        taus=taus, times=times, records=records,
        max_coherence=float(records[i_max].coherence), tau_at_max=float(taus[i_max]),
        half_coherence=float(records[i_half].coherence), tau_at_half=float(taus[i_half]),
        convergence_shift=shift,
        converged=shift <= CONVERGENCE_SHIFT_ATOL,
        leakage_flag=any(r.leakage > LEAKAGE_WARN for r in records),
        trajectory=trajectory,
    )


# ---------------------------------------------------------------------------
# artifact writing

def _write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_series_csv(path, taus, times, records) -> None:
    with open(path, "w") as fh:
        fh.write("tau,t," + DiagnosticsRecord.CSV_HEADER + "\n")
        for tau, t, rec in zip(taus, times, records):
            fh.write(f"{tau:.12g},{t:.12g}," + rec.csv_row() + "\n")


def _diag_extras(config: ScenarioConfig, run: PointRun, outdir: str | None) -> dict:
    """Wigner grids at the half-max and max times and shell removal at the max
    time, from the run's trajectory; grid files are written only when an
    output directory is given."""
    info: dict = {}
    flags = config.diagnostics
    # one state and one grid per distinct tau: a switch run's half-max and
    # max times often coincide at one segment end
    state = cache(run.trajectory)
    snapshot = cache(lambda tau: wigner_snapshot(state(tau), flags.wigner_points))
    for label in ("half", "max") if flags.wigner else ():
        grid_spec, grid, negativity = snapshot(getattr(run, f"tau_at_{label}"))
        if outdir:
            observables.save_wigner_text(grid, os.path.join(outdir, f"wigner_{label}.txt"))
            observables.save_wigner_csv(grid, os.path.join(outdir, f"wigner_{label}.csv"))
        info[f"wigner_{label}"] = {
            "normalization_integral": grid.normalization_integral,
            "negativity_volume": negativity,
            "extent": grid_spec.extent,
        }
    if flags.shell_removal:
        shelled = observables.remove_gaussian_shell(state(run.tau_at_max))
        info["shell_removed_coherence"] = observables.coherence(shelled)
        info["raw_coherence_at_max"] = run.max_coherence
    return info


def run_scenario(config: ScenarioConfig, output_dir: str | None = None) -> PointRun:
    """Full single-scenario run with optional persisted artifacts."""
    run = run_point(config)
    outdir = _ensure_dir(output_dir) if output_dir else None
    run.extras.update(_diag_extras(config, run, outdir))
    if outdir:
        _write_json(os.path.join(outdir, "config.json"),
                    {**config.to_dict(), "config_hash": config.hash(),
                     "cutoff": config.ladder()[-1]})
        _write_series_csv(os.path.join(outdir, "series.csv"),
                          run.taus, run.times, run.records)
        _write_json(os.path.join(outdir, "summary.json"), run.summary())
    return run


def _ensure_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# batches of runs

def _parallel(fn, items, jobs: int):
    if jobs <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def run_batch(items: list[tuple[ScenarioConfig, Callable | None]], jobs: int = 1) -> list:
    """Every run of a command, in one pool of `jobs` workers.  An item is
    (config, report): its result is report(config, run), evaluated in the
    run's worker, or the run, which keeps its trajectory (and with it the
    propagator or checkpoints) only for Wigner grids or shell removal.  Equal
    items run once.  Each Hamiltonian that two or more pieces of the batch's
    runs use is diagonalised once, up front and in parallel; every run takes a
    copy of those and only reads them, and every other propagator is built by,
    and freed with, the run that uses it."""
    unique = [item for i, item in enumerate(items) if item not in items[:i]]
    uses = Counter(_hamiltonian_key(piece) for cfg, _ in unique for cutoff in cfg.ladder()
                   for piece, *_ in _pieces(cfg, replace(cfg.model, cutoff=cutoff), ())
                   if piece.dephasing_rate == 0)
    keys = [m for m, count in uses.items() if count >= 2]
    shared = dict(zip(keys, _parallel(_propagator, keys, jobs)))

    def one(item):
        cfg, report = item
        run = run_point(cfg, dict(shared))
        if report is None and not (cfg.diagnostics.wigner or cfg.diagnostics.shell_removal):
            run.trajectory = None
        return run if report is None else report(cfg, run)

    results = _parallel(one, unique, jobs)
    return [results[unique.index(item)] for item in items]


# ---------------------------------------------------------------------------
# sweeps

@dataclass
class SweepResult:
    axes: dict
    points: list[PointRun]
    argmax: dict
    convergence: list[dict]

    def summary(self) -> dict:
        return {
            "axes": {k: list(v) for k, v in self.axes.items()},
            "points": [p.summary() for p in self.points],
            "argmax": self.argmax,
            "convergence": self.convergence,
        }


def _model(config: ScenarioConfig, **changes) -> ScenarioConfig:
    return replace(config, model=replace(config.model, **changes))


def _admixture(config: ScenarioConfig, p) -> ScenarioConfig:
    """Ground-state admixture of weight p at the configured occupation."""
    return replace(config, initial=InitialStateSpec("admixture", n=config.initial.n,
                                                    p=float(p)))


def _pump(b) -> complex:
    """A beta value: a number or [re, im], as `model.pump`, or a complex repr."""
    return complex(b) if isinstance(b, str) else from_document(complex, b, "sweep.beta")


def _ignoring(config: ScenarioConfig, axis: str) -> str | None:
    """What in the config leaves the sweep axis without effect, or None: n and
    p need an input that reads n, G an interaction of order 1 and one of
    another order."""
    if axis in ("n", "p") and config.initial.kind not in ("fock", "admixture"):
        return f"a {config.initial.kind} input"
    if axis == "G" and {it.order == 1 for it in config.model.interactions} != {True, False}:
        return "a model without interactions of order 1 and of another order"
    return None


# axis -> (its coordinate in the results, the config edit of one value).  The
# order of this map is the order of a sweep's cartesian product (n before G,
# omega before Omega); config documents sort their sweep keys.  ScenarioConfig
# checks that every value gives a coordinate and that the config reads the
# axis (`_ignoring`).
_AXES: dict[str, tuple[Callable, Callable]] = {
    "n": (partial(from_document, int, where="sweep.n"),
          lambda cfg, n: replace(cfg, initial=replace(cfg.initial, n=int(n)))),
    "p": (float, _admixture),
    "G": (float, lambda cfg, ratio: _model(cfg, interactions=tuple(
        Interaction(it.order, it.coupling if it.order == 1
                    else cfg.model.coupling(1) * float(ratio))
        for it in cfg.model.interactions))),
    "omega": (float, lambda cfg, w: _model(cfg, omega=float(w))),
    "Omega": (float, lambda cfg, w: _model(cfg, Omega=float(w))),
    "beta": (lambda b: abs(_pump(b)), lambda cfg, b: _model(cfg, pump=_pump(b))),
}


def _ordered(axes) -> list[str]:
    return [axis for axis in _AXES if axis in axes]


# A sweep kind's report is a plain function of the config, its finished point
# runs, the finished run of each point's reference (None for a point without
# one) and the output directory; it returns the fields it adds to `argmax`.

def _shell_removal_at_max(config, runs, references, output_dir) -> dict:
    """bars: the coherence left after Gaussian-shell removal at the
    max-coherence time, for n > 0."""
    for run in runs:
        if config.diagnostics.shell_removal and run.coords["n"] > 0:
            run.extras["shell_removed_coherence"] = observables.coherence(
                observables.remove_gaussian_shell(run.trajectory(run.tau_at_max)))
    return {}


def _ratio_argmax(config, runs, references, output_dir) -> dict:
    """landscape: each trace's coherence at tau = pi and its local maxima,
    and per n the G whose coherence at tau = pi is largest."""
    from scipy.signal import find_peaks
    for run in runs:
        idx_pi = int(np.argmin(np.abs(run.taus - math.pi)))
        run.extras["coherence_at_pi"] = run.records[idx_pi].coherence
        run.extras["local_maxima"] = len(find_peaks(
            np.array([r.coherence for r in run.records]), prominence=0.01)[0])
    argmax_g = {}
    for n in sorted({r.coords["n"] for r in runs}):
        best = max((r for r in runs if r.coords["n"] == n),
                   key=lambda r: r.extras["coherence_at_pi"])
        argmax_g[str(n)] = best.coords["G"]
    if output_dir:
        _write_json(os.path.join(_ensure_dir(output_dir), "landscape_argmax_g.json"),
                    argmax_g)
    return {"ratio_argmax_at_pi": argmax_g}


def _interaction_only(config: ScenarioConfig) -> ScenarioConfig:
    return _model(config, omega=0.0, Omega=0.0)


def _against_baseline(config, runs, references, output_dir) -> dict:
    """weak scan: which (omega, Omega) beat the interaction-only run at the
    same remaining parameters, the reference of every point."""
    baseline = references[0].max_coherence
    for run in runs:
        run.extras["beats_interaction_only"] = bool(run.max_coherence > baseline)
    return {"interaction_only_baseline": baseline,
            "enhanced_points": [r.coords for r in runs
                                if r.extras["beats_interaction_only"]]}


def _effective(cfg: ScenarioConfig) -> ScenarioConfig | None:
    """The two-body model at the pump-scaled linear coupling, for |beta| > 0."""
    beta = abs(cfg.model.pump)
    if beta == 0:
        return None
    return _model(cfg, pump=None, interactions=tuple(
        Interaction(it.order, it.coupling * beta if it.order == 1 else it.coupling)
        for it in cfg.model.interactions))


def _effective_deviation(config, runs, references, output_dir) -> dict:
    """completed: each pumped trace against its effective two-body model's."""
    for run, eff_run in zip(runs, references):
        if eff_run is None:
            continue
        eff = np.array([r.coherence for r in eff_run.records])
        got = np.array([r.coherence for r in run.records])
        run.extras["effective_max_coherence"] = float(eff.max())
        run.extras["effective_trace_deviation"] = (
            float(np.abs(got - eff).max() / eff.max()) if eff.max() > 0 else 0.0)
    return {}


@dataclass(frozen=True)
class _SweepKind:
    stem: str                                   # <stem>_summary.json, <stem>_points.csv
    report: Callable = lambda config, runs, references, output_dir: {}
    reference: Callable = lambda cfg: None      # a point's config -> the config it is set against


_SWEEP_KINDS = {
    frozenset({"n"}): _SweepKind("bars", _shell_removal_at_max),
    frozenset({"p"}): _SweepKind("admixture"),
    frozenset({"n", "G"}): _SweepKind("landscape", _ratio_argmax),
    frozenset({"omega", "Omega"}): _SweepKind("weak_scan", _against_baseline,
                                              _interaction_only),
    frozenset({"beta"}): _SweepKind("completed", _effective_deviation, _effective),
}


def _sweep_points(config: ScenarioConfig) -> list[tuple[ScenarioConfig, dict]]:
    """(config, coordinates) of every point of the sweep's cartesian product."""
    names = _ordered(config.sweep)
    points = []
    for values in itertools.product(*(config.sweep[axis] for axis in names)):
        cfg = config
        for axis, value in zip(names, values):
            cfg = _AXES[axis][1](cfg, value)
        points.append((cfg, {axis: _AXES[axis][0](v) for axis, v in zip(names, values)}))
    return points


def sweep(config: ScenarioConfig, jobs: int = 1,
          output_dir: str | None = None) -> SweepResult:
    """Every point of the cartesian product of the `config.sweep` axes, with
    that axis set's report.  The set is one of: n (bars over the initial
    occupation), p (ground-state admixture), n and G (coupling ratio
    landscape), omega and Omega (free-motion scan against the
    interaction-only baseline), beta (pumped completion against the two-body
    model); `ScenarioConfig` rejects any other.  The points and their
    references run in one batch (`run_batch`), so a reference equal to a
    point, such as the weak scan's baseline and its (0, 0) point, runs once."""
    if not config.sweep:
        raise ConfigError("the config has no sweep axes")
    kind = _SWEEP_KINDS[frozenset(config.sweep)]
    names = _ordered(config.sweep)
    points = _sweep_points(config)
    refs = [kind.reference(cfg) for cfg, _ in points]
    configs = [cfg for cfg, _ in points] + [ref for ref in refs if ref is not None]
    done = iter(run_batch([(cfg, None) for cfg in configs], jobs))
    runs = [replace(next(done), coords=coords, extras={}) for _, coords in points]
    reported = kind.report(config, runs, [None if ref is None else next(done) for ref in refs],
                           output_dir)
    for run in runs:            # read by the report; each holds a propagator or checkpoints
        run.trajectory = None
    best = max(runs, key=lambda r: r.max_coherence)
    result = SweepResult(
        axes={axis: [_AXES[axis][0](v) for v in config.sweep[axis]] for axis in names},
        points=runs,
        argmax={**best.coords, "max_coherence": best.max_coherence,
                "tau_at_max": best.tau_at_max, **reported},
        convergence=[{**r.coords, "shift": r.convergence_shift, "converged": r.converged}
                     for r in runs],
    )
    if output_dir:
        outdir = _ensure_dir(output_dir)
        _write_json(os.path.join(outdir, f"{kind.stem}_summary.json"), result.summary())
        with open(os.path.join(outdir, f"{kind.stem}_points.csv"), "w") as fh:
            cols = sorted(names)
            fh.write(",".join(cols) + ",max_coherence,tau_at_max,convergence_shift\n")
            for r in runs:
                coord = ",".join(f"{r.coords[c]}" for c in cols)
                fh.write(f"{coord},{r.max_coherence:.12g},{r.tau_at_max:.12g},"
                         f"{r.convergence_shift:.12g}\n")
    return result


# ---------------------------------------------------------------------------
# robustness suite

def _variant_report(config: ScenarioConfig, run: PointRun, neg_times: int) -> dict:
    """Headline numbers of a finished run plus negativity volumes at its
    half-max and max times (and, when neg_times > 0, at that many later sample
    times), from the run's trajectory."""
    tau_samples = [run.tau_at_half, run.tau_at_max] + np.linspace(
        run.tau_at_half, float(run.taus[-1]), neg_times).tolist()
    negativity = {tau: wigner_snapshot(run.trajectory(tau), config.diagnostics.wigner_points)[2]
                  for tau in dict.fromkeys(tau_samples)}
    negs = [negativity[tau] for tau in tau_samples]
    report = {**run.headline(), "negativity_at_half": negs[0], "negativity_at_max": negs[1]}
    if neg_times > 0:
        report["negativity_samples"] = {"taus": tau_samples[2:], "volumes": negs[2:]}
    return report


def _robustness_variants(base: ScenarioConfig) -> dict:
    """name -> (config, negativity samples after the max) of each variant, at
    the base parameters: oscillator dephasing at cutoff 120, thermal and
    phase-randomized-coherent (Poissonian) inputs on the ladder (110, 120),
    the unsaturable-absorber mixer (absorber dimension 32, cutoff 96), and
    ground-state admixtures.  The mixed inputs' ladder tops out where the
    reference values were computed; their coherence keeps creeping upward
    with cutoff, and the convergence flag reports that honestly."""
    rate = 0.1 * base.model.coupling(1)
    return {
        "dephasing": (replace(_model(base, dephasing_rate=rate), cutoff_ladder=(120,)), 3),
        "thermal": (replace(base, initial=InitialStateSpec("thermal", nbar=7.0),
                            cutoff_ladder=(110, 120)), 0),
        "phase_randomized_coherent": (
            replace(base, initial=InitialStateSpec("phase_randomized_coherent", nbar=7.0),
                    cutoff_ladder=(110, 120)), 0),
        "mw_mixer": (replace(_model(base, absorber="oscillator", absorber_dim=32),
                             cutoff_ladder=(96,)), 0),
        **{f"admixture_p{p}": (_admixture(base, p), 0) for p in (0.25, 0.5, 0.75)},
    }


def robustness_suite(base: ScenarioConfig, jobs: int = 1,
                     output_dir: str | None = None) -> dict:
    """Input-state and environment variants of the base scenario
    (`_robustness_variants`), each reported in its own worker, and the base
    scenario itself as the reference, all in one batch.  The base's sweep axes
    are dropped: a variant's input need not read them."""
    base = replace(base, sweep={})
    variants = _robustness_variants(base)
    *reports, reference = run_batch(
        [(cfg, partial(_variant_report, neg_times=samples))
         for cfg, samples in variants.values()] + [(base, None)], jobs)
    results = dict(zip(variants, reports))
    results["dephasing"]["dephasing_rate"] = variants["dephasing"][0].model.dephasing_rate
    results["reference"] = {"max_coherence": reference.max_coherence,
                            "tau_at_max": reference.tau_at_max}
    if output_dir:
        _write_json(os.path.join(_ensure_dir(output_dir), "robustness.json"), results)
    return results
