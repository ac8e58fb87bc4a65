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

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
import hashlib
import json
import math
import os
import threading

import numpy as np

from . import models, observables, states
from .errors import ConfigError
from .evolution import (HamiltonianPropagator, lindblad_evolve, sequential_switch,
                        top_level_population, LEAKAGE_WARN)
from .hilbert import KetEnsemble, partial_trace
from .models import Interaction, ModelSpec, OSC_LABEL
from .observables import DiagnosticsRecord, WignerGridSpec, diagnose
from .states import InitialStateSpec

CONVERGENCE_SHIFT_ATOL = 0.05
DEFAULT_POINTS = 600
TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# configuration documents

@dataclass(frozen=True)
class SwitchSegment:
    order: int
    tau: float


@dataclass(frozen=True)
class ScheduleSpec:
    kind: str = "continuous"            # "continuous" | "switch"
    tau_max: float = TWO_PI
    points: int = DEFAULT_POINTS
    segments: tuple[SwitchSegment, ...] = ()

    def __post_init__(self):
        if self.kind not in ("continuous", "switch"):
            raise ConfigError(f"schedule kind must be continuous|switch, got {self.kind!r}")
        if self.kind == "switch" and not self.segments:
            raise ConfigError("switch schedule needs at least one segment")
        if any(s.tau <= 0 for s in self.segments):
            raise ConfigError("switch segments need strictly positive durations")
        if self.points < 1:
            raise ConfigError("schedule needs at least one point")

    def to_dict(self) -> dict:
        if self.kind == "switch":
            return {"type": "switch",
                    "segments": [[s.order, s.tau] for s in self.segments]}
        return {"type": "continuous", "tau_max": self.tau_max, "points": self.points}

    @staticmethod
    def from_dict(d: dict) -> "ScheduleSpec":
        kind = d.get("type", "continuous")
        if kind == "switch":
            try:
                segs = tuple(SwitchSegment(int(k), float(tau))
                             for k, tau in d["segments"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"bad switch schedule: {exc}") from exc
            return ScheduleSpec(kind="switch", segments=segs)
        return ScheduleSpec(kind="continuous",
                            tau_max=float(d.get("tau_max", TWO_PI)),
                            points=int(d.get("points", DEFAULT_POINTS)))


@dataclass(frozen=True)
class DiagnosticsFlags:
    wigner: bool = False
    shell_removal: bool = False
    wigner_points: int = 201

    def to_dict(self) -> dict:
        return {"wigner": self.wigner, "shell_removal": self.shell_removal,
                "wigner_points": self.wigner_points}

    @staticmethod
    def from_dict(d: dict) -> "DiagnosticsFlags":
        return DiagnosticsFlags(bool(d.get("wigner", False)),
                                bool(d.get("shell_removal", False)),
                                int(d.get("wigner_points", 201)))


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    model: ModelSpec
    initial: InitialStateSpec
    schedule: ScheduleSpec = ScheduleSpec()
    diagnostics: DiagnosticsFlags = DiagnosticsFlags()
    cutoff_ladder: tuple[int, ...] = ()
    sweep: dict = field(default_factory=dict)
    lindblad_tol: float = 1e-7

    def __post_init__(self):
        ladder = self.cutoff_ladder
        if ladder and any(b <= a for a, b in zip(ladder, ladder[1:])):
            raise ConfigError(f"cutoff ladder must be strictly increasing, got {ladder}")
        for axis, vals in self.sweep.items():
            if not isinstance(vals, (list, tuple)) or len(vals) == 0:
                raise ConfigError(f"sweep axis {axis!r} must be a non-empty list")

    def ladder(self) -> tuple[int, ...]:
        return self.cutoff_ladder or (self.model.cutoff,)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "model": self.model.to_dict(),
            "initial": self.initial.to_dict(),
            "schedule": self.schedule.to_dict(),
            "diagnostics": self.diagnostics.to_dict(),
            "cutoff_ladder": list(self.cutoff_ladder),
            "sweep": {k: list(v) for k, v in sorted(self.sweep.items())},
            "lindblad_tol": self.lindblad_tol,
        }

    @staticmethod
    def from_dict(d: dict) -> "ScenarioConfig":
        try:
            return ScenarioConfig(
                name=str(d.get("name", "scenario")),
                model=ModelSpec.from_dict(d["model"]),
                initial=InitialStateSpec.from_dict(d["initial"]),
                schedule=ScheduleSpec.from_dict(d.get("schedule", {})),
                diagnostics=DiagnosticsFlags.from_dict(d.get("diagnostics", {})),
                cutoff_ladder=tuple(int(c) for c in d.get("cutoff_ladder", [])),
                sweep=dict(d.get("sweep", {})),
                lindblad_tol=float(d.get("lindblad_tol", 1e-7)),
            )
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad scenario document: {exc}") from exc

    def hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def apply_overrides(self, pairs: list[str]) -> "ScenarioConfig":
        """Apply `--set dotted.key=value` overrides onto the document."""
        doc = self.to_dict()
        for pair in pairs:
            if "=" not in pair:
                raise ConfigError(f"override {pair!r} is not of the form key=value")
            key, raw = pair.split("=", 1)
            try:
                value = json.loads(raw)
            except json.JSONDecodeError:
                value = raw
            node = doc
            parts = key.split(".")
            for part in parts[:-1]:
                if part not in node or not isinstance(node[part], dict):
                    raise ConfigError(f"override key {key!r} does not exist in the config")
                node = node[part]
            if parts[-1] not in node:
                raise ConfigError(f"override key {key!r} does not exist in the config")
            node[parts[-1]] = value
        return ScenarioConfig.from_dict(doc)


def load_config(path) -> ScenarioConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return ScenarioConfig.from_dict(doc)


# ---------------------------------------------------------------------------
# propagator cache (eigendecompositions shared across sweep points)

_CACHE_LOCK = threading.Lock()
_PROPAGATORS: dict[str, HamiltonianPropagator] = {}
_BUILDING: dict[str, threading.Lock] = {}     # per-model lock held while one thread builds
_CACHE_CAP = 12


def _propagator_for(model: ModelSpec) -> HamiltonianPropagator:
    key = json.dumps(model.to_dict(), sort_keys=True)
    with _CACHE_LOCK:
        if key in _PROPAGATORS:
            return _PROPAGATORS[key]
        building = _BUILDING.setdefault(key, threading.Lock())
    with building:
        with _CACHE_LOCK:
            if key in _PROPAGATORS:
                return _PROPAGATORS[key]
        prop = HamiltonianPropagator(models.build_hamiltonian(model))
        with _CACHE_LOCK:
            _BUILDING.pop(key, None)
            if model.layout().total_dim > 1024:      # very large one-off decompositions
                return prop
            if len(_PROPAGATORS) >= _CACHE_CAP:
                _PROPAGATORS.pop(next(iter(_PROPAGATORS)))
            _PROPAGATORS[key] = prop
    return prop


def clear_propagator_cache() -> None:
    with _CACHE_LOCK:
        _PROPAGATORS.clear()


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

    def summary(self) -> dict:
        idx_max = int(np.argmax([r.coherence for r in self.records])) if self.records else 0
        rec = self.records[idx_max] if self.records else None
        out = {
            **self.coords,
            "max_coherence": self.max_coherence,
            "tau_at_max": self.tau_at_max,
            "half_coherence": self.half_coherence,
            "tau_at_half": self.tau_at_half,
            "convergence_shift": self.convergence_shift,
            "converged": self.converged,
            "leakage_flag": self.leakage_flag,
        }
        if rec is not None:
            out["mean_N_at_max"] = rec.mean_n
            out["std_N_at_max"] = rec.std_n
        out.update(self.extras)
        return out


def _evolve(config: ScenarioConfig, cutoff: int, taus, observe):
    """Evolve the configured initial state at one cutoff and call
    observe(t, state) at each raw time: the increasing scaled times `taus`
    over the tau scale, or the schedule's own points when taus is None.  A
    switch schedule has only its segment boundaries and accepts no `taus`.
    Unitary runs pass KetEnsembles, dephased runs density-matrix states.
    Returns (taus, raw times)."""
    sched = config.schedule
    if sched.kind == "switch" and taus is not None:
        raise ConfigError("state reconstruction is only defined for continuous schedules")
    model = replace(config.model, cutoff=cutoff)
    state0 = states.make_state(config.initial, model.layout(), pump_amplitude=model.pump)
    scale = model.tau_scale()
    if sched.kind == "switch":
        segs = sched.segments
        result = sequential_switch([s.order for s in segs],
                                   [model.coupling(s.order) for s in segs],
                                   [s.tau / scale for s in segs], state0)
        for t, state in zip(result.times, result.states):
            observe(t, KetEnsemble.from_state(state))
        taus = np.cumsum([s.tau for s in segs])
        return taus, taus / scale
    if taus is None:
        taus = np.linspace(0.0, sched.tau_max, sched.points)
    times = np.asarray(taus, float) / scale
    if model.dephasing_rate > 0:
        jumps = models.dephasing_dissipator(model.dephasing_rate, model)
        lindblad_evolve(models.build_hamiltonian(model), jumps, state0, times,
                        tol=config.lindblad_tol, observer=observe, store_states=False)
    else:
        prop = _propagator_for(model)
        initial = prop.expand(KetEnsemble.from_state(state0))
        for t in times:
            observe(t, prop.state_at(initial, float(t)))
    return taus, times


def oscillator_states(config: ScenarioConfig, taus, cutoff: int | None = None) -> list:
    """Reduced oscillator states at the scaled times `taus`, at the top ladder
    cutoff unless `cutoff` is given; continuous schedules only.  Unitary runs
    give ket ensembles (rho = Phi Phi^dag), dephased runs density matrices;
    every function in `observables` takes either."""
    grid = sorted({float(tau) for tau in taus})
    rhos = []
    _evolve(config, config.ladder()[-1] if cutoff is None else cutoff, grid,
            lambda _t, state: rhos.append(partial_trace(state, OSC_LABEL)))
    lookup = dict(zip(grid, rhos))
    return [lookup[float(tau)] for tau in taus]


def wigner_snapshot(rho, points: int):
    """(grid spec, Wigner grid, negativity volume) of a reduced state on the
    extent its mean occupation calls for."""
    spec = WignerGridSpec.for_state(rho, points=points)
    grid = observables.wigner(rho, spec)
    return spec, grid, observables.negativity_volume(grid)


def _headline(taus, records) -> tuple[float, float, float, float]:
    """(max C, tau at max, C at the earliest half-max crossing, its tau)."""
    cs = np.array([r.coherence for r in records])
    if len(cs) == 0:
        return 0.0, 0.0, 0.0, 0.0
    i_max = int(np.argmax(cs))
    half = cs[i_max] / 2.0
    above = np.nonzero(cs >= half)[0]
    i_half = int(above[0]) if len(above) else i_max
    return float(cs[i_max]), float(taus[i_max]), float(cs[i_half]), float(taus[i_half])


def run_point(config: ScenarioConfig, coords: dict | None = None) -> PointRun:
    """Run the scenario over its cutoff ladder; series kept for the top cutoff."""
    ladder = config.ladder()
    max_by_cutoff = []
    for cutoff in ladder:
        records: list[DiagnosticsRecord] = []
        taus, times = _evolve(config, cutoff, None, lambda _t, state: records.append(
            diagnose(partial_trace(state, OSC_LABEL), top_level_population(state))))
        max_by_cutoff.append(max((r.coherence for r in records), default=0.0))
    shift = (abs(max_by_cutoff[-1] - max_by_cutoff[-2])
             if len(max_by_cutoff) >= 2 else 0.0)
    max_c, tau_max, half_c, tau_half = _headline(taus, records)
    leak_flag = any(r.leakage > LEAKAGE_WARN for r in records)
    return PointRun(
        coords=dict(coords or {}),
        taus=taus, times=times, records=records,
        max_coherence=max_c, tau_at_max=tau_max,
        half_coherence=half_c, tau_at_half=tau_half,
        convergence_shift=shift,
        converged=shift <= CONVERGENCE_SHIFT_ATOL,
        leakage_flag=leak_flag,
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


def _diag_extras(config: ScenarioConfig, run: PointRun,
                 outdir: str | None) -> dict:
    """Wigner grids and shell removal at the max and half-max times; grid
    files are written only when an output directory is given."""
    info: dict = {}
    snap = oscillator_states(config, [run.tau_at_half, run.tau_at_max])
    for label, rho in zip(["half", "max"], snap):
        if config.diagnostics.wigner:
            grid_spec, grid, negativity = wigner_snapshot(rho, config.diagnostics.wigner_points)
            if outdir:
                observables.save_wigner_text(grid, os.path.join(outdir, f"wigner_{label}.txt"))
                observables.save_wigner_csv(grid, os.path.join(outdir, f"wigner_{label}.csv"))
            info[f"wigner_{label}"] = {
                "normalization_integral": grid.normalization_integral,
                "negativity_volume": negativity,
                "extent": grid_spec.extent,
            }
        if config.diagnostics.shell_removal and label == "max":
            shelled = observables.remove_gaussian_shell(rho)
            info["shell_removed_coherence"] = observables.coherence(shelled)
            info["raw_coherence_at_max"] = observables.coherence(rho)
    return info


def run_scenario(config: ScenarioConfig, output_dir: str | None = None) -> PointRun:
    """Full single-scenario run with optional persisted artifacts."""
    run = run_point(config)
    outdir = _ensure_dir(output_dir) if output_dir else None
    needs_states = config.diagnostics.wigner or config.diagnostics.shell_removal
    if needs_states and config.schedule.kind == "continuous":
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


def _parallel(fn, items, jobs: int):
    if jobs <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _finish_sweep(axes: dict, runs: list[PointRun],
                  output_dir: str | None, name: str) -> SweepResult:
    best = max(range(len(runs)), key=lambda i: runs[i].max_coherence)
    result = SweepResult(
        axes=axes,
        points=runs,
        argmax={**runs[best].coords,
                "max_coherence": runs[best].max_coherence,
                "tau_at_max": runs[best].tau_at_max},
        convergence=[{**r.coords, "shift": r.convergence_shift, "converged": r.converged}
                     for r in runs],
    )
    if output_dir:
        outdir = _ensure_dir(output_dir)
        _write_json(os.path.join(outdir, f"{name}_summary.json"), result.summary())
        with open(os.path.join(outdir, f"{name}_points.csv"), "w") as fh:
            cols = sorted({k for r in runs for k in r.coords})
            fh.write(",".join(cols) + ",max_coherence,tau_at_max,convergence_shift\n")
            for r in runs:
                coord = ",".join(f"{r.coords.get(c, '')}" for c in cols)
                fh.write(f"{coord},{r.max_coherence:.12g},{r.tau_at_max:.12g},"
                         f"{r.convergence_shift:.12g}\n")
    return result


def _with_initial_n(config: ScenarioConfig, n: int) -> ScenarioConfig:
    return replace(config, initial=replace(config.initial, n=int(n)))


def _with_ratio(config: ScenarioConfig, ratio: float) -> ScenarioConfig:
    g1 = config.model.coupling(1)
    inter = tuple(Interaction(it.order, g1 * ratio if it.order != 1 else g1)
                  for it in config.model.interactions)
    return replace(config, model=replace(config.model, interactions=inter))


def max_coherence_vs_n(config: ScenarioConfig, n_list, jobs: int = 1,
                       output_dir: str | None = None) -> SweepResult:
    """Per-n maximum coherence over the schedule window, with the
    Gaussian-shell-removed value at the argmax time when enabled."""

    def one(n: int) -> PointRun:
        cfg = _with_initial_n(config, n)
        run = run_point(cfg, coords={"n": int(n)})
        if config.diagnostics.shell_removal and n > 0:
            rho, = oscillator_states(cfg, [run.tau_at_max])
            shelled = observables.remove_gaussian_shell(rho)
            run.extras["shell_removed_coherence"] = observables.coherence(shelled)
        return run

    runs = _parallel(one, list(n_list), jobs)
    return _finish_sweep({"n": list(n_list)}, runs, output_dir, "bars")


def admixture_sweep(config: ScenarioConfig, p_list, jobs: int = 1,
                    output_dir: str | None = None) -> SweepResult:
    """Max coherence per ground-state admixture weight p at the configured
    occupation, keeping every other parameter fixed."""

    def one(p: float) -> PointRun:
        cfg = replace(config,
                      initial=InitialStateSpec("admixture", n=config.initial.n,
                                               p=float(p)))
        return run_point(cfg, coords={"p": float(p)})

    runs = _parallel(one, [float(p) for p in p_list], jobs)
    return _finish_sweep({"p": [float(p) for p in p_list]}, runs, output_dir,
                         "admixture")


def coherence_landscape(config: ScenarioConfig, n_list, ratio_list,
                        jobs: int = 1, output_dir: str | None = None) -> SweepResult:
    """Coherence traces per (n, G) plus the coherence at tau = pi, from which
    the per-n argmax over G is read off."""

    pairs = [(int(n), float(g)) for n in n_list for g in ratio_list]

    def one(pair) -> PointRun:
        n, ratio = pair
        cfg = _with_ratio(_with_initial_n(config, n), ratio)
        run = run_point(cfg, coords={"n": n, "G": ratio})
        idx_pi = int(np.argmin(np.abs(run.taus - math.pi)))
        run.extras["coherence_at_pi"] = run.records[idx_pi].coherence
        run.extras["local_maxima"] = _count_local_maxima(
            np.array([r.coherence for r in run.records]))
        return run

    runs = _parallel(one, pairs, jobs)
    result = _finish_sweep({"n": list(n_list), "G": list(ratio_list)},
                           runs, output_dir, "landscape")
    by_n = {}
    for r in runs:
        by_n.setdefault(r.coords["n"], []).append(r)
    argmax_g = {}
    for n, rs in sorted(by_n.items()):
        best = max(rs, key=lambda r: r.extras["coherence_at_pi"])
        argmax_g[str(n)] = best.coords["G"]
    result.argmax["ratio_argmax_at_pi"] = argmax_g
    if output_dir:
        _write_json(os.path.join(output_dir, "landscape_argmax_g.json"), argmax_g)
    return result


def _count_local_maxima(values: np.ndarray, prominence: float = 0.01) -> int:
    from scipy.signal import find_peaks
    peaks, _ = find_peaks(values, prominence=prominence)
    return int(len(peaks))


def weak_coupling_scan(config: ScenarioConfig, omega_list, Omega_list,
                       jobs: int = 1, output_dir: str | None = None) -> SweepResult:
    """Max coherence per (omega, Omega), compared against the interaction-only
    baseline at the same remaining parameters."""
    baseline = run_point(
        replace(config, model=replace(config.model, omega=0.0, Omega=0.0)),
        coords={"omega": 0.0, "Omega": 0.0})

    pairs = [(float(w), float(W)) for w in omega_list for W in Omega_list]

    def one(pair) -> PointRun:
        w, W = pair
        cfg = replace(config, model=replace(config.model, omega=w, Omega=W))
        run = run_point(cfg, coords={"omega": w, "Omega": W})
        run.extras["beats_interaction_only"] = bool(
            run.max_coherence > baseline.max_coherence)
        return run

    runs = _parallel(one, pairs, jobs)
    result = _finish_sweep({"omega": list(omega_list), "Omega": list(Omega_list)},
                           runs, output_dir, "weak_scan")
    result.argmax["interaction_only_baseline"] = baseline.max_coherence
    result.argmax["enhanced_points"] = [
        r.coords for r in runs if r.extras["beats_interaction_only"]]
    return result


# ---------------------------------------------------------------------------
# robustness suite

def _variant_report(config: ScenarioConfig, neg_times: int = 0) -> dict:
    """Headline numbers plus negativity volumes at the half-max and max times
    (and, when neg_times > 0, at that many later sample times)."""
    run = run_point(config)
    tau_samples = [run.tau_at_half, run.tau_at_max]
    if neg_times > 0:
        tail = np.linspace(run.tau_at_half, float(run.taus[-1]), neg_times)
        tau_samples = tau_samples + [float(v) for v in tail]
    negs = [wigner_snapshot(rho, config.diagnostics.wigner_points)[2]
            for rho in oscillator_states(config, tau_samples)]
    report = {
        "max_coherence": run.max_coherence,
        "tau_at_max": run.tau_at_max,
        "half_coherence": run.half_coherence,
        "tau_at_half": run.tau_at_half,
        "negativity_at_half": negs[0],
        "negativity_at_max": negs[1],
        "convergence_shift": run.convergence_shift,
        "leakage_flag": run.leakage_flag,
    }
    if neg_times > 0:
        report["negativity_samples"] = {
            "taus": tau_samples[2:], "volumes": negs[2:]}
    return report


def robustness_suite(base: ScenarioConfig, jobs: int = 1,
                     output_dir: str | None = None,
                     mw_absorber_dim: int = 32, mw_cutoff: int = 96,
                     mixed_ladder: tuple[int, ...] = (110, 120),
                     dephasing_cutoff: int = 120,
                     admixture_ps=(0.25, 0.5, 0.75)) -> dict:
    """Input-state and environment variants of the base scenario.

    Runs, at the base parameters: oscillator dephasing, thermal and
    phase-randomized-coherent (Poissonian) inputs, the unsaturable-absorber
    mixer, and ground-state admixtures.  Mixed-input cutoffs default to a
    ladder topping out at 120, where the reference values were computed; the
    coherence of broad mixed inputs keeps creeping upward with cutoff, and
    the convergence flag reports that honestly.
    """
    variants: dict[str, dict] = {}

    def dephasing():
        cfg = replace(base, model=replace(base.model,
                                          dephasing_rate=0.1 * base.model.coupling(1)),
                      cutoff_ladder=(dephasing_cutoff,))
        rep = _variant_report(cfg, neg_times=3)
        rep["dephasing_rate"] = cfg.model.dephasing_rate
        return "dephasing", rep

    def thermal():
        cfg = replace(base, initial=InitialStateSpec("thermal", nbar=7.0),
                      cutoff_ladder=mixed_ladder)
        return "thermal", _variant_report(cfg)

    def poissonian():
        cfg = replace(base,
                      initial=InitialStateSpec("phase_randomized_coherent", nbar=7.0),
                      cutoff_ladder=mixed_ladder)
        return "phase_randomized_coherent", _variant_report(cfg)

    def mixer():
        cfg = replace(base, model=replace(base.model, absorber="oscillator",
                                          absorber_dim=mw_absorber_dim),
                      cutoff_ladder=(mw_cutoff,))
        return "mw_mixer", _variant_report(cfg)

    def admixture(p):
        cfg = replace(base, initial=InitialStateSpec("admixture", n=base.initial.n,
                                                     p=float(p)))
        return f"admixture_p{p}", _variant_report(cfg)

    tasks = [dephasing, thermal, poissonian, mixer] + \
        [lambda p=p: admixture(p) for p in admixture_ps]
    for name, rep in _parallel(lambda fn: fn(), tasks, jobs):
        variants[name] = rep

    reference = run_point(base)
    variants["reference"] = {
        "max_coherence": reference.max_coherence,
        "tau_at_max": reference.tau_at_max,
    }
    if output_dir:
        _write_json(os.path.join(_ensure_dir(output_dir), "robustness.json"), variants)
    return variants


# ---------------------------------------------------------------------------
# pumped three-mode model

def completed_model_run(config: ScenarioConfig, beta_list, jobs: int = 1,
                        output_dir: str | None = None) -> SweepResult:
    """Oscillator coherence of the pumped three-mode completion per pump
    amplitude, with a side-by-side trace of the two-body model at the
    pump-scaled linear coupling."""

    def one(beta) -> PointRun:
        beta = complex(beta)
        model = replace(config.model, pump=beta)
        cfg = replace(config, model=model)
        run = run_point(cfg, coords={"beta": abs(beta)})
        eff_inter = tuple(
            Interaction(it.order, it.coupling * abs(beta) if it.order == 1 else it.coupling)
            for it in config.model.interactions)
        eff_model = replace(config.model, pump=None, interactions=eff_inter)
        if abs(beta) > 0:
            eff_run = run_point(replace(cfg, model=eff_model))
            eff = np.array([r.coherence for r in eff_run.records])
            got = np.array([r.coherence for r in run.records])
            run.extras["effective_max_coherence"] = float(eff.max())
            run.extras["effective_trace_deviation"] = (
                float(np.abs(got - eff).max() / eff.max()) if eff.max() > 0 else 0.0)
        return run

    runs = _parallel(one, list(beta_list), jobs)
    result = _finish_sweep({"beta": [abs(complex(b)) for b in beta_list]},
                           runs, output_dir, "completed")
    return result
