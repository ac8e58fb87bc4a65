from dataclasses import replace
import hashlib
import json
import math
import pathlib

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from cohabs import experiments, observables
from cohabs.errors import ConfigError
from cohabs.evolution import CHECKPOINTS, HamiltonianPropagator, _StrangStep
from cohabs.hilbert import KetEnsemble, partial_trace
from cohabs.experiments import (DiagnosticsFlags, ScenarioConfig, ScheduleSpec,
                                SwitchSegment, from_document, load_config,
                                oscillator_states, robustness_suite, run_batch, run_point,
                                run_scenario, sweep, to_document, wigner_snapshot)
from cohabs.models import OSC_LABEL, Interaction, ModelSpec
from cohabs.observables import save_wigner_csv, save_wigner_text
from cohabs.states import InitialStateSpec

TWO_PI = 2 * math.pi
CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"
SHIPPED_HASHES = {
    "appendixA": "b1d1eb37181ebff4", "appendixB": "60913cbca95549aa",
    "appendixC_dephasing": "0fca012f65814e31", "appendixC_mw": "a9ad0ef332de62d7",
    "appendixC_prcoherent": "c517e5f8284a6324", "appendixC_thermal": "d5bd00891ca71de6",
    "appendixC_weak": "a829168812d67c86", "appendixC_weakscan": "525e598aba1060e1",
    "appendixD": "733566eb9d28ea3f", "appendixE": "56f7b8823d5458c4",
    "fig1": "22b7ec6ea9e6486b", "fig2": "002bd6b0cc08daec", "fig3": "339b6016bebe308d",
    "fig4": "e91aa1ee9842e6f6", "fock0": "37e51fe48e638ed0", "robustness": "9643b2c96e7653c2",
}


def tiny_config(name="tiny", cutoff=24, n=3, points=40, tau_max=1.0, **kw):
    return ScenarioConfig(
        name=name,
        model=ModelSpec(interactions=(Interaction(1, 1.0), Interaction(2, 0.1)),
                        cutoff=cutoff),
        initial=InitialStateSpec("fock", n=n),
        schedule=ScheduleSpec(tau_max=tau_max, points=points),
        **kw,
    )


class TestRunScenario:
    def test_zero_interaction_stays_incoherent(self):
        cfg = ScenarioConfig(
            name="null",
            model=ModelSpec(interactions=(Interaction(1, 0.0),), cutoff=12),
            initial=InitialStateSpec("fock", n=3),
            schedule=ScheduleSpec(tau_max=5.0, points=20),
        )
        run = run_scenario(cfg)
        assert all(rec.coherence == 0.0 for rec in run.records)

    def test_ground_state_produces_nothing(self):
        run = run_scenario(tiny_config(n=0))
        assert run.max_coherence < 1e-12

    def test_argmax_consistent_with_series(self):
        run = run_scenario(tiny_config(points=60, tau_max=2.0))
        cs = [rec.coherence for rec in run.records]
        i = int(np.argmax(cs))
        assert run.max_coherence == cs[i]
        assert run.tau_at_max == run.taus[i]

    def test_half_max_is_earliest_crossing(self):
        run = run_scenario(tiny_config(points=80, tau_max=2.0))
        cs = np.array([rec.coherence for rec in run.records])
        half = run.max_coherence / 2
        first = int(np.nonzero(cs >= half)[0][0])
        assert run.tau_at_half == run.taus[first]

    def test_convergence_shift_between_top_two_cutoffs(self):
        cfg = tiny_config(cutoff=32, cutoff_ladder=(16, 24, 32), tau_max=2.0, points=30)
        run = run_scenario(cfg)
        solo = {c: run_scenario(tiny_config(cutoff=c, tau_max=2.0, points=30)).max_coherence
                for c in (24, 32)}
        assert run.convergence_shift == pytest.approx(abs(solo[32] - solo[24]), abs=1e-12)

    def test_switch_schedule(self):
        cfg = ScenarioConfig(
            name="sw",
            model=ModelSpec(interactions=(Interaction(1, 1.0), Interaction(2, 0.1)),
                            cutoff=20),
            initial=InitialStateSpec("fock", n=5),
            schedule=ScheduleSpec(type="switch",
                                  segments=(SwitchSegment(1, 0.6), SwitchSegment(2, 0.6))),
        )
        run = run_scenario(cfg)
        assert len(run.records) == 2
        assert run.records[0].coherence < 1e-12      # single exchange keeps diagonality
        assert run.records[1].coherence > 0.01

    def test_mixed_initial_state(self):
        cfg = tiny_config(points=12, tau_max=0.5)
        cfg = ScenarioConfig(name=cfg.name, model=cfg.model,
                             initial=InitialStateSpec("admixture", n=3, p=0.5),
                             schedule=cfg.schedule)
        run = run_scenario(cfg)
        assert run.records[-1].coherence >= 0.0

    def test_determinism_byte_identical_artifacts(self, tmp_path):
        cfg = tiny_config(points=25, tau_max=1.5,
                          diagnostics=DiagnosticsFlags(wigner=True, shell_removal=True,
                                                       wigner_points=61))
        run_scenario(cfg, output_dir=str(tmp_path / "a"))
        run_scenario(cfg, output_dir=str(tmp_path / "b"))
        for fname in ("series.csv", "summary.json", "config.json",
                      "wigner_max.txt", "wigner_max.csv"):
            assert (tmp_path / "a" / fname).read_bytes() == \
                (tmp_path / "b" / fname).read_bytes(), fname

    @pytest.mark.parametrize("initial", [InitialStateSpec("fock", n=3),
                                         InitialStateSpec("admixture", n=3, p=0.4),
                                         InitialStateSpec("thermal", nbar=0.5)])
    def test_snapshot_matches_series(self, initial):
        cfg = replace(tiny_config(points=30, tau_max=2.0,
                                  diagnostics=DiagnosticsFlags(shell_removal=True)),
                      initial=initial)
        run = run_scenario(cfg)
        assert observables.coherence(run.trajectory(run.tau_at_max)) == run.max_coherence
        assert run.extras["raw_coherence_at_max"] == run.max_coherence

    def test_dephased_snapshot_matches_series(self):
        cfg = tiny_config(cutoff=16, points=12, tau_max=0.6,
                          diagnostics=DiagnosticsFlags(shell_removal=True))
        cfg = replace(cfg, model=replace(cfg.model, dephasing_rate=0.05))
        run = run_scenario(cfg)
        assert observables.coherence(run.trajectory(run.tau_at_max)) == run.max_coherence
        assert run.extras["raw_coherence_at_max"] == run.max_coherence

    def test_dephased_run_integrates_once(self, monkeypatch):
        # the series is the one integration from t = 0; each of the two
        # snapshot states resumes from a checkpoint, so it costs at most one
        # checkpoint interval of Strang-step attempts
        cfg = replace(dephased_config(shell_removal=True),
                      schedule=ScheduleSpec(tau_max=0.6, points=40))
        steps, marks, resumes = [], [], []
        diagnose, evolve = experiments.diagnose, experiments.lindblad_evolve
        # an attempt (step doubling) and an output state's partial step each count once
        for seam in ("attempt", "__call__"):
            monkeypatch.setattr(_StrangStep, seam, lambda self, sigma, h, run=getattr(
                _StrangStep, seam): steps.append(h) or run(self, sigma, h))
        # the series' step count as each output state is observed
        monkeypatch.setattr(experiments, "diagnose",
                            lambda rho: marks.append(len(steps)) or diagnose(rho))
        monkeypatch.setattr(experiments, "lindblad_evolve",
                            lambda *a, **kw: resumes.append(kw.get("resume")) or evolve(*a, **kw))
        run = run_scenario(cfg)
        assert {"wigner_half", "wigner_max", "shell_removed_coherence"} <= set(run.extras)
        assert resumes[0] is None and len(resumes) == 3
        assert all(r is not None for r in resumes[1:])
        every = -(-len(marks) // CHECKPOINTS)
        bounds = [0] + marks[every - 1::every] + [marks[-1]]
        interval = max(b - a for a, b in zip(bounds, bounds[1:]))
        # a resume from t = 0 would cost every attempt before the state's time
        assert len(steps) - marks[-1] <= 2 * interval < marks[-1]

    @pytest.mark.parametrize("dephasing_rate", [0.0, 0.05], ids=["unitary", "dephased"])
    def test_wigner_files_match_oscillator_states(self, dephasing_rate, tmp_path):
        cfg = dephased_config(dephasing_rate)
        run = run_scenario(cfg, output_dir=str(tmp_path / "run"))
        rhos = oscillator_states(cfg, [run.tau_at_half, run.tau_at_max])
        ref = tmp_path / "ref"
        ref.mkdir()
        for label, rho in zip(("half", "max"), rhos):
            grid = wigner_snapshot(rho, cfg.diagnostics.wigner_points)[1]
            assert np.array_equal(state_array(rho),
                                  state_array(run.trajectory(getattr(run, f"tau_at_{label}"))))
            save_wigner_text(grid, str(ref / f"wigner_{label}.txt"))
            save_wigner_csv(grid, str(ref / f"wigner_{label}.csv"))
            for suffix in ("txt", "csv"):
                name = f"wigner_{label}.{suffix}"
                assert (tmp_path / "run" / name).read_bytes() == (ref / name).read_bytes()

    def test_series_csv_columns(self, tmp_path):
        run_scenario(tiny_config(points=5), output_dir=str(tmp_path))
        header = (tmp_path / "series.csv").read_text().splitlines()[0]
        assert header == ("tau,t,coherence,entropy,mean_N,std_N,"
                          "mean_X,mean_P,V11,V22,V12,leakage")

    def test_one_propagator_per_cutoff(self, monkeypatch):
        # one propagator per ladder cutoff; the trajectory builds none of its own
        built = count_propagators(monkeypatch)
        run_scenario(tiny_config(points=25, tau_max=1.5, cutoff_ladder=(16, 24),
                                 diagnostics=DiagnosticsFlags(wigner=True, shell_removal=True,
                                                              wigner_points=41)))
        assert len(built) == len(set(built)) == 2

    def test_summary_contents(self, tmp_path):
        run_scenario(tiny_config(points=20), output_dir=str(tmp_path))
        summary = json.loads((tmp_path / "summary.json").read_text())
        for key in ("max_coherence", "tau_at_max", "convergence_shift", "leakage_flag"):
            assert key in summary


class TestConfigDocuments:
    def test_round_trip(self):
        cfg = tiny_config(cutoff_ladder=(16, 24), sweep={"n": [1, 2, 3]})
        assert ScenarioConfig.from_dict(cfg.to_dict()).hash() == cfg.hash()

    def test_overrides(self):
        cfg = tiny_config()
        out = cfg.apply_overrides(["model.cutoff=32", "initial.n=5", "name=patched"])
        assert out.model.cutoff == 32
        assert out.initial.n == 5
        assert out.name == "patched"

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError):
            tiny_config().apply_overrides(["model.nonsense=1"])

    def test_malformed_override_rejected(self):
        with pytest.raises(ConfigError):
            tiny_config().apply_overrides(["model.cutoff"])

    def test_ladder_must_increase(self):
        with pytest.raises(ConfigError):
            tiny_config(cutoff_ladder=(24, 24))

    def test_empty_sweep_axis_rejected(self):
        with pytest.raises(ConfigError):
            tiny_config(sweep={"n": []})

    @pytest.mark.parametrize("tau_max", [-0.5, math.inf, math.nan])
    def test_tau_max_must_be_finite_and_nonnegative(self, tau_max):
        with pytest.raises(ConfigError):
            ScheduleSpec(tau_max=tau_max)

    @pytest.mark.parametrize("tol", [-1e-7, 0.0, math.nan, math.inf])
    def test_lindblad_tol_must_be_finite_and_positive(self, tol):
        with pytest.raises(ConfigError):
            tiny_config(lindblad_tol=tol)

    @pytest.mark.parametrize("points", [0, 1])
    def test_wigner_grid_needs_two_points(self, points):
        with pytest.raises(ConfigError):
            DiagnosticsFlags(wigner_points=points)

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "missing.json")

    def test_bundled_configs_parse(self):
        assert CONFIGS.is_dir()
        for path in sorted(CONFIGS.glob("*.json")):
            cfg = load_config(path)
            assert cfg.name == path.stem

    @pytest.mark.parametrize("name, expected", sorted(SHIPPED_HASHES.items()))
    def test_shipped_config_hash(self, name, expected):
        # a change to the document format moves these
        assert load_config(CONFIGS / f"{name}.json").hash() == expected

    @pytest.mark.parametrize("initial, doc", [
        (InitialStateSpec("fock", n=3, nbar=1.0, p=0.5, beta=1j), {"kind": "fock", "n": 3}),
        (InitialStateSpec("admixture", n=3, p=0.5), {"kind": "admixture", "n": 3, "p": 0.5}),
        (InitialStateSpec("thermal", n=3, nbar=1.5), {"kind": "thermal", "nbar": 1.5}),
        (InitialStateSpec("coherent", beta=1.0 - 2.0j), {"kind": "coherent",
                                                         "beta": [1.0, -2.0]}),
        (InitialStateSpec("ground", n=2), {"kind": "ground"}),
    ], ids=["fock", "admixture", "thermal", "coherent", "ground"])
    def test_initial_document_holds_the_fields_its_kind_reads(self, initial, doc):
        assert to_document(initial) == doc
        assert to_document(from_document(InitialStateSpec, doc, "initial")) == doc

    def test_schedule_documents(self):
        switch = ScheduleSpec(type="switch", segments=(SwitchSegment(2, 0.5),))
        assert to_document(switch) == {"type": "switch", "segments": [[2, 0.5]]}
        assert to_document(ScheduleSpec(tau_max=1.0, points=3)) == {
            "type": "continuous", "tau_max": 1.0, "points": 3}

    def test_decoding_converts_to_the_annotated_type(self):
        doc = tiny_config().to_dict()
        doc["model"].update(omega=1, interactions=[[1, 1], [2.0, 0.1]], pump=2)
        doc["initial"]["n"] = 4.0
        cfg = ScenarioConfig.from_dict(doc)
        assert type(cfg.model.omega) is float
        assert [type(v) for it in cfg.model.interactions for v in (it.order, it.coupling)] \
            == [int, float, int, float]
        assert cfg.model.pump == 2 + 0j and type(cfg.model.pump) is complex
        assert type(cfg.initial.n) is int and cfg.initial.n == 4

    def test_name_defaults(self):
        doc = tiny_config().to_dict()
        del doc["name"]
        assert ScenarioConfig.from_dict(doc).name == "scenario"


def dephased_config(dephasing_rate=0.05, shell_removal=False):
    cfg = tiny_config(cutoff=16, points=12, tau_max=0.6,
                      diagnostics=DiagnosticsFlags(wigner=True, shell_removal=shell_removal,
                                                   wigner_points=31))
    return replace(cfg, model=replace(cfg.model, dephasing_rate=dephasing_rate))


def state_array(rho) -> np.ndarray:
    """The array a reduced state holds: a ket ensemble's kets or a density
    matrix."""
    return rho.kets if isinstance(rho, KetEnsemble) else rho.data


class TestSnapshotRecords:
    """The snapshot states of a run are read from its trajectory, which a
    batch run keeps only when its config asks for them."""

    @pytest.mark.parametrize("flags, expected, schedule", [
        (DiagnosticsFlags(), set(), ScheduleSpec(tau_max=1.0, points=20)),
        (DiagnosticsFlags(wigner=True), {"half", "max"}, ScheduleSpec(tau_max=1.0, points=20)),
        (DiagnosticsFlags(shell_removal=True), {"max"}, ScheduleSpec(tau_max=1.0, points=20)),
        # one segment end: the half-max and max times coincide, and are read once
        (DiagnosticsFlags(wigner=True, shell_removal=True), {"half", "max"},
         ScheduleSpec(type="switch", segments=(SwitchSegment(1, 0.9),))),
    ], ids=["none", "wigner", "shell-removal", "switch"])
    def test_snapshots_kept_only_when_asked(self, flags, expected, schedule):
        cfg = replace(tiny_config(diagnostics=flags), schedule=schedule)
        run = run_point(cfg)
        read, trajectory = [], run.trajectory
        run.trajectory = lambda tau: read.append(tau) or trajectory(tau)
        info = experiments._diag_extras(cfg, run, None)
        assert read == list(dict.fromkeys(getattr(run, f"tau_at_{label}")
                                          for label in ("half", "max") if label in expected))
        if run.tau_at_half == run.tau_at_max and flags.wigner:
            assert info["wigner_half"] == info["wigner_max"]
        batch_run, = run_batch([(cfg, None)])
        assert (batch_run.trajectory is not None) == bool(expected)

    def test_sweep_frees_snapshots(self):
        cfg = tiny_config(points=20, diagnostics=DiagnosticsFlags(shell_removal=True),
                          sweep={"n": [2, 3]})
        result = sweep(cfg, jobs=1)
        assert all(p.trajectory is None for p in result.points)
        assert all("shell_removed_coherence" in p.extras for p in result.points)


class TestTrajectory:
    @settings(max_examples=10, deadline=None)
    @given(points=st.integers(2 * CHECKPOINTS + 1, 3 * CHECKPOINTS),
           dephasing_rate=st.sampled_from([0.0, 0.05]),
           fractions=st.lists(st.floats(0.0, 1.0), max_size=2))
    def test_states_equal_a_run_from_zero(self, points, dephasing_rate, fractions):
        # at output times, mid-interval times, checkpoint times, before the
        # first checkpoint and at the end, against a run of its own from
        # t = 0 to that time alone
        cfg = replace(dephased_config(dephasing_rate),
                      schedule=ScheduleSpec(tau_max=0.6, points=points))
        run = run_point(cfg)
        taus, every = run.taus, -(-points // CHECKPOINTS)
        first = every - 1                       # the output of the first checkpoint
        samples = [taus[0], taus[1], 0.5 * (taus[0] + taus[1]), taus[first],
                   taus[first + 1], 0.5 * (taus[first] + taus[first + 1]),
                   taus[2 * every - 1], taus[-2], taus[-1],
                   *(f * taus[-1] for f in fractions)]
        for tau in samples:
            ref, = oscillator_states(cfg, [tau])
            assert np.array_equal(state_array(run.trajectory(tau)), state_array(ref)), tau

    @settings(max_examples=12, deadline=None)
    @given(segments=st.lists(st.tuples(st.sampled_from([1, 2]), st.integers(10, 90).filter(
               lambda k: k % 25).map(lambda k: k / 100)), min_size=1, max_size=3),
           dephasing_rate=st.sampled_from([0.0, 0.05]), omega=st.sampled_from([0.0, 0.3]),
           fractions=st.lists(st.floats(0.05, 0.95), min_size=1, max_size=2))
    def test_switch_states_equal_a_run_that_stops_there(self, segments, dephasing_rate,
                                                        omega, fractions):
        # before the first end, inside each segment, at each end and past the
        # last one, against a run that stops at that tau alone; the inside
        # times also against one run over all of them, and the ends against
        # the series' own states
        cfg = ScenarioConfig(
            model=ModelSpec(interactions=(Interaction(1, 1.0), Interaction(2, 0.3)),
                            cutoff=12, omega=omega, dephasing_rate=dephasing_rate),
            initial=InitialStateSpec("fock", n=3),
            schedule=ScheduleSpec(type="switch", segments=tuple(
                SwitchSegment(order, tau) for order, tau in segments)))
        ends = cfg.schedule.taus()
        series = []
        taus, _, _ = experiments._evolve(cfg, 12, None, lambda state: series.append(
            partial_trace(state, OSC_LABEL)), {})
        assert np.array_equal(taus, ends)
        run = run_point(cfg)
        for tau, rho in zip(ends, series):
            assert np.array_equal(state_array(run.trajectory(tau)), state_array(rho)), tau
        inside = [0.0, ends[-1] + 0.4] + [start + f * (end - start) for start, end
                                          in zip(np.r_[0.0, ends], ends) for f in fractions]
        # a run over the inside times alone passes no segment end as an output
        for tau, together in zip(inside, oscillator_states(cfg, inside)):
            assert np.array_equal(state_array(run.trajectory(tau)), state_array(together)), tau
        for tau in [*inside, *ends]:
            alone, = oscillator_states(cfg, [tau])
            assert np.array_equal(state_array(run.trajectory(tau)), state_array(alone)), tau


def pumped_config(**kw):
    return ScenarioConfig(
        name="pump",
        model=ModelSpec(interactions=(Interaction(1, 1.0), Interaction(2, 0.1)),
                        cutoff=14, pump=0j, pump_dim=12),
        initial=InitialStateSpec("fock", n=4),
        schedule=ScheduleSpec(tau_max=0.2, points=11),
        **kw,
    )


SWEEP_KINDS = ("bars", "admixture", "landscape", "weak_scan", "completed")

# distinct (model, cutoff) Hamiltonians of each sweep_config: the ladder has
# two cutoffs; the weak scan's interaction-only baseline is its (0, 0) point;
# the pump amplitude enters only the initial state, so the three pumped
# models (pump_dim 12) share one Hamiltonian, beside two effective ones
DISTINCT_HAMILTONIANS = {"bars": 2, "admixture": 2, "landscape": 4,
                         "weak_scan": 8, "completed": 3}


def sweep_config(kind):
    if kind == "completed":
        return pumped_config(sweep={"beta": [0.0, 0.5, 1.0]})
    axes = {"bars": {"n": [1, 3, 5]}, "admixture": {"p": [0.1, 0.4, 0.7]},
            "landscape": {"n": [2, 3], "G": [0.1, 1.0]},
            "weak_scan": {"omega": [0.0, 0.1], "Omega": [0.0, 0.1]}}[kind]
    return tiny_config(cutoff=24, n=5, points=30, tau_max=TWO_PI, cutoff_ladder=(20, 24),
                       diagnostics=DiagnosticsFlags(shell_removal=True), sweep=axes)


def count_propagators(monkeypatch) -> list[str]:
    """Digests of the Hamiltonians of every HamiltonianPropagator built from now on."""
    built = []
    init = HamiltonianPropagator.__init__

    def counting(self, hamiltonian):
        built.append(hashlib.sha256(hamiltonian.entries.tobytes()).hexdigest())
        init(self, hamiltonian)

    monkeypatch.setattr(HamiltonianPropagator, "__init__", counting)
    return built


def count_runs(monkeypatch) -> list:
    """The config of every run_point call from now on."""
    calls = []
    run = experiments.run_point

    def counting(config, *args, **kw):
        calls.append(config)
        return run(config, *args, **kw)

    monkeypatch.setattr(experiments, "run_point", counting)
    return calls


class TestSweeps:
    def test_bars_over_occupation(self, tmp_path):
        cfg = tiny_config(points=30, tau_max=TWO_PI,
                          diagnostics=DiagnosticsFlags(shell_removal=True),
                          sweep={"n": [0, 2, 4]})
        result = sweep(cfg, jobs=2, output_dir=str(tmp_path))
        assert [p.coords["n"] for p in result.points] == [0, 2, 4]
        assert result.points[0].max_coherence < 1e-12
        assert result.points[2].max_coherence > result.points[1].max_coherence > 0
        assert "shell_removed_coherence" in result.points[2].extras
        assert (tmp_path / "bars_points.csv").exists()
        assert (tmp_path / "bars_summary.json").exists()

    def test_landscape_argmax_and_families(self):
        cfg = tiny_config(points=41, tau_max=TWO_PI, cutoff=28,
                          sweep={"n": [3], "G": [0.05, 0.1, 10.0]})
        result = sweep(cfg, jobs=2)
        assert "ratio_argmax_at_pi" in result.argmax
        by_g = {p.coords["G"]: p for p in result.points}
        assert by_g[10.0].extras["local_maxima"] >= 1
        assert all("coherence_at_pi" in p.extras for p in result.points)

    def test_weak_scan_reports_baseline(self):
        cfg = tiny_config(points=25, tau_max=TWO_PI, cutoff=28,
                          sweep={"omega": [0.0, 0.1], "Omega": [0.0, 0.1]})
        result = sweep(cfg, jobs=2)
        assert "interaction_only_baseline" in result.argmax
        zero = [p for p in result.points
                if p.coords == {"omega": 0.0, "Omega": 0.0}][0]
        assert zero.max_coherence == pytest.approx(
            result.argmax["interaction_only_baseline"], abs=1e-12)

    def test_admixture_sweep(self):
        cfg = tiny_config(points=25, tau_max=TWO_PI, sweep={"p": [0.0, 0.5]})
        result = sweep(cfg, jobs=1)
        c0, c5 = (p.max_coherence for p in result.points)
        assert c5 < c0

    @pytest.mark.parametrize("kind", SWEEP_KINDS)
    def test_sweep_files_independent_of_jobs(self, kind, tmp_path):
        # points run in threads over shared propagators; thread order must not matter
        cfg = sweep_config(kind)
        for jobs in (1, 2):
            sweep(cfg, jobs=jobs, output_dir=str(tmp_path / f"jobs{jobs}"))
        names = sorted(p.name for p in (tmp_path / "jobs1").iterdir())
        expected = [f"{kind}_points.csv", f"{kind}_summary.json"]
        if kind == "landscape":
            expected.insert(0, "landscape_argmax_g.json")
        assert names == expected
        for name in names:
            assert (tmp_path / "jobs1" / name).read_bytes() == \
                (tmp_path / "jobs2" / name).read_bytes(), name

    @pytest.mark.parametrize("kind", SWEEP_KINDS)
    def test_one_propagator_per_distinct_hamiltonian(self, kind, monkeypatch):
        built = count_propagators(monkeypatch)
        sweep(sweep_config(kind), jobs=2)
        assert sorted(built) == sorted(set(built))
        assert len(built) == DISTINCT_HAMILTONIANS[kind]

    @pytest.mark.parametrize("omegas, runs", [([0.0, 0.1], 4), ([0.1, 0.2], 5)],
                             ids=["grid-holds-zero", "grid-without-zero"])
    def test_weak_scan_baseline_reuses_the_zero_point(self, omegas, runs, monkeypatch):
        # the interaction-only baseline is the (0, 0) point's config: one run
        calls = count_runs(monkeypatch)
        cfg = replace(sweep_config("weak_scan"), sweep={"omega": omegas, "Omega": [0.0, 0.1]})
        result = sweep(cfg, jobs=2)
        assert len(calls) == runs
        baseline = run_point(replace(cfg, model=replace(cfg.model, omega=0.0, Omega=0.0)))
        assert result.argmax["interaction_only_baseline"] == baseline.max_coherence

    def test_completed_model_passivity_and_comparison(self):
        result = sweep(pumped_config(sweep={"beta": [0.0, 1.0]}), jobs=1)
        flat, pumped = result.points
        assert flat.max_coherence < 1e-10
        assert pumped.max_coherence > 1e-4
        assert "effective_trace_deviation" in pumped.extras

    def test_sweep_summary_shape(self):
        cfg = tiny_config(points=20, tau_max=1.0, sweep={"n": [1, 2]})
        result = sweep(cfg, jobs=1)
        doc = result.summary()
        assert set(doc) == {"axes", "points", "argmax", "convergence"}
        assert doc["argmax"]["max_coherence"] == max(
            p["max_coherence"] for p in doc["points"])


ROBUSTNESS_VARIANTS = experiments._robustness_variants


def small_variants(base):
    """The robustness variants at small sizes: ladders (10, 12) or (12,), an
    absorber of 4 levels, mixed inputs at mean occupation 0.3."""
    out = {}
    for name, (cfg, samples) in ROBUSTNESS_VARIANTS(base).items():
        initial = cfg.initial
        if initial.kind in ("thermal", "phase_randomized_coherent"):
            initial = replace(initial, nbar=0.3)
        model = replace(cfg.model, cutoff=12, absorber_dim=min(cfg.model.absorber_dim, 4))
        ladder = (10, 12) if len(cfg.ladder()) == 2 else (12,)
        out[name] = (replace(cfg, model=model, initial=initial, cutoff_ladder=ladder), samples)
    return out


class TestRobustnessSuite:
    BASE = tiny_config(cutoff=12, n=3, points=20, tau_max=2.0, cutoff_ladder=(10, 12),
                       diagnostics=DiagnosticsFlags(wigner_points=31))

    @pytest.fixture(autouse=True)
    def small(self, monkeypatch):
        monkeypatch.setattr(experiments, "_robustness_variants", small_variants)

    def test_reports_and_reference(self):
        self.check_reports(self.BASE)

    def test_switch_schedule_variants(self):
        # a switch base's variants sample states inside its segments too
        self.check_reports(replace(self.BASE, schedule=ScheduleSpec(
            type="switch", segments=(SwitchSegment(1, 0.7), SwitchSegment(2, 1.3)))))

    @staticmethod
    def check_reports(base):
        """Each variant's headline equals its own run's, and its negativity
        volumes those of states from runs that stop at the sampled times."""
        results = robustness_suite(base)
        variants = small_variants(base)
        assert set(results) == set(variants) | {"reference"}
        reference = run_point(base)
        assert results["reference"] == {"max_coherence": reference.max_coherence,
                                        "tau_at_max": reference.tau_at_max}
        assert results["dephasing"]["dephasing_rate"] == 0.1
        for name, (cfg, samples) in variants.items():
            report, run = results[name], run_point(cfg)
            assert (report["max_coherence"], report["tau_at_max"]) == (run.max_coherence,
                                                                        run.tau_at_max)
            tail = report.get("negativity_samples", {"taus": [], "volumes": []})
            assert len(tail["taus"]) == samples
            taus = [report["tau_at_half"], report["tau_at_max"]] + tail["taus"]
            negs = [wigner_snapshot(rho, cfg.diagnostics.wigner_points)[2]
                    for rho in oscillator_states(cfg, taus)]
            assert negs == [report["negativity_at_half"], report["negativity_at_max"]] \
                + tail["volumes"], name

    def test_base_sweep_axes_are_dropped(self):
        # the thermal variant reads no n, so the base's n axis cannot ride along
        assert robustness_suite(replace(self.BASE, sweep={"n": [1, 2]})) == \
            robustness_suite(self.BASE)

    def test_file_independent_of_jobs(self, tmp_path):
        for jobs in (1, 2):
            robustness_suite(self.BASE, jobs=jobs, output_dir=str(tmp_path / f"jobs{jobs}"))
        assert (tmp_path / "jobs1" / "robustness.json").read_bytes() == \
            (tmp_path / "jobs2" / "robustness.json").read_bytes()

    def test_each_sampled_tau_is_read_once(self, monkeypatch):
        # the dephasing variant samples its half-max time twice, as the first
        # negativity sample after it; its state and grid are made once
        reads, run = {}, experiments.run_point

        def reading(config, *args, **kw):
            result = run(config, *args, **kw)
            trajectory, taus = result.trajectory, reads.setdefault(config.hash(), [])
            result.trajectory = lambda tau: taus.append(tau) or trajectory(tau)
            return result

        monkeypatch.setattr(experiments, "run_point", reading)
        results = robustness_suite(self.BASE)
        variants = small_variants(self.BASE)
        for name, (cfg, samples) in variants.items():
            report = results[name]
            taus = [report["tau_at_half"], report["tau_at_max"]] + report.get(
                "negativity_samples", {"taus": []})["taus"]
            assert reads[cfg.hash()] == list(dict.fromkeys(taus)), name
        assert len(reads[variants["dephasing"][0].hash()]) < 2 + variants["dephasing"][1]

    def test_every_run_is_in_the_batch(self, monkeypatch):
        # the seven variants and the reference, each run once
        calls = count_runs(monkeypatch)
        robustness_suite(self.BASE, jobs=2)
        assert len(calls) == 8
        assert self.BASE in calls
