from dataclasses import replace
import json
import math
import sys
import threading
import time

import numpy as np
import pytest

from cohabs import experiments
from cohabs.errors import ConfigError
from cohabs.experiments import (DiagnosticsFlags, ScenarioConfig, ScheduleSpec,
                                SwitchSegment, admixture_sweep,
                                coherence_landscape, completed_model_run,
                                load_config, max_coherence_vs_n, run_scenario,
                                weak_coupling_scan)
from cohabs.models import Interaction, ModelSpec
from cohabs.states import InitialStateSpec

TWO_PI = 2 * math.pi


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
            schedule=ScheduleSpec(kind="switch",
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
        assert run.extras["raw_coherence_at_max"] == run.max_coherence

    def test_dephased_snapshot_matches_series(self):
        cfg = tiny_config(cutoff=16, points=12, tau_max=0.6,
                          diagnostics=DiagnosticsFlags(shell_removal=True))
        cfg = replace(cfg, model=replace(cfg.model, dephasing_rate=0.05))
        run = run_scenario(cfg)
        assert run.extras["raw_coherence_at_max"] == pytest.approx(run.max_coherence,
                                                                   abs=1e-6)

    def test_series_csv_columns(self, tmp_path):
        run_scenario(tiny_config(points=5), output_dir=str(tmp_path))
        header = (tmp_path / "series.csv").read_text().splitlines()[0]
        assert header == ("tau,t,coherence,entropy,mean_N,std_N,"
                          "mean_X,mean_P,V11,V22,V12,leakage")

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

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "missing.json")

    def test_bundled_configs_parse(self):
        import pathlib
        configs = pathlib.Path(__file__).resolve().parent.parent / "configs"
        assert configs.is_dir()
        for path in sorted(configs.glob("*.json")):
            cfg = load_config(path)
            assert cfg.name == path.stem


class TestSweeps:
    def test_bars_over_occupation(self, tmp_path):
        cfg = tiny_config(points=30, tau_max=TWO_PI,
                          diagnostics=DiagnosticsFlags(shell_removal=True))
        result = max_coherence_vs_n(cfg, [0, 2, 4], jobs=2,
                                    output_dir=str(tmp_path))
        assert [p.coords["n"] for p in result.points] == [0, 2, 4]
        assert result.points[0].max_coherence < 1e-12
        assert result.points[2].max_coherence > result.points[1].max_coherence > 0
        assert "shell_removed_coherence" in result.points[2].extras
        assert (tmp_path / "bars_points.csv").exists()
        assert (tmp_path / "bars_summary.json").exists()

    def test_landscape_argmax_and_families(self):
        cfg = tiny_config(points=41, tau_max=TWO_PI, cutoff=28)
        result = coherence_landscape(cfg, [3], [0.05, 0.1, 10.0], jobs=2)
        assert "ratio_argmax_at_pi" in result.argmax
        by_g = {p.coords["G"]: p for p in result.points}
        assert by_g[10.0].extras["local_maxima"] >= 1
        assert all("coherence_at_pi" in p.extras for p in result.points)

    def test_weak_scan_reports_baseline(self):
        cfg = tiny_config(points=25, tau_max=TWO_PI, cutoff=28)
        result = weak_coupling_scan(cfg, [0.0, 0.1], [0.0, 0.1], jobs=2)
        assert "interaction_only_baseline" in result.argmax
        zero = [p for p in result.points
                if p.coords == {"omega": 0.0, "Omega": 0.0}][0]
        assert zero.max_coherence == pytest.approx(
            result.argmax["interaction_only_baseline"], abs=1e-12)

    def test_admixture_sweep(self):
        cfg = tiny_config(points=25, tau_max=TWO_PI)
        result = admixture_sweep(cfg, [0.0, 0.5], jobs=1)
        c0, c5 = (p.max_coherence for p in result.points)
        assert c5 < c0

    def test_completed_model_passivity_and_comparison(self):
        cfg = ScenarioConfig(
            name="pump",
            model=ModelSpec(interactions=(Interaction(1, 1.0), Interaction(2, 0.1)),
                            cutoff=14, pump=0j, pump_dim=12),
            initial=InitialStateSpec("fock", n=4),
            schedule=ScheduleSpec(tau_max=0.2, points=11),
        )
        result = completed_model_run(cfg, [0.0, 1.0], jobs=1)
        flat, pumped = result.points
        assert flat.max_coherence < 1e-10
        assert pumped.max_coherence > 1e-4
        assert "effective_trace_deviation" in pumped.extras

    def test_sweep_summary_shape(self):
        cfg = tiny_config(points=20, tau_max=1.0)
        result = max_coherence_vs_n(cfg, [1, 2], jobs=1)
        doc = result.summary()
        assert set(doc) == {"axes", "points", "argmax", "convergence"}
        assert doc["argmax"]["max_coherence"] == max(
            p["max_coherence"] for p in doc["points"])


class TestPropagatorCache:
    def test_concurrent_misses_build_once(self, monkeypatch):
        built = []
        workers = 4
        start = threading.Barrier(workers)

        class CountingPropagator:
            def __init__(self, hamiltonian):
                built.append(hamiltonian)
                time.sleep(0.05)            # hold the build open while the others miss

        monkeypatch.setattr(experiments, "HamiltonianPropagator", CountingPropagator)
        model = tiny_config(cutoff=10).model
        got = []

        def request():
            start.wait(timeout=10)
            got.append(experiments._propagator_for(model))

        interval = sys.getswitchinterval()
        experiments.clear_propagator_cache()
        try:
            sys.setswitchinterval(1e-6)
            threads = [threading.Thread(target=request) for _ in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
            experiments.clear_propagator_cache()
        assert len(built) == 1
        assert len(got) == workers and all(p is got[0] for p in got)
