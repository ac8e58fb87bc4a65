import json
import math
import pathlib

import pytest

from cohabs.cli import dispatch
from cohabs.experiments import load_config, oscillator_states, wigner_snapshot

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, doc, name="case"):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def tiny_doc(**kw):
    doc = {
        "name": "tiny",
        "model": {"interactions": [[1, 1.0], [2, 0.1]], "cutoff": 20},
        "initial": {"kind": "fock", "n": 3},
        "schedule": {"type": "continuous", "tau_max": 1.0, "points": 15},
    }
    doc.update(kw)
    return doc


def run_json(capsys, argv):
    code = dispatch(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


class TestDispatch:
    def test_evolve(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tiny_doc())
        code, summary = run_json(capsys, ["evolve", "--config", cfg])
        assert code == 0
        assert summary["max_coherence"] > 0

    def test_evolve_writes_artifacts(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tiny_doc())
        out = tmp_path / "out"
        code, _ = run_json(capsys, ["evolve", "--config", cfg, "--output", str(out)])
        assert code == 0
        assert (out / "series.csv").exists()
        assert (out / "summary.json").exists()
        assert (out / "config.json").exists()

    def test_switch(self, tmp_path, capsys):
        doc = tiny_doc(schedule={"type": "switch", "segments": [[1, 0.5], [2, 0.5]]})
        cfg = write_config(tmp_path, doc)
        code, summary = run_json(capsys, ["switch", "--config", cfg])
        assert code == 0
        assert summary["max_coherence"] > 0

    def test_switch_requires_switch_schedule(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tiny_doc())
        code, _ = run_json(capsys, ["switch", "--config", cfg])
        assert code == 2

    def test_sweep_axes(self, tmp_path, capsys):
        doc = tiny_doc(sweep={"n": [1, 2]})
        cfg = write_config(tmp_path, doc)
        code, summary = run_json(capsys, ["sweep", "--config", cfg, "--jobs", "2"])
        assert code == 0
        assert len(summary["points"]) == 2

    def test_sweep_without_axes_is_scenario(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tiny_doc())
        code, summary = run_json(capsys, ["sweep", "--config", cfg])
        assert code == 0
        assert "max_coherence" in summary

    def test_landscape(self, tmp_path, capsys):
        doc = tiny_doc(sweep={"n": [2], "G": [0.1, 1.0]},
                       schedule={"type": "continuous", "tau_max": 2 * math.pi,
                                 "points": 21})
        cfg = write_config(tmp_path, doc)
        code, summary = run_json(capsys, ["landscape", "--config", cfg])
        assert code == 0
        assert "ratio_argmax_at_pi" in summary["argmax"]

    def test_completed(self, tmp_path, capsys):
        doc = tiny_doc(model={"interactions": [[1, 1.0], [2, 0.1]], "cutoff": 12,
                              "pump": [0.0, 0.0], "pump_dim": 12},
                       schedule={"type": "continuous", "tau_max": 0.1, "points": 5},
                       sweep={"beta": [0.0, 1.0]})
        cfg = write_config(tmp_path, doc)
        code, summary = run_json(capsys, ["completed", "--config", cfg])
        assert code == 0
        assert len(summary["points"]) == 2

    def test_wigner_vacuum_center(self, tmp_path, capsys):
        code, summary = run_json(capsys, ["wigner", "--config",
                                          str(CONFIGS / "fock0.json")])
        assert code == 0
        assert summary["center_value"] == pytest.approx(1 / math.pi, abs=1e-6)

    def test_wigner_writes_grids(self, tmp_path, capsys):
        out = tmp_path / "wout"
        code, summary = run_json(capsys, ["wigner", "--config",
                                          str(CONFIGS / "fock0.json"),
                                          "--output", str(out)])
        assert code == 0
        assert (out / "wigner.txt").exists()
        assert (out / "wigner.csv").exists()

    def test_wigner_honours_dephasing(self, tmp_path, capsys):
        def doc(rate):
            return tiny_doc(model={"interactions": [[1, 1.0], [2, 0.1]], "cutoff": 16,
                                   "dephasing_rate": rate},
                            schedule={"type": "continuous", "tau_max": 0.6, "points": 4},
                            diagnostics={"wigner_points": 41})
        dephased_cfg = write_config(tmp_path, doc(0.05), "dephased")
        _, dephased = run_json(capsys, ["wigner", "--config", dephased_cfg])
        _, closed = run_json(capsys, ["wigner", "--config",
                                      write_config(tmp_path, doc(0.0), "closed")])
        assert dephased["negativity_volume"] != closed["negativity_volume"]
        rho, = oscillator_states(load_config(dephased_cfg), [0.6])
        assert dephased["negativity_volume"] == wigner_snapshot(rho, 41)[2]

    def test_wigner_rejects_switch_schedule(self, tmp_path, capsys):
        doc = tiny_doc(schedule={"type": "switch", "segments": [[1, 0.5], [2, 0.5]]})
        code, _ = run_json(capsys, ["wigner", "--config", write_config(tmp_path, doc)])
        assert code == 2


class TestOverridesAndDryRun:
    def test_dry_run_reports_resolved_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tiny_doc())
        code, payload = run_json(capsys, ["evolve", "--config", cfg, "--dry-run",
                                          "--set", "initial.n=5"])
        assert code == 0
        assert payload["resolved_config"]["initial"]["n"] == 5
        assert "config_hash" in payload

    def test_dry_run_writes_nothing(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tiny_doc())
        out = tmp_path / "nothing"
        code, _ = run_json(capsys, ["evolve", "--config", cfg, "--dry-run",
                                    "--output", str(out)])
        assert code == 0
        assert not out.exists()

    def test_override_changes_result(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tiny_doc())
        _, base = run_json(capsys, ["evolve", "--config", cfg])
        _, patched = run_json(capsys, ["evolve", "--config", cfg,
                                       "--set", "initial.n=5"])
        assert patched["max_coherence"] != base["max_coherence"]


class TestExitCodes:
    def test_parse_failure(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert dispatch(["evolve", "--config", str(bad)]) == 2

    def test_missing_config(self, capsys):
        assert dispatch(["evolve", "--config", "/nonexistent.json"]) == 2

    def test_unknown_override(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tiny_doc())
        assert dispatch(["evolve", "--config", cfg, "--set", "bogus.key=1"]) == 2

    def test_truncation_failure(self, tmp_path, capsys):
        doc = tiny_doc(initial={"kind": "fock", "n": 50})
        cfg = write_config(tmp_path, doc)
        assert dispatch(["evolve", "--config", cfg]) == 3

    def test_integration_failure(self, tmp_path, capsys):
        doc = tiny_doc(model={"interactions": [[1, 1.0], [2, 0.1]], "cutoff": 12,
                              "dephasing_rate": 0.2},
                       lindblad_tol=1e-300)
        cfg = write_config(tmp_path, doc)
        assert dispatch(["evolve", "--config", cfg]) == 4
