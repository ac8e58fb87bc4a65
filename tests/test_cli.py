import json
import math
import pathlib

import pytest

from cohabs import observables
from cohabs.cli import dispatch
from cohabs.experiments import load_config, oscillator_states, run_point, wigner_snapshot

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

    def test_switch_runs_on_the_configured_model(self, capsys):
        # segments keep the model's free terms, detuning (a negative omega),
        # dephasing and absorber
        argv = ["switch", "--config", str(CONFIGS / "fig2.json"),
                "--set", "model.cutoff=20", "--set", "cutoff_ladder=[20]"]
        _, plain = run_json(capsys, argv)
        for pairs in (["model.omega=0.5", "model.Omega=0.5"], ["model.dephasing_rate=0.5"],
                      ["model.omega=-0.7"], ["model.absorber=oscillator",
                                            "model.absorber_dim=4"]):
            code, summary = run_json(capsys, argv + [a for p in pairs for a in ("--set", p)])
            assert code == 0, pairs
            assert summary["max_coherence"] != plain["max_coherence"], pairs

    def test_switch_requires_switch_schedule(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tiny_doc())
        code, _ = run_json(capsys, ["switch", "--config", cfg])
        assert code == 2

    def test_switch_writes_wigner_grids_and_shell_removal(self, tmp_path, capsys):
        # the grids and the shell removal of a switch run, from its trajectory
        overrides = ["model.cutoff=20", "cutoff_ladder=[20]", "diagnostics.wigner=true",
                     "diagnostics.shell_removal=true", "diagnostics.wigner_points=41"]
        code, summary = run_json(capsys, ["switch", "--config", str(CONFIGS / "fig2.json"),
                                          "--output", str(tmp_path / "run")]
                                 + [a for pair in overrides for a in ("--set", pair)])
        assert code == 0
        config = load_config(CONFIGS / "fig2.json").apply_overrides(overrides)
        run = run_point(config)
        rho_max = run.trajectory(run.tau_at_max)
        assert summary["shell_removed_coherence"] == observables.coherence(
            observables.remove_gaussian_shell(rho_max))
        for label in ("half", "max"):
            grid = wigner_snapshot(run.trajectory(getattr(run, f"tau_at_{label}")), 41)[1]
            observables.save_wigner_text(grid, str(tmp_path / f"{label}.txt"))
            assert (tmp_path / "run" / f"wigner_{label}.txt").read_bytes() == \
                (tmp_path / f"{label}.txt").read_bytes()

    def test_sweep_axes(self, tmp_path, capsys):
        doc = tiny_doc(sweep={"n": [1, 2]})
        cfg = write_config(tmp_path, doc)
        code, summary = run_json(capsys, ["sweep", "--config", cfg, "--jobs", "2"])
        assert code == 0
        assert len(summary["points"]) == 2

    @pytest.mark.parametrize("command, axes, points", [
        ("sweep", {"n": [1, 2], "G": [0.1, 1.0]}, 4),     # the landscape axis set
        ("landscape", {"n": [2], "G": [0.1, 1.0], "p": [0.0, 0.5]}, None),
        ("sweep", {"beta": [0.0, 1.0], "n": [1, 2]}, None),
    ], ids=["sweep-n-G", "landscape-n-G-p", "sweep-beta-n"])
    def test_every_sweep_axis_is_used(self, tmp_path, capsys, command, axes, points):
        argv = [command, "--config", write_config(tmp_path, tiny_doc(sweep=axes))]
        code = dispatch(argv)
        out, err = capsys.readouterr()
        if points is None:
            assert code == 2
            assert "accepted sets: n; p; n + G; omega + Omega; beta" in err
            assert dispatch(argv + ["--dry-run"]) == 2
        else:
            assert code == 0
            assert len(json.loads(out)["points"]) == points

    @pytest.mark.parametrize("stem, axes", [
        ("landscape", {"n": [2], "G": [0.1, 1.0]}),
        ("weak_scan", {"omega": [0.0, 0.5], "Omega": [0.0, 0.5]}),
    ])
    def test_sweep_summary_file_matches_printed(self, tmp_path, capsys, stem, axes):
        doc = tiny_doc(sweep=axes, schedule={"type": "continuous",
                                             "tau_max": 2 * math.pi, "points": 21})
        out = tmp_path / "out"
        code, summary = run_json(capsys, ["sweep", "--config", write_config(tmp_path, doc),
                                          "--output", str(out)])
        assert code == 0
        assert json.loads((out / f"{stem}_summary.json").read_text()) == summary

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

    def test_completed_beta_as_pump_or_complex_repr(self, tmp_path, capsys):
        # a beta value is read as model.pump is, [re, im], or from its complex repr
        doc = tiny_doc(model={"interactions": [[1, 1.0], [2, 0.1]], "cutoff": 12,
                              "pump": [0.0, 0.0], "pump_dim": 12},
                       schedule={"type": "continuous", "tau_max": 0.1, "points": 5},
                       sweep={"beta": [0.0]})
        argv = ["completed", "--config", write_config(tmp_path, doc), "--set"]
        pair, repr_ = (run_json(capsys, argv + [f"sweep.beta={values}"])
                       for values in ("[[0.5, 0.3]]", '["(0.5+0.3j)"]'))
        assert pair[0] == 0
        assert pair == repr_
        assert pair[1]["points"][0]["beta"] == abs(0.5 + 0.3j)

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

    def test_wigner_runs_at_the_ladder_top(self, tmp_path, capsys):
        # like every other command, not at model.cutoff
        def doc(cutoff, ladder):
            return tiny_doc(model={"interactions": [[1, 1.0], [2, 0.1]], "cutoff": cutoff},
                            cutoff_ladder=ladder, diagnostics={"wigner_points": 41})
        laddered, top, plain = (
            run_json(capsys, ["wigner", "--config", write_config(tmp_path, d, name)])[1]
            for name, d in (("laddered", doc(20, [6, 8])), ("top", doc(8, [])),
                            ("plain", doc(20, []))))
        assert laddered == top
        assert laddered["negativity_volume"] != plain["negativity_volume"]

    def test_wigner_on_switch_schedule_at_last_segment_end(self, tmp_path, capsys):
        doc = tiny_doc(schedule={"type": "switch", "segments": [[1, 0.3], [2, 0.4]]},
                       diagnostics={"wigner_points": 41})
        cfg = write_config(tmp_path, doc)
        code, summary = run_json(capsys, ["wigner", "--config", cfg])
        assert code == 0
        run = run_point(load_config(cfg))
        assert summary["tau"] == run.taus[-1] == 0.3 + 0.4
        assert summary["negativity_volume"] == wigner_snapshot(run.trajectory(0.3 + 0.4),
                                                               41)[2]


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

    def test_override_reaches_fields_the_document_leaves_out(self, capsys):
        # fig1 leaves out nu (None), the qubit's unread absorber_dim and the
        # Fock input's unread nbar; each is still a field that --set can reach
        fig1 = str(CONFIGS / "fig1.json")
        code, payload = run_json(capsys, ["evolve", "--config", fig1, "--dry-run",
                                          "--set", "model.nu=0.5"])
        assert code == 0
        assert payload["resolved_config"]["model"]["nu"] == 0.5
        for pair in ("model.absorber_dim=4", "initial.nbar=2"):
            assert dispatch(["evolve", "--config", fig1, "--dry-run", "--set", pair]) == 0
        capsys.readouterr()
        assert dispatch(["evolve", "--config", fig1, "--dry-run",
                         "--set", "model.Delta=1"]) == 2
        assert "'model.Delta' does not exist" in capsys.readouterr().err


class TestExitCodes:
    def test_parse_failure(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert dispatch(["evolve", "--config", str(bad)]) == 2

    def test_missing_config(self, capsys):
        assert dispatch(["evolve", "--config", "/nonexistent.json"]) == 2

    @pytest.mark.parametrize("command, overrides", [
        ("wigner", ["diagnostics.wigner_points=1"]),
        ("evolve", ["schedule.tau_max=-0.5", "model.dephasing_rate=0.1"]),
        ("evolve", ["schedule.tau_max=-0.5"]),
    ], ids=["wigner-points", "dephased-negative-tau", "unitary-negative-tau"])
    def test_out_of_range_value(self, tmp_path, capsys, command, overrides):
        doc = tiny_doc(model={"interactions": [[1, 1.0], [2, 0.1]], "cutoff": 12,
                              "dephasing_rate": 0.0})
        argv = [command, "--config", write_config(tmp_path, doc)]
        for pair in overrides:
            argv += ["--set", pair]
        assert dispatch(argv) == 2

    @pytest.mark.parametrize("override, message", [
        ('model.absorber="oscillator"', "qubit absorber"),
        ("model.interactions=[[1,1.0],[3,0.1]]", "orders 1 and 2"),
    ], ids=["oscillator-absorber", "order-three"])
    def test_pumped_model_constraints_checked_at_load(self, capsys, override, message):
        argv = ["completed", "--config", str(CONFIGS / "appendixD.json"), "--dry-run",
                "--set", override]
        assert dispatch(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("config", ["appendixC_dephasing", "fig1"])
    def test_repeated_output_times_rejected(self, capsys, config):
        # tau_max = 0 with several points asks for the same time more than once
        argv = ["evolve", "--config", str(CONFIGS / f"{config}.json"),
                "--set", "model.cutoff=20", "--set", "cutoff_ladder=[20]",
                "--set", "schedule.tau_max=0", "--set", "schedule.points=3"]
        assert dispatch(argv) == 2
        assert "needs tau_max > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evolve", "wigner"])
    def test_cutoff_override_below_ladder_rejected(self, capsys, command):
        # fig1 runs its ladder (40, 60): model.cutoff=20 alone would be ignored
        argv = [command, "--config", str(CONFIGS / "fig1.json"), "--dry-run",
                "--set", "model.cutoff=20"]
        assert dispatch(argv) == 2
        err = capsys.readouterr().err
        assert "model.cutoff=20" in err and "60" in err
        assert dispatch(argv + ["--set", "cutoff_ladder=[20]"]) == 0
        assert dispatch([command, "--config", str(CONFIGS / "fig1.json"), "--dry-run",
                         "--set", "model.cutoff=60"]) == 0

    @pytest.mark.parametrize("tol", ["-1e-7", "0", "nan"])
    def test_bad_lindblad_tol_fails_dry_run(self, tmp_path, capsys, tol):
        cfg = write_config(tmp_path, tiny_doc())
        assert dispatch(["evolve", "--config", cfg, "--dry-run",
                         "--set", f"lindblad_tol={tol}"]) == 2

    def test_unknown_override(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tiny_doc())
        assert dispatch(["evolve", "--config", cfg, "--set", "bogus.key=1"]) == 2

    @pytest.mark.parametrize("config, override, message", [
        ("fig1", "model.cutoff=1", "factor 'osc' has dimension 1 < 2"),
        ("fig1", "cutoff_ladder=[1, 2]", "cutoffs >= 2, got (1, 2)"),
        ("appendixD", "model.pump_dim=1", "factor 'pump' has dimension 1 < 2"),
        ("appendixC_mw", "model.absorber_dim=1", "factor 'absorber' has dimension 1 < 2"),
    ], ids=["cutoff", "ladder", "pump-dim", "absorber-dim"])
    def test_dimension_below_two_exits_2_at_load(self, capsys, config, override, message):
        argv = ["completed" if config == "appendixD" else "evolve",
                "--config", str(CONFIGS / f"{config}.json"), "--set", override]
        for extra in (["--dry-run"], []):
            assert dispatch(argv + extra) == 2
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_rejected(self, capsys, jobs):
        argv = ["sweep", "--config", str(CONFIGS / "fig4.json"), "--jobs", jobs]
        for extra in (["--dry-run"], []):
            assert dispatch(argv + extra) == 2
            assert f"--jobs must be >= 1, got {jobs}" in capsys.readouterr().err

    @pytest.mark.parametrize("changes, axis, what", [
        (dict(initial={"kind": "thermal", "nbar": 0.5}, sweep={"n": [1, 2, 3]}),
         "n", "a thermal input"),
        (dict(initial={"kind": "thermal", "nbar": 0.5}, sweep={"p": [0.2, 0.8]}),
         "p", "a thermal input"),
        (dict(initial={"kind": "ground"}, sweep={"n": [2], "G": [0.1, 1.0]}),
         "n", "a ground input"),
        (dict(model={"interactions": [[1, 1.0]], "cutoff": 20},
              sweep={"n": [2], "G": [0.1, 1.0]}),
         "G", "a model without interactions of order 1 and of another order"),
        (dict(model={"interactions": [[2, 0.1]], "cutoff": 20},
              sweep={"n": [2], "G": [0.1, 1.0]}),
         "G", "a model without interactions of order 1 and of another order"),
    ], ids=["thermal-n", "thermal-p", "ground-n", "G-linear-only", "G-no-linear"])
    def test_sweep_axis_the_config_ignores_exits_2(self, tmp_path, capsys, changes, axis,
                                                   what):
        # a thermal input reads no n and the p axis would replace it; G scales
        # no coupling without orders 1 and k > 1
        argv = ["sweep", "--config", write_config(tmp_path, tiny_doc(**changes))]
        for extra in (["--dry-run"], []):
            assert dispatch(argv + extra) == 2
            assert f"sweep axis {axis!r} does not apply to {what}" in capsys.readouterr().err

    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["run", "dry-run"])
    def test_segment_order_the_model_lacks_exits_2(self, capsys, dry_run):
        code = dispatch(["switch", "--config", str(CONFIGS / "fig2.json"),
                         "--set", "schedule.segments=[[3, 1.0]]"] + dry_run)
        assert code == 2
        assert "model has no interaction of order 3" in capsys.readouterr().err

    def test_switch_segment_without_duration_exits_2(self, tmp_path, capsys):
        for tau in (0.0, -0.5):
            doc = tiny_doc(schedule={"type": "switch", "segments": [[1, tau], [2, 0.4]]})
            cfg = write_config(tmp_path, doc)
            assert dispatch(["switch", "--config", cfg]) == 2
            assert "strictly positive durations" in capsys.readouterr().err

    @pytest.mark.parametrize("changes, code", [
        (dict(initial={"kind": "fock", "n": 50}), 3),
        (dict(model={"interactions": [[1, 1.0], [2, 0.1]], "cutoff": 12,
                     "dephasing_rate": 0.2}, lindblad_tol=1e-300), 4),
        (dict(schedule={"type": "switch", "segments": [[1, 0.0]]}), 2),
    ], ids=["truncation", "integration", "config"])
    def test_error_names_the_config(self, tmp_path, capsys, changes, code):
        cfg = write_config(tmp_path, tiny_doc(**changes))
        assert dispatch(["evolve", "--config", cfg]) == code
        assert capsys.readouterr().err.startswith(f"error: {cfg}: ")

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


class TestDocumentRejections:
    """Malformed documents exit 2 and name what is wrong; none used to."""

    @pytest.mark.parametrize("document, key", [
        (None, "lindblad_tl"), ("model", "dephasing_rat"), ("initial", "nbr"),
        ("schedule", "point"), ("diagnostics", "wigner_point"), ("model", "Delta"),
    ], ids=["top-level", "model", "initial", "schedule", "diagnostics", "model-Delta"])
    def test_unknown_key(self, tmp_path, capsys, document, key):
        doc = tiny_doc(diagnostics={"wigner": False})
        (doc if document is None else doc[document])[key] = 0.1
        code = dispatch(["evolve", "--config", write_config(tmp_path, doc), "--dry-run"])
        err = capsys.readouterr().err
        assert code == 2
        assert f"unknown key {key!r} in {document or 'the config'}" in err

    @pytest.mark.parametrize("config, override, message", [
        ("fig1", "diagnostics.wigner=False", "diagnostics.wigner must be true or false"),
        ("fig1", "initial.n=5.7", "initial.n must be an integer"),
        ("fig3", "schedule.points=600.9", "schedule.points must be an integer"),
        ("fig4", "sweep.n=[2, 5.7]", "sweep.n must be an integer"),
        ("fig1", "schedule.type=swtich", "schedule type must be continuous|switch"),
        ("fig1", "model.omega=fast", "model.omega must be a number"),
        ("fig1", "model.interactions=[[1, 1.0], [2]]",
         "model.interactions must hold lists [order, coupling]"),
    ], ids=["bool-string", "int-fraction", "points-fraction", "sweep-n-fraction",
            "schedule-type", "float-string", "interaction-row"])
    def test_wrong_type(self, capsys, config, override, message):
        argv = ["sweep", "--config", str(CONFIGS / f"{config}.json"), "--dry-run",
                "--set", override]
        assert dispatch(argv) == 2
        assert message in capsys.readouterr().err

    def test_integral_float_is_an_integer(self, capsys):
        code, payload = run_json(capsys, ["evolve", "--config", str(CONFIGS / "fig1.json"),
                                          "--dry-run", "--set", "initial.n=5.0"])
        assert code == 0
        assert json.dumps(payload["resolved_config"]["initial"]) == '{"kind": "fock", "n": 5}'

    @pytest.mark.parametrize("override", ["schedule=[1]", "initial=5", "model=5",
                                          'diagnostics="x"'])
    def test_sub_document_not_an_object(self, capsys, override):
        argv = ["evolve", "--config", str(CONFIGS / "fig1.json"), "--dry-run",
                "--set", override]
        assert dispatch(argv) == 2
        name = override.split("=")[0]
        assert f"{name} must be a JSON object" in capsys.readouterr().err

    def test_document_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1]")
        assert dispatch(["evolve", "--config", str(path), "--dry-run"]) == 2
        assert "the config must be a JSON object" in capsys.readouterr().err
