"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json

import pytest

import checks
import run
import tracing
import workloads

cli, experiments = run.import_program()
from cohabs.errors import StateError  # noqa: E402  (needs the path set by import_program)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    assert workloads.generate(name, 11).inputs() == workloads.generate(name, 11).inputs()


@pytest.mark.parametrize("name", ["fock_wigner", "admixture_sweep", "thermal_evolve",
                                  "pumped"])
def test_seed_changes_physical_parameters_only(name):
    works = [workloads.generate(name, seed) for seed in range(1, 11)]
    assert len({w.inputs() for w in works}) > 1
    assert len({json.dumps(w.document, sort_keys=True) for w in works}) == 1
    assert len({(w.command, w.jobs, w.points) for w in works}) == 1


def test_default_seed_reproduces_shipped_values():
    assert workloads.generate("fock_wigner", 0).overrides == ("initial.n=7",)
    assert workloads.generate("admixture_sweep", 0).overrides == ("sweep.p=[0.25, 0.5, 0.75]",)
    assert workloads.generate("thermal_evolve", 0).overrides == ("initial.nbar=7.0",)
    assert workloads.generate("pumped", 0).overrides == ("sweep.beta=[0.0, 1.0, 3.0]",)
    window, full = workloads.generate("dephasing_window", 0), workloads.generate("dephasing", 0)
    assert window.document["model"] == full.document["model"]
    assert window.document["lindblad_tol"] == full.document["lindblad_tol"]
    assert window.document["schedule"]["tau_max"] < 0.325 < full.document["schedule"]["tau_max"]


def test_every_benchmark_workload_passes_dry_run(tmp_path):
    with open(run.ROOT / "BENCHMARK.json") as fh:
        listed = [w["name"] for w in json.load(fh)["workloads"]]
    assert listed == [n for n, f in workloads.WORKLOADS.items() if f(0).in_benchmark]
    for name in workloads.WORKLOADS:
        (tmp_path / name).mkdir()
        run.prepare(cli, workloads.generate(name, 7), tmp_path / name)


def _span(name, start, end, parent=None):
    return tracing.Span(name, start, end, parent, 0, 0)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("b", 3.0, 6.0, parent=0),      # overlaps a, as a sweep thread would
        _span("a.child", 2.0, 3.0, parent=1),
        _span("late", 9.0, 12.0, parent=0),  # counts only inside its parent
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_operation_metrics_on_a_synthetic_tree():
    spans = [
        _span("cli.dispatch", 0.0, 10.0),
        _span("experiments.admixture_sweep", 1.0, 9.0, parent=0),
        _span("experiments.run_point", 1.0, 6.0, parent=1),
        _span("experiments.run_point", 2.0, 8.0, parent=1),
        _span("observables.diagnose", 2.0, 5.0, parent=2),
        _span("evolution.eigh", 1.0, 2.0, parent=2),
        _span("evolution.eigh", 2.0, 3.0, parent=3),
    ]
    spans[5].attrs.update(dim=4, bytes=256, model="h")
    spans[6].attrs.update(dim=4, bytes=256, model="h")
    m = tracing.operation_metrics(spans, tracing.self_times(spans), wall=10.0)
    assert m["observables.diagnose.calls"] == 1
    assert m["observables.diagnose.s"] == pytest.approx(3.0)
    assert m["experiments.cache.eigh_per_model"] == 2.0
    assert m["evolution.eigh.bytes"] == 512
    assert m["experiments.sweep.concurrency"] == pytest.approx(11.0 / 8.0)
    assert m["cli.dispatch.s"] == pytest.approx(2.0)
    assert m["trace.coverage"] == pytest.approx(0.5)


def test_tracer_restores_patches_and_reports_absent_layers():
    import cohabs.observables as observables
    original = observables.diagnose
    tracer = tracing.Tracer()
    targets = (("observables.diagnose", "cohabs.observables", "diagnose", None),
               ("gone.layer", "cohabs.observables", "no_such_function", None))
    tracer.install(targets)
    assert observables.diagnose is not original
    observables.diagnose([[1.0, 0.0], [0.0, 0.0]])
    tracer.uninstall()
    assert observables.diagnose is original
    assert tracer.absent_layers(targets) == ["gone.layer"]
    assert [s.name for s in tracer.spans] == ["observables.diagnose"]


def test_every_listed_layer_metric_is_computed():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        listed = {m["name"] for m in json.load(fh)["per_layer"]}
    computed = set(tracing.operation_metrics([], [], 1.0)) | {"cli.artifact_bytes",
                                                             "trace.overhead"}
    assert listed <= computed


def _tiny_workload():
    doc = workloads._document("tiny", 20, {"kind": "fock", "n": 2}, 5, tau_max=0.5)
    return workloads.Workload("tiny", "evolve", doc, (), 1, 5, expected_leakage=False)


def test_injected_failure_is_counted_not_retried(tmp_path, monkeypatch):
    work = _tiny_workload()
    config = run.prepare(cli, work, tmp_path)
    real = cli.dispatch
    calls = []

    def flaky(argv):
        calls.append(argv)
        if len(calls) == 2:
            raise StateError("injected")
        return real(argv)

    monkeypatch.setattr(cli, "dispatch", flaky)
    results = [run.run_operation(cli, experiments, work, config, tmp_path / f"op{i}",
                                 None, op=i) for i in range(3)]
    assert len(calls) == 3
    assert [r["ok"] for r in results] == [True, False, True]
    assert "injected" in results[1]["error"]
    e2e = run.end_to_end(results, [0.5])
    assert e2e["failed_share"] == pytest.approx(1.0 / 3.0)
    assert e2e["points_per_s"] == pytest.approx(
        10 / sum(r["wall_s"] for r in results))
    line = run.result_line(results, e2e, [{"name": "wall_s", "unit": "s"}])
    assert line["correct"] is False and line["failed"] == 1 and line["attempted"] == 3
    assert run.result_line(results[:1], e2e, [])["correct"] is True


def test_exit_code_and_failed_check_count_as_failures(tmp_path, monkeypatch):
    work = _tiny_workload()
    config = run.prepare(cli, work, tmp_path)
    monkeypatch.setattr(cli, "dispatch", lambda argv: 4)
    failed_exit = run.run_operation(cli, experiments, work, config, tmp_path / "a", None)
    monkeypatch.undo()
    wrong = {"0.max_coherence": -1.0}
    failed_check = run.run_operation(cli, experiments, work, config, tmp_path / "b", wrong)
    assert not failed_exit["ok"] and failed_exit["error"].startswith("exit 4")
    assert not failed_check["ok"] and failed_check["problems"]
    assert run.end_to_end([failed_exit, failed_check], [0.5])["failed_share"] == 1.0
    assert not run.result_line([failed_exit], {}, [])["correct"]


def test_checks_flag_broken_invariants():
    summary = {"max_coherence": float("nan"), "half_coherence": 0.1, "tau_at_max": 1.0,
               "leakage_flag": True,
               "wigner_max": {"normalization_integral": 0.9, "negativity_volume": 0.1}}
    problems = checks.check_summary(summary, expected_leakage=False)
    assert len(problems) == 3
    assert checks.check_summary({"max_coherence": 1.0, "leakage_flag": False},
                                expected_leakage=True)
