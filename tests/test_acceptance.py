"""Acceptance suite: every exit criterion at its stated tolerance, driven by
the bundled scenario configs.

Run with `pytest tests/test_acceptance.py -v -s` (expect 15-25 minutes).
One line per criterion is printed.  Two criteria do not pass (details in
README):

* 7a encodes a stated rate that contradicts its target and is expected to
  fail by design once the integration completes: the shared dephasing
  fixture runs to the end and measures max C = 0.569 at tau = 0.409.  7b
  passes on the same run.
* 10 fails by design: the pumped completion's deviation from the two-body
  model bottoms out near 0.34 at |beta| = 4-5 and grows again beyond (README
  tabulates it to |beta| = 8), so the stated 10% match is out of reach; its
  failure message carries the measured deviations.

Criterion 8 passes on the thermal ladder [110, 120]; a ladder starting at
cutoff 100 trips the thermal tail guard.
"""

from dataclasses import replace
import math
import pathlib
import time

import numpy as np
import pytest

from cohabs import evolution, experiments, models, observables, states
from cohabs.experiments import (ScenarioConfig, ScheduleSpec, SwitchSegment, load_config,
                                run_point, run_scenario, sweep)
from cohabs.hilbert import partial_trace
from cohabs.models import Interaction, ModelSpec
from cohabs.states import InitialStateSpec
import oracles

pytestmark = pytest.mark.acceptance

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"
JOBS = 2
TWO_PI = 2 * math.pi


def report(num: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def osc_density(state):
    return partial_trace(state, "osc").density()


def switch(config, segments):
    """The config with a switch schedule of (order, tau) segments."""
    return replace(config, schedule=ScheduleSpec(type="switch", segments=tuple(
        SwitchSegment(k, tau) for k, tau in segments)))


# ---------------------------------------------------------------------------
# shared heavy runs

@pytest.fixture(scope="session")
def fig3_run():
    cfg = load_config(CONFIGS / "fig3.json")
    t0 = time.monotonic()
    run = run_scenario(cfg)
    run.extras["elapsed_seconds"] = time.monotonic() - t0
    return run


@pytest.fixture(scope="session")
def bars_result():
    cfg = load_config(CONFIGS / "fig4.json")
    return sweep(cfg, jobs=JOBS)


@pytest.fixture(scope="session")
def landscape_result():
    cfg = load_config(CONFIGS / "appendixB.json")
    return sweep(cfg, jobs=JOBS)


@pytest.fixture(scope="session")
def dephasing_run():
    cfg = load_config(CONFIGS / "appendixC_dephasing.json")
    # run_point: the series and trajectory alone, without run_scenario's
    # Wigner grids at the half-max and max times, which neither test reads
    run = run_point(cfg)
    # oscillator states at the half-max time and two later samples
    taus = [run.tau_at_half,
            0.5 * (run.tau_at_half + float(run.taus[-1])),
            float(run.taus[-1])]
    negs = []
    for rho in map(run.trajectory, taus):
        grid = observables.wigner(
            rho, observables.WignerGridSpec.for_state(rho, points=201))
        negs.append(observables.negativity_volume(grid))
    run.extras["negativity_taus"] = taus
    run.extras["negativity_volumes"] = negs
    return run


# ---------------------------------------------------------------------------
# criteria

def test_criterion_1_long_time_headline(fig3_run):
    run = fig3_run
    checks = [
        abs(run.max_coherence - 4.0) <= 0.4,
        abs(run.tau_at_max - 3.32) <= 0.1,
        abs(run.tau_at_half - 0.95) <= 0.1,
        run.extras["elapsed_seconds"] < 120.0,
    ]
    report("1", all(checks),
           f"max C={run.max_coherence:.3f} (target 4+-0.4) at tau={run.tau_at_max:.3f} "
           f"(3.32+-0.1); half-max at tau={run.tau_at_half:.3f} (0.95+-0.1); "
           f"elapsed {run.extras['elapsed_seconds']:.0f}s (<120s)")
    assert all(checks)


def test_criterion_2_switching():
    cfg = load_config(CONFIGS / "fig2.json")
    run = run_scenario(cfg)
    c_switch = run.records[-1].coherence

    c1, c2 = (run_point(switch(cfg, [(k, 1.57)])).records[-1].coherence for k in (1, 2))

    ok = abs(c_switch - 0.70) <= 0.07 and c1 < 1e-9 and c2 < 1e-9
    report("2", ok, f"switch C={c_switch:.4f} (0.70+-0.07); single-interaction "
                    f"baselines C={c1:.2e}, {c2:.2e} (<1e-9)")
    assert ok


def test_criterion_3_short_time_symmetry_breaking():
    cfg = load_config(CONFIGS / "fig1.json")
    run = run_scenario(cfg)
    c_final = run.records[-1].coherence

    spec = cfg.model
    psi0 = states.make_state(cfg.initial, spec.layout())
    t_final = 0.157 / spec.tau_scale()
    radii = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]

    combined = models.build_hamiltonian(spec)
    rho_c = osc_density(evolution.HamiltonianPropagator(combined).state_at(psi0, t_final))
    asym_combined = observables.radial_asymmetry(rho_c, radii)

    asym_single = []
    for k in (1, 2):
        h = models.build_hamiltonian(ModelSpec(interactions=(Interaction(k, spec.coupling(k)),),
                                               cutoff=spec.cutoff))
        rho_k = osc_density(evolution.HamiltonianPropagator(h).state_at(psi0, t_final))
        asym_single.append(observables.radial_asymmetry(rho_k, radii))

    ok = (abs(c_final - 0.08) <= 0.02 and asym_combined > 2e-3
          and max(asym_single) < 2e-3)
    report("3", ok, f"C(tau=0.157)={c_final:.4f} (0.08+-0.02); radial asymmetry "
                    f"combined={asym_combined:.2e} (>2e-3), single-interaction "
                    f"max={max(asym_single):.2e} (<2e-3)")
    assert ok


def test_criterion_4_energy_rise_and_saturating_bars(fig3_run, bars_result):
    idx_max = int(np.argmax([r.coherence for r in fig3_run.records]))
    rec_max = fig3_run.records[idx_max]
    rec_zero = fig3_run.records[0]

    by_n = {p.coords["n"]: p for p in bars_result.points}
    maxima = {n: by_n[n].max_coherence for n in by_n}
    monotone = all(maxima[n] <= maxima[n + 1] + 1e-9 for n in range(1, 7))
    saturated = all(abs(maxima[n] - maxima[7]) / maxima[7] <= 0.10 for n in (8, 9, 10))
    shell = by_n[7].extras["shell_removed_coherence"]

    checks = [rec_max.mean_n > 7.0, rec_max.std_n > rec_zero.std_n,
              rec_zero.std_n == 0.0, monotone, saturated,
              shell > 0.5 * maxima[7]]
    report("4", all(checks),
           f"mean_N@max={rec_max.mean_n:.1f} (>7), std_N@max={rec_max.std_n:.1f} "
           f"(>0); bars monotone n=1..7: {monotone}; saturation n=8..10: {saturated}; "
           f"shell-removed C={shell:.2f} > 0.5 x {maxima[7]:.2f}")
    assert all(checks)


def test_criterion_5_coupling_ratio_landscape(landscape_result):
    result = landscape_result
    ratios = result.axes["G"]
    argmax = result.argmax["ratio_argmax_at_pi"]
    i_ref = ratios.index(0.1)
    within_step = all(
        abs(ratios.index(argmax[str(n)]) - i_ref) <= 1 for n in result.axes["n"])

    oscillatory = all(
        p.extras["local_maxima"] >= 3
        for p in result.points if p.coords["G"] == 10.0)

    ok = within_step and oscillatory
    report("5", ok, f"argmax-G at tau=pi per n: {argmax} (within one grid step of "
                    f"0.1); G=10 traces all show >=3 local maxima: {oscillatory}")
    assert ok


def test_criterion_6_weak_coupling():
    run = run_scenario(load_config(CONFIGS / "appendixC_weak.json"))
    value_ok = abs(run.max_coherence - 3.5) <= 0.35

    scan_cfg = load_config(CONFIGS / "appendixC_weakscan.json")
    scan = sweep(scan_cfg, jobs=JOBS)
    enhanced = scan.argmax["enhanced_points"]

    ok = value_ok and len(enhanced) > 0
    report("6", ok, f"free-motion C={run.max_coherence:.3f} (3.5+-0.35); "
                    f"{len(enhanced)} grid points beat the interaction-only "
                    f"baseline {scan.argmax['interaction_only_baseline']:.3f} at n=4")
    assert ok


def test_criterion_7a_dephasing_value(dephasing_run):
    # Stated parameters: gamma = 0.1 g1 with the number-dephasing jump operator.
    # Known-failing: this rate suppresses the coherence far below the target;
    # the target C=2.12 is reproduced by gamma ~= 1e-3 g1 instead (see notes).
    run = dephasing_run
    ok = abs(run.max_coherence - 2.12) <= 0.5
    report("7a", ok,
           f"dephasing max C={run.max_coherence:.3f} vs target 2.12+-0.5 at the "
           f"stated rate 0.1*g1 (rate ~1e-3*g1 reproduces 2.18)")
    assert ok, (
        f"measured max C={run.max_coherence:.4f} at gamma=0.1*g1; the stated "
        f"rate and the stated target are mutually inconsistent (gamma=1e-3*g1 "
        f"yields 2.18, inside the band)")


def test_criterion_7b_dephasing_negativity(dephasing_run):
    taus = dephasing_run.extras["negativity_taus"]
    negs = dephasing_run.extras["negativity_volumes"]
    present = negs[0] > 0.0
    decreasing = all(negs[i + 1] <= negs[i] + 1e-3 for i in range(len(negs) - 1))
    ok = present and decreasing
    report("7b", ok, "negativity at sampled taus "
           + ", ".join(f"{t:.2f}: {v:.4f}" for t, v in zip(taus, negs))
           + " (present at half-max, non-increasing)")
    assert ok


def test_criterion_8_classical_inputs():
    thermal = run_scenario(load_config(CONFIGS / "appendixC_thermal.json"))
    neg_max = thermal.extras["wigner_max"]["negativity_volume"]
    pr = run_scenario(load_config(CONFIGS / "appendixC_prcoherent.json"))

    checks = [abs(thermal.max_coherence - 0.86) <= 0.15, neg_max > 0.0,
              abs(pr.max_coherence - 1.9) <= 0.3]
    report("8", all(checks),
           f"thermal nbar=7: C={thermal.max_coherence:.3f} (0.86+-0.15), "
           f"negativity@max={neg_max:.3f} (>0); phase-randomized coherent: "
           f"C={pr.max_coherence:.3f} (1.9+-0.3)")
    assert all(checks)


def test_criterion_9_ground_state_admixtures():
    cfg = load_config(CONFIGS / "appendixE.json")
    result = sweep(cfg, jobs=JOBS)
    by_p = {round(p.coords["p"], 2): p for p in result.points}
    targets = {0.25: 3.02, 0.5: 2.02, 0.75: 1.00}
    tau_ref = by_p[0.0].tau_at_max

    value_ok = all(abs(by_p[p].max_coherence - c) <= 0.3 for p, c in targets.items())
    time_ok = all(abs(by_p[p].tau_at_max - tau_ref) <= 0.2 for p in targets)
    ok = value_ok and time_ok
    report("9", ok, "admixture max C: "
           + ", ".join(f"p={p}: {by_p[p].max_coherence:.3f} (target {c}+-0.3)"
                       for p, c in targets.items())
           + f"; max-coherence taus within 0.2 of p=0 ({tau_ref:.3f}): {time_ok}")
    assert ok


def test_criterion_10_pumped_completion():
    cfg = load_config(CONFIGS / "appendixD.json")
    result = sweep(cfg, jobs=1)
    by_beta = {p.coords["beta"]: p for p in result.points}

    flat = by_beta[0.0]
    passive_ok = max(r.coherence for r in flat.records) < 1e-6

    largest = max(b for b in by_beta if b > 0)
    deviation = by_beta[largest].extras["effective_trace_deviation"]
    match_ok = deviation <= 0.10

    tau_idx = int(np.argmin(np.abs(flat.taus - 0.2)))
    ladder = sorted(b for b in by_beta if b > 0)
    cs = [by_beta[b].records[tau_idx].coherence for b in ladder]
    monotone_ok = all(cs[i] < cs[i + 1] + 1e-9 for i in range(len(cs) - 1))

    report("10", passive_ok and match_ok and monotone_ok,
           f"beta=0 passive: max C={max(r.coherence for r in flat.records):.1e} "
           f"(<1e-6); effective-model trace deviation at beta={largest}: "
           f"{deviation:.2f} (<=0.10); C monotone in beta at tau=0.2: {monotone_ok}")
    assert passive_ok and monotone_ok
    # Known-failing clause: the pump trace-out decoheres the reduced state, so
    # the pointwise match to the pump-scaled two-body model stays far from 10%
    # at every amplitude measured (0.34 at best, at |beta| = 4-5; README).
    assert match_ok, (
        f"effective-model trace deviation {deviation:.3f} > 0.10 at beta={largest}; "
        f"measured 0.64/0.40/0.39/0.34 for beta=1/2/3/5 (slow pump-decoherence "
        f"limit), so the stated 10% bound is unreachable at desk-scale cutoffs")


def test_criterion_11_property_suite():
    checks = {}

    # ladder commutator identity except the top level, on the ladder matrices
    # every Hamiltonian term is built from
    def ladder(dim):
        rows, cols, values = models._ladder(dim)
        out = np.zeros((dim, dim))
        out[rows, cols] = values
        return out

    bb = ladder(40)
    comm = bb @ bb.T - bb.T @ bb
    expected = np.eye(40)
    expected[-1, -1] = -39.0
    checks["ladder_commutator"] = np.max(np.abs(comm - expected)) < 1e-12

    sm = ladder(2)
    sp = sm.T
    checks["pauli_algebra"] = (np.array_equal(sp @ sm - sm @ sp, np.diag([-1.0, 1.0]))
                               and np.all(sp @ sp == 0))

    spec = ModelSpec(interactions=(Interaction(1, 1.0), Interaction(2, 0.1)),
                     cutoff=20)
    h0 = models.build_hamiltonian(ModelSpec(interactions=(Interaction(1, 0.0),),
                                            omega=1.0, Omega=2.4, cutoff=20)).entries
    v = models.build_hamiltonian(ModelSpec(interactions=(Interaction(1, 1.0),),
                                           cutoff=20)).entries
    ref = oracles.frustration_commutator(1, 1.0, 1.0, 2.4, 20)
    keep = np.ones(40, bool)
    keep[19] = keep[39] = False
    checks["frequency_residual"] = np.max(np.abs(
        (h0 @ v - v @ h0 - ref)[np.ix_(keep, keep)])) < 1e-10

    psi0 = states.make_state(InitialStateSpec("fock", n=7), spec.layout())
    fock7 = ScenarioConfig(model=spec, initial=InitialStateSpec("fock", n=7))
    seq = []
    experiments._evolve(switch(fock7, [(1, 1.57), (2, 1.57)]), 20, None, seq.append, {})
    checks["switch_amplitudes"] = np.max(np.abs(
        oracles.switch_ket(7, 1.0, 0.1, 15.7, 20) - seq[-1].true_kets())) < 1e-9

    prop = evolution.HamiltonianPropagator(models.build_hamiltonian(spec))
    expansion = prop.expand(psi0)
    evolved = [prop.state_at(expansion, t) for t in np.linspace(0.0, 15.0, 16)]
    checks["unitarity"] = all(abs(np.linalg.norm(s.kets) - 1) < 1e-10 for s in evolved)
    red = partial_trace(evolved[-1], "osc")
    checks["reduced_hermitian_unit_trace"] = (
        abs(np.trace(red.density()) - 1) < 1e-12
        and np.max(np.abs(red.density() - red.density().conj().T)) < 1e-12)

    vac = np.zeros((10, 10), complex)
    vac[0, 0] = 1.0
    grid = observables.wigner(vac, observables.WignerGridSpec(6.0, 121))
    checks["wigner_normalization"] = abs(grid.normalization_integral - 1.0) <= 0.02

    f1 = np.zeros((10, 10), complex)
    f1[1, 1] = 1.0
    neg = observables.negativity_volume(
        observables.wigner(f1, observables.WignerGridSpec(6.0, 201)))
    checks["fock1_negativity"] = abs(neg - 0.213) <= 0.01

    # the two-segment protocol cannot exceed ln 2, pinning the natural log
    best = max(run_point(switch(fock7, [(1, 0.1 * t), (2, 0.1 * t)])).records[-1].coherence
               for t in np.linspace(0.125, 40.0, 320))
    checks["ln2_switching_bound"] = 0.6 <= best <= math.log(2) + 1e-9

    ok = all(checks.values())
    report("11", ok, "; ".join(f"{k}={'ok' if v else 'FAIL'}"
                               for k, v in checks.items()))
    assert ok, checks


def test_criterion_12_determinism(tmp_path):
    cfg = load_config(CONFIGS / "fig1.json")
    run_scenario(cfg, output_dir=str(tmp_path / "a"))
    run_scenario(cfg, output_dir=str(tmp_path / "b"))
    files = ["config.json", "series.csv", "summary.json",
             "wigner_max.txt", "wigner_max.csv", "wigner_half.txt"]
    same = {f: (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
            for f in files}
    report("12", all(same.values()),
           "byte-identical artifacts: " + ", ".join(sorted(same)))
    assert all(same.values())


@pytest.mark.slow
def test_unsaturable_absorber_reduces_coherence(fig3_run):
    # mixer variant of the headline run; qualitative comparison only
    cfg = load_config(CONFIGS / "appendixC_mw.json")
    run = run_scenario(cfg)
    ok = run.max_coherence < fig3_run.max_coherence
    report("mixer", ok, f"unsaturable-absorber max C={run.max_coherence:.3f} < "
                        f"qubit-absorber {fig3_run.max_coherence:.3f}")
    assert ok
