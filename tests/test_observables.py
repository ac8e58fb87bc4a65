import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
import scipy.linalg
from scipy.integrate import quad

from cohabs import observables
from cohabs.errors import ShellRemovalError, StateError
from cohabs.evolution import HamiltonianPropagator
from cohabs.hilbert import KetEnsemble, QuantumState, SpaceLayout, abs2, partial_trace
from cohabs.models import Interaction, ModelSpec, build_hamiltonian
from cohabs.observables import (WignerGrid, WignerGridSpec,
                                coherence, diagnose, excitation_stats,
                                load_wigner_text, negativity_volume,
                                quadrature_stats, radial_asymmetry,
                                remove_gaussian_shell, save_wigner_csv,
                                save_wigner_text, von_neumann_entropy, wigner,
                                wigner_values)
from cohabs.states import (InitialStateSpec, coherent_amplitudes, make_state,
                           thermal_populations)
from conftest import random_density, random_ket, random_kets


def fock_dm(n, dim):
    rho = np.zeros((dim, dim), complex)
    rho[n, n] = 1.0
    return rho


def direct_wigner(rho, x, p):
    """Independent displaced-parity evaluation via scipy special functions."""
    from scipy.special import eval_genlaguerre, gammaln
    beta = math.sqrt(2) * (np.asarray(x, float) + 1j * np.asarray(p, float))
    big_b = np.abs(beta) ** 2
    total = np.zeros_like(beta)
    dim = rho.shape[0]
    for m in range(dim):
        for n in range(dim):
            if n >= m:
                d = (math.sqrt(math.exp(gammaln(m + 1) - gammaln(n + 1)))
                     * beta ** (n - m) * np.exp(-big_b / 2)
                     * eval_genlaguerre(m, n - m, big_b))
            else:
                d = (math.sqrt(math.exp(gammaln(n + 1) - gammaln(m + 1)))
                     * (-np.conj(beta)) ** (m - n) * np.exp(-big_b / 2)
                     * eval_genlaguerre(n, m - n, big_b))
            total += rho[m, n] * (-1) ** m * d
    return total.real / math.pi


def top_level_population(state) -> float:
    """The reference leakage: the population of the top 5 oscillator levels,
    summed over the whole composite space of a KetEnsemble or QuantumState."""
    axis, dims = state.layout.axis("osc"), state.layout.dims
    probs = (abs2(state.kets).sum(axis=1) if isinstance(state, KetEnsemble)
             else np.real(np.diagonal(state.data)))
    pops = probs.reshape(dims).sum(axis=tuple(i for i in range(len(dims)) if i != axis))
    return float(pops[-min(5, dims[axis]):].sum())


def superpose(dim, *pairs):
    vec = np.zeros(dim, complex)
    for idx, amp in pairs:
        vec[idx] = amp
    vec /= np.linalg.norm(vec)
    return np.outer(vec, vec.conj())


class TestEntropies:
    def test_pure_state_zero(self, rng):
        psi = random_ket(rng, 9)
        assert von_neumann_entropy(np.outer(psi, psi.conj())) == pytest.approx(0.0, abs=1e-10)

    def test_maximally_mixed_qubit(self):
        assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(math.log(2))

    def test_thermal_entropy_formula(self):
        nbar = 7.0
        rho = np.diag(thermal_populations(nbar, 120)).astype(complex)
        expected = (nbar + 1) * math.log(nbar + 1) - nbar * math.log(nbar)
        assert von_neumann_entropy(rho) == pytest.approx(expected, abs=1e-2)

    def test_invalid_state_rejected(self):
        with pytest.raises(StateError):
            von_neumann_entropy(np.diag([1.5, -0.5]).astype(complex))


class TestCoherence:
    def test_fock_diagonal_is_zero(self, rng):
        pops = rng.random(12)
        rho = np.diag(pops / pops.sum()).astype(complex)
        assert coherence(rho) == 0.0

    def test_equal_superposition_ln2(self):
        assert coherence(superpose(6, (0, 1.0), (1, 1.0))) == pytest.approx(math.log(2), abs=1e-12)

    def test_invariant_under_phase_diagonal_unitaries(self, rng):
        rho = random_density(rng, 10)
        base = coherence(rho)
        for _ in range(5):
            phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 10))
            rotated = (phases[:, None] * rho) * phases.conj()[None, :]
            assert coherence(rotated) == pytest.approx(base, abs=1e-9)

    def test_bounded_by_log_rank(self, rng):
        for dim in (4, 9):
            rho = random_density(rng, dim)
            assert coherence(rho) <= math.log(dim) + 1e-9

    @pytest.mark.parametrize("read", [diagnose, coherence], ids=["diagnose", "coherence"])
    def test_floor_guards_the_series(self, monkeypatch, read):
        # populations (1/2, 1/2, 0, 0) against a flat four-level spectrum give
        # S(diag) - S(rho) = ln 2 - ln 4, far below COHERENCE_FLOOR: the series
        # (`diagnose`) must raise as `coherence` does, not clamp it to 0
        rho = KetEnsemble(SpaceLayout.single("osc", 4), math.sqrt(0.5) * np.eye(4)[:, :2])
        monkeypatch.setattr(observables, "_spectrum", lambda rho: np.full(4, 0.25))
        with pytest.raises(StateError, match="below the numerical floor"):
            read(rho)


class TestMoments:
    def test_fock_excitation_stats(self):
        mean, std = excitation_stats(fock_dm(5, 12))
        assert (mean, std) == (5.0, 0.0)

    def test_thermal_excitation_stats(self):
        nbar = 3.0
        rho = np.diag(thermal_populations(nbar, 80)).astype(complex)
        mean, std = excitation_stats(rho)
        assert mean == pytest.approx(nbar, abs=1e-6)
        assert std == pytest.approx(math.sqrt(nbar ** 2 + nbar), abs=1e-4)

    def test_mean_matches_operator_trace(self, rng):
        rho = random_density(rng, 10)
        n_op = np.diag(np.arange(10.0))
        mean, _ = excitation_stats(rho)
        assert mean == pytest.approx(np.einsum("ij,ji->", rho, n_op).real, abs=1e-12)

    def test_vacuum_quadratures(self):
        means, cov = quadrature_stats(fock_dm(0, 8))
        assert np.allclose(means, 0.0, atol=1e-14)
        assert np.allclose(cov, np.diag([0.5, 0.5]), atol=1e-14)

    def test_fock_quadratures_rotation_symmetric(self):
        means, cov = quadrature_stats(fock_dm(4, 12))
        assert np.allclose(means, 0.0, atol=1e-14)
        assert np.allclose(cov, np.diag([4.5, 4.5]), atol=1e-12)

    def test_coherent_state_displaced_vacuum(self):
        amp = coherent_amplitudes(1.0, 40)
        means, cov = quadrature_stats(np.outer(amp, amp.conj()))
        assert means[0] == pytest.approx(math.sqrt(2), abs=1e-9)
        assert means[1] == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(cov, np.diag([0.5, 0.5]), atol=1e-8)

    def test_heisenberg_bound(self, rng):
        for _ in range(5):
            _, cov = quadrature_stats(random_density(rng, 12))
            assert np.linalg.det(cov) >= 0.25 - 1e-9

    def test_diagnose_bundle(self, rng):
        rho = random_density(rng, 8)
        rec = diagnose(rho)
        assert rec.coherence >= 0.0
        assert rec.std_n >= 0.0
        assert rec.cov_xx * rec.cov_pp - rec.cov_xp ** 2 >= 0.25 - 1e-9
        assert "," in rec.csv_row()


class TestShellRemoval:
    def test_coherent_state_reduces_to_vacuum(self):
        amp = coherent_amplitudes(1.2 + 0.4j, 50)
        rho = remove_gaussian_shell(np.outer(amp, amp.conj()))
        assert rho[0, 0].real == pytest.approx(1.0, abs=1e-6)
        assert coherence(rho) < 1e-5

    def test_fock_state_is_fixed_point(self):
        rho0 = fock_dm(4, 20)
        rho = remove_gaussian_shell(rho0)
        assert np.allclose(rho, rho0, atol=1e-12)

    def test_rotated_squeezed_vacuum_reduces_to_vacuum(self):
        import scipy.linalg
        dim = 60
        b = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
        b2 = b @ b
        squeeze = scipy.linalg.expm(0.4 * (b2 - b2.conj().T) / 2)
        rot = np.diag(np.exp(-1j * 0.7 * np.arange(dim)))
        disp = scipy.linalg.expm(0.8 * b.conj().T - 0.8 * b)
        vec = disp @ rot @ squeeze @ np.eye(dim)[:, 0]
        rho = remove_gaussian_shell(np.outer(vec, vec.conj()))
        assert rho[0, 0].real == pytest.approx(1.0, abs=1e-4)

    def test_residual_targets_met(self, rng):
        rho = np.zeros((48, 48), complex)
        rho[:12, :12] = random_density(rng, 12)
        out = remove_gaussian_shell(rho)
        means, cov = quadrature_stats(out)
        assert np.max(np.abs(means)) < 1e-6
        assert abs(cov[0, 0] - cov[1, 1]) < 1e-6
        assert abs(cov[0, 1]) < 1e-6

    def test_preserves_negativity_volume(self, rng):
        # Gaussian operations cannot create or destroy Wigner negativity
        rho = 0.7 * fock_dm(1, 40) + 0.3 * fock_dm(0, 40)
        amp = coherent_amplitudes(0.5, 40)
        disp = np.outer(amp, amp.conj())
        mixed = 0.5 * rho + 0.5 * disp
        before = negativity_volume(wigner(mixed, WignerGridSpec(7.0, 161)))
        after = negativity_volume(wigner(remove_gaussian_shell(mixed),
                                         WignerGridSpec(7.0, 161)))
        assert after == pytest.approx(before, abs=0.01)

    def test_stall_reports_partial_result(self):
        amp = coherent_amplitudes(1.5, 60)
        with pytest.raises(ShellRemovalError) as err:
            remove_gaussian_shell(np.outer(amp, amp.conj()), max_rounds=0)
        assert err.value.residuals


class TestWigner:
    def test_vacuum_peak(self):
        grid = wigner(fock_dm(0, 10), WignerGridSpec(6.0, 121))
        assert grid.values[60, 60] == pytest.approx(1 / math.pi, abs=1e-12)
        assert grid.normalization_integral == pytest.approx(1.0, abs=0.02)

    def test_single_quantum_negative_at_origin(self):
        grid = wigner(fock_dm(1, 10), WignerGridSpec(6.0, 121))
        assert grid.values[60, 60] == pytest.approx(-1 / math.pi, abs=1e-12)

    def test_matches_direct_laguerre_formula(self, rng):
        rho = random_density(rng, 7)
        for x, p in [(0.0, 0.0), (0.8, -0.3), (-1.7, 2.2), (3.0, 1.0)]:
            mine = wigner_values(rho, np.array([x]), np.array([p]))[0]
            assert mine == pytest.approx(direct_wigner(rho, x, p), abs=1e-10)

    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 10),
           extent=st.floats(0.5, 4.0), lo=st.floats(-4.0, -0.1),
           hi=st.floats(0.1, 4.0), nx=st.integers(2, 9), np_=st.integers(2, 9))
    def test_full_grids_match_direct_formula(self, seed, dim, extent, lo, hi, nx, np_):
        # whole grids (symmetric, asymmetric, non-square), each through the origin
        rho = random_density(np.random.default_rng(seed), dim)
        grids = [(np.linspace(-extent, extent, 2 * nx + 1),) * 2,
                 (np.linspace(lo, hi, nx), np.linspace(-hi, -lo, nx)),
                 (np.linspace(lo, hi, nx), np.linspace(lo, extent, np_))]
        for x_axis, p_axis in grids:
            x_mesh, p_mesh = np.meshgrid(np.union1d(x_axis, 0.0), np.union1d(p_axis, 0.0))
            mine = wigner_values(rho, x_mesh, p_mesh)
            assert mine.shape == x_mesh.shape
            assert np.max(np.abs(mine - direct_wigner(rho, x_mesh, p_mesh))) <= 1e-12
        # the rectangular grid, all of whose x +- y share one lattice
        grid = wigner(rho, WignerGridSpec(extent, 2 * nx + 1))
        x_mesh, p_mesh = np.meshgrid(grid.x, grid.p)
        assert np.max(np.abs(grid.values - direct_wigner(rho, x_mesh, p_mesh))) <= 1e-12

    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(2, 30),
           rank=st.integers(1, 4), extent=st.floats(1.0, 12.0), points=st.integers(2, 41))
    def test_ensemble_and_density_grids_agree(self, seed, dim, rank, extent, points):
        # kets used directly against the eigendecomposition of rho = Phi Phi^dag
        kets = np.random.default_rng(seed).standard_normal((dim, rank, 2)) @ [1.0, 1j]
        ensemble = KetEnsemble(SpaceLayout.single("osc", dim), kets / np.linalg.norm(kets))
        spec = WignerGridSpec(extent, points)
        dense = wigner(ensemble.density(), spec)
        assert np.max(np.abs(wigner(ensemble, spec).values - dense.values)) <= 1e-13

    def test_shared_radii_match_direct_formula(self, rng, monkeypatch):
        # an exactly symmetric half-integer lattice: up to eight points per radius
        rho = random_density(rng, 9)
        x_mesh, p_mesh = np.meshgrid(np.arange(-8, 9) * 0.5, np.arange(-8, 9) * 0.5)
        radii = np.unique(np.abs(math.sqrt(2) * (x_mesh + 1j * p_mesh)) ** 2)
        assert len(radii) < x_mesh.size / 4
        mine = wigner_values(rho, x_mesh, p_mesh)
        assert np.max(np.abs(mine - direct_wigner(rho, x_mesh, p_mesh))) <= 1e-12
        # the same points as a grid, whole and gathered one and two x-columns
        # at a time (9 kets over 76 steps of y): chunks only regroup BLAS sums
        whole = wigner(rho, WignerGridSpec(4.0, 17)).values
        assert np.max(np.abs(whole - direct_wigner(rho, x_mesh, p_mesh))) <= 1e-12
        for budget in (1, 1 << 15):
            monkeypatch.setattr(observables, "WIGNER_GATHER_BYTES", budget)
            assert np.max(np.abs(wigner(rho, WignerGridSpec(4.0, 17)).values - whole)) <= 1e-15

    def test_fock_diagonal_has_no_angular_spread(self, rng):
        pops = rng.random(10)
        rho = np.diag(pops / pops.sum()).astype(complex)
        assert radial_asymmetry(rho, radii=[0.0, 0.3, 1.1, 2.5, 4.0]) <= 1e-12

    def test_fock_diagonal_rotationally_symmetric(self, rng):
        pops = rng.random(8)
        rho = np.diag(pops / pops.sum()).astype(complex)
        assert radial_asymmetry(rho, radii=[0.5, 1.5, 2.5, 3.5]) < 2e-3

    def test_superposition_breaks_symmetry(self):
        rho = superpose(10, (0, 1.0), (3, 1.0))
        assert radial_asymmetry(rho, radii=[1.0, 2.0]) > 2e-3

    def test_normalization_random_state(self, rng):
        grid = wigner(random_density(rng, 12), WignerGridSpec(8.0, 161))
        assert grid.normalization_integral == pytest.approx(1.0, abs=0.02)

    def test_position_marginal(self, rng):
        # integrating W over p recovers <x|rho|x>, built from Hermite functions
        rho = random_density(rng, 6)
        grid = wigner(rho, WignerGridSpec(7.0, 281))
        marginal = grid.values.sum(axis=0) * grid.dp

        from numpy.polynomial.hermite import hermval

        def position_density(xs):
            # real Hermite-function basis; imaginary parts cancel for Hermitian rho
            psi = np.zeros((6, len(xs)))
            for n in range(6):
                coef = np.zeros(n + 1)
                coef[n] = 1.0
                norm = (np.pi ** -0.25) / math.sqrt(2.0 ** n * math.factorial(n))
                psi[n] = norm * hermval(xs, coef) * np.exp(-xs ** 2 / 2)
            return np.einsum("mx,mn,nx->x", psi, rho.real, psi)

        dens = position_density(grid.x)
        assert np.max(np.abs(marginal - dens)) < 1e-2

    def test_coverage_warning(self):
        grid = wigner(fock_dm(8, 12), WignerGridSpec(3.0, 41))
        assert grid.coverage_warning

    def test_large_radius_no_overflow(self):
        rho = fock_dm(60, 80)
        vals = wigner_values(rho, np.array([30.0]), np.array([20.0]))
        assert np.isfinite(vals).all()


class TestNegativityVolume:
    def test_vacuum_zero(self):
        grid = wigner(fock_dm(0, 8), WignerGridSpec(6.0, 121))
        assert negativity_volume(grid) == pytest.approx(0.0, abs=0.01)

    def test_single_quantum_closed_form(self):
        grid = wigner(fock_dm(1, 8), WignerGridSpec(6.0, 201))
        assert negativity_volume(grid) == pytest.approx(2 * math.exp(-0.5) - 1, abs=0.01)

    def test_single_quantum_radial_quadrature(self):
        # 1-D radial oracle: 2 pi int r max(-W(r), 0) dr over the exact profile
        rho = fock_dm(1, 8)

        def negative_part(r):
            w = wigner_values(rho, np.array([r]), np.array([0.0]))[0]
            return max(-w, 0.0) * 2 * math.pi * r

        oracle, _ = quad(negative_part, 0.0, 6.0, limit=200)
        assert oracle == pytest.approx(2 * math.exp(-0.5) - 1, abs=1e-6)
        grid = wigner(rho, WignerGridSpec(6.0, 201))
        assert negativity_volume(grid) == pytest.approx(oracle, abs=0.01)

    def test_thermal_is_positive(self):
        rho = np.diag(thermal_populations(2.0, 60)).astype(complex)
        grid = wigner(rho, WignerGridSpec(8.0, 121))
        assert negativity_volume(grid) == pytest.approx(0.0, abs=0.01)


class TestSerialization:
    def test_text_round_trip(self, tmp_path, rng):
        grid = wigner(random_density(rng, 5), WignerGridSpec(4.0, 41))
        path = tmp_path / "w.txt"
        save_wigner_text(grid, path)
        loaded = load_wigner_text(path)
        assert np.allclose(loaded.values, grid.values, atol=1e-10)
        assert np.allclose(loaded.x, grid.x)

    def test_outputs_byte_stable(self, tmp_path, rng):
        grid = wigner(random_density(rng, 5), WignerGridSpec(4.0, 41))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_wigner_csv(grid, a)
        save_wigner_csv(grid, b)
        assert a.read_bytes() == b.read_bytes()

    def test_golden_bytes(self, tmp_path):
        # the exact text of both writers, with a signed zero and extreme exponents
        grid = WignerGrid(np.array([-1.0, 0.0, 0.5]), np.array([-0.25, 1 / 3]),
                          np.array([[-0.0, 1e-300, 1e300], [0.1, -2.5e-17, 1 / 3]]),
                          0.987654321)
        save_wigner_text(grid, tmp_path / "w.txt")
        save_wigner_csv(grid, tmp_path / "w.csv")
        assert (tmp_path / "w.txt").read_bytes() == (
            b"# wigner grid: rows are fixed p, columns fixed x\n"
            b"# x: -1 0 0.5\n"
            b"# p: -0.25 0.333333333333\n"
            b"# normalization_integral: 0.987654321\n"
            b"-0 1e-300 1e+300\n"
            b"0.1 -2.5e-17 0.333333333333\n")
        assert (tmp_path / "w.csv").read_bytes() == (
            b"x,p,W\n"
            b"-1,-0.25,-0\n"
            b"0,-0.25,1e-300\n"
            b"0.5,-0.25,1e+300\n"
            b"-1,0.333333333333,0.1\n"
            b"0,0.333333333333,-2.5e-17\n"
            b"0.5,0.333333333333,0.333333333333\n")

    def test_csv_triplets(self, tmp_path):
        grid = wigner(fock_dm(0, 6), WignerGridSpec(2.0, 11))
        path = tmp_path / "w.csv"
        save_wigner_csv(grid, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,p,W"
        assert len(lines) == 1 + 11 * 11


class TestEnsembleDiagnostics:
    """Diagnostics read from a ket ensemble's factor Phi (Gram spectrum and
    diagonal sums) against dense density matrices propagated by expm."""

    FIELDS = ("coherence", "entropy", "mean_n", "std_n", "mean_x", "mean_p",
              "cov_xx", "cov_pp", "cov_xp", "leakage")

    @staticmethod
    def dense_record(rho, leakage):
        # the dense reference: eigvalsh of rho and traces against the products
        # of the truncated X and P matrices
        dim = rho.shape[0]
        b = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
        x = (b + b.T) / math.sqrt(2.0)
        p = 1j * (b.T - b) / math.sqrt(2.0)

        def ev(op):
            return np.einsum("ij,ji->", rho, op).real

        lam = np.linalg.eigvalsh(rho)
        lam = lam[lam > 1e-14]
        pops = np.real(np.diagonal(rho))
        nz = pops[pops > 1e-14]
        entropy = float(-(lam * np.log(lam)).sum())
        n = np.arange(dim)
        mean_n = float(n @ pops)
        mx, mp = ev(x), ev(p)
        return dict(
            coherence=max(float(-(nz * np.log(nz)).sum()) - entropy, 0.0),
            entropy=entropy, mean_n=mean_n,
            std_n=math.sqrt(max(float((n * n) @ pops) - mean_n ** 2, 0.0)),
            mean_x=mx, mean_p=mp,
            cov_xx=ev(x @ x) - mx * mx, cov_pp=ev(p @ p) - mp * mp,
            cov_xp=0.5 * ev(x @ p + p @ x) - mx * mp, leakage=leakage)

    @staticmethod
    def initial_state(layout, kind, rng):
        dim = layout.total_dim
        osc = layout.axis("osc")
        cutoff = layout.dims[osc]
        if kind == "pure":
            return KetEnsemble(layout, random_ket(rng, dim)[:, None])
        pops = np.zeros(layout.dims)
        index = [0] * len(layout.dims)
        if kind == "admixture":
            levels = [0, int(rng.integers(1, cutoff))]
        else:       # every Fock level, the top one included: M >= N
            levels = range(cutoff)
        for level in levels:
            index[osc] = level
            pops[tuple(index)] = rng.random() + 0.05
        weights = pops.ravel() / pops.sum()
        nonzero = np.flatnonzero(weights)
        return KetEnsemble(layout, np.eye(dim)[:, nonzero] * np.sqrt(weights[nonzero]))

    @pytest.mark.parametrize("pumped", [False, True])
    @pytest.mark.parametrize("kind", ["pure", "admixture", "diagonal"])
    @given(seed=st.integers(0, 2**32 - 1), t=st.sampled_from([0.0, 0.37, 2.9]))
    def test_matches_dense_propagation(self, kind, pumped, seed, t):
        rng = np.random.default_rng(seed)
        spec = ModelSpec(interactions=(Interaction(1, 1.0), Interaction(2, 0.3)),
                         cutoff=7, omega=0.2, Omega=0.1,
                         pump=0.8 + 0.3j if pumped else None,
                         pump_dim=4 if pumped else None)
        h = build_hamiltonian(spec)
        state0 = self.initial_state(spec.layout(), kind, rng)
        prop = HamiltonianPropagator(h)
        ens = prop.state_at(prop.expand(state0), t)
        got = diagnose(partial_trace(ens, "osc"))
        u = scipy.linalg.expm(-1j * t * h.entries)
        dense = QuantumState(spec.layout(), u @ state0.density() @ u.conj().T)
        want = self.dense_record(partial_trace(dense, "osc").data,
                                 top_level_population(dense))
        for field in self.FIELDS:
            assert getattr(got, field) == pytest.approx(want[field], abs=1e-12), field

    @pytest.mark.parametrize("kind", ["real kets", "complex kets", "density"])
    @pytest.mark.parametrize("spec", [
        ModelSpec(interactions=(Interaction(1, 1.0),), cutoff=9),
        ModelSpec(interactions=(Interaction(1, 1.0),), cutoff=3),
        ModelSpec(interactions=(Interaction(1, 1.0),), cutoff=7, pump=1.2, pump_dim=4),
        ModelSpec(interactions=(Interaction(1, 1.0),), cutoff=8, absorber="oscillator",
                  absorber_dim=4),
    ], ids=["qubit", "qubit-cutoff-3", "pumped", "mixer"])
    def test_leakage_is_the_top_level_population(self, spec, kind, rng):
        # read from the reduced state, it is the full-space population of the
        # top 5 oscillator levels (of all of them below a cutoff of 5)
        layout = spec.layout()
        dim = layout.total_dim
        if kind == "density":
            state = QuantumState(layout, random_density(rng, dim))
        else:
            kets = random_kets(rng, dim, 3)
            state = KetEnsemble(layout, kets.real / np.linalg.norm(kets.real)
                                if kind == "real kets" else kets)
        got = diagnose(partial_trace(state, "osc")).leakage
        assert got == pytest.approx(top_level_population(state), abs=1e-15)
        if spec.cutoff < 5:
            assert got == pytest.approx(1.0, abs=1e-15)

    def test_fock_input_has_exactly_zero_spread_at_zero_time(self):
        spec = ModelSpec(interactions=(Interaction(1, 1.0), Interaction(2, 0.1)),
                         cutoff=40)
        prop = HamiltonianPropagator(build_hamiltonian(spec))
        psi0 = make_state(InitialStateSpec("fock", n=7), spec.layout())
        ens = prop.state_at(prop.expand(psi0), 0.0)
        rec = diagnose(partial_trace(ens, "osc"))
        assert (rec.mean_n, rec.std_n, rec.coherence) == (7.0, 0.0, 0.0)
