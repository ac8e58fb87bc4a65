import numpy as np
import pytest
from hypothesis import given, strategies as st

from cohabs.errors import ConfigError, TruncationError
from cohabs.hilbert import KetEnsemble, SpaceLayout
from cohabs.models import Interaction, ModelSpec
from cohabs.observables import coherence
from cohabs.states import (KINDS, InitialStateSpec, coherent_amplitudes, make_state,
                           oscillator_state, poisson_populations, thermal_populations)


def single_mode_state(spec: InitialStateSpec, dim: int) -> KetEnsemble:
    return KetEnsemble(SpaceLayout.single("osc", dim), oscillator_state(spec, dim))


def geometric_mean_after_cutoff(nbar: float, dim: int) -> float:
    # independent series oracle, no closed forms from the factory path
    q = nbar / (nbar + 1.0)
    pops = [(1 - q) * q ** m for m in range(dim)]
    z = sum(pops)
    return sum(m * p for m, p in enumerate(pops)) / z


class TestFactories:
    def test_fock_zero_density(self):
        st0 = single_mode_state(InitialStateSpec("fock", n=0), 5)
        expected = np.zeros((5, 5), complex)
        expected[0, 0] = 1.0
        assert np.array_equal(st0.density(), expected)

    def test_degenerate_admixture_is_ground(self):
        st1 = single_mode_state(InitialStateSpec("admixture", n=7, p=1.0), 10)
        assert st1.density()[0, 0] == pytest.approx(1.0)
        assert np.trace(st1.density()).real == pytest.approx(1.0)

    @pytest.mark.parametrize("spec, same", [
        (InitialStateSpec("admixture", n=3, p=0.0), InitialStateSpec("fock", n=3)),
        (InitialStateSpec("fock", n=0), InitialStateSpec("ground")),
        (InitialStateSpec("thermal", nbar=0.0), InitialStateSpec("ground")),
        (InitialStateSpec("admixture", n=3, p=1.0), InitialStateSpec("ground")),
        (InitialStateSpec("ground", n=2), InitialStateSpec("ground")),
        (InitialStateSpec("fock", n=3, p=0.25), InitialStateSpec("fock", n=3)),
    ], ids=["admixture-p0-is-fock", "fock0-is-ground", "thermal0-is-ground",
            "admixture-p1-is-ground", "ground-ignores-n", "fock-ignores-p"])
    def test_equivalent_inputs_are_bit_identical(self, spec, same):
        # fock, ground and admixture share one builder, and the thermal
        # populations reach |0> at nbar = 0 through q ** 0 = 1
        got, want = oscillator_state(spec, 8), oscillator_state(same, 8)
        assert (got.shape, got.dtype) == (want.shape, want.dtype)
        assert got.tobytes() == want.tobytes()

    def test_thermal_mean_occupation(self):
        pops = thermal_populations(7.0, 120)
        mean = float(np.arange(120) @ pops)
        assert mean == pytest.approx(7.0, abs=0.01)
        assert mean == pytest.approx(geometric_mean_after_cutoff(7.0, 120), abs=1e-12)

    def test_thermal_tail_guard(self):
        # nbar=7 keeps ~3e-4 mass above 60 levels, past the 1e-6 guard
        with pytest.raises(TruncationError):
            thermal_populations(7.0, 60)

    def test_poisson_mean_occupation(self):
        pops = poisson_populations(7.0, 60)
        assert float(np.arange(60) @ pops) == pytest.approx(7.0, abs=1e-6)

    def test_coherent_norm_and_mean(self):
        amp = coherent_amplitudes(1.5 + 0.5j, 40)
        assert np.linalg.norm(amp) == pytest.approx(1.0)
        mean = float(np.arange(40) @ (np.abs(amp) ** 2))
        assert mean == pytest.approx(abs(1.5 + 0.5j) ** 2, abs=1e-9)

    def test_coherent_tail_guard(self):
        with pytest.raises(TruncationError):
            coherent_amplitudes(4.0, 10)

    def test_fock_index_must_fit(self):
        with pytest.raises(TruncationError):
            single_mode_state(InitialStateSpec("fock", n=9), 8)


class TestIncoherence:
    @pytest.mark.parametrize("spec", [
        InitialStateSpec("fock", n=3),
        InitialStateSpec("ground"),
        InitialStateSpec("thermal", nbar=2.0),
        InitialStateSpec("phase_randomized_coherent", nbar=3.0),
        InitialStateSpec("admixture", n=5, p=0.3),
    ])
    def test_factory_outputs_are_fock_diagonal(self, spec):
        rho = single_mode_state(spec, 40).density()
        off = rho - np.diag(np.diagonal(rho))
        assert np.all(off == 0)
        assert coherence(rho) == 0.0

    def test_coherent_state_coherence_is_poisson_entropy(self):
        amp = coherent_amplitudes(1.2, 40)
        probs = np.abs(amp) ** 2
        shannon = -float(np.sum(probs[probs > 0] * np.log(probs[probs > 0])))
        assert coherence(np.outer(amp, amp.conj())) == pytest.approx(shannon, abs=1e-9)


class TestCompositeAssembly:
    def layout(self, cutoff=32, pump=None):
        return ModelSpec(interactions=(Interaction(1, 1.0),), cutoff=cutoff,
                         pump=pump, pump_dim=14).layout()

    def test_absorber_starts_in_ground(self):
        st0 = make_state(InitialStateSpec("fock", n=4), self.layout())
        vec = st0.kets[:, 0].reshape(2, 32)
        assert np.all(vec[1] == 0)
        assert abs(vec[0, 4]) == pytest.approx(1.0)

    def test_mixed_kind_gives_density(self):
        st0 = make_state(InitialStateSpec("thermal", nbar=1.0), self.layout())
        assert not st0.is_vector
        assert np.trace(st0.density()).real == pytest.approx(1.0)

    def test_pump_factor_filled_with_coherent(self):
        st0 = make_state(InitialStateSpec("fock", n=2),
                         self.layout(pump=1.0 + 0j), pump_amplitude=1.0 + 0j)
        vec = st0.kets[:, 0].reshape(2, 32, 14)
        pump_marginal = np.abs(vec[0, 2]) ** 2
        expected = np.abs(coherent_amplitudes(1.0, 14)) ** 2
        assert np.allclose(pump_marginal, expected, atol=1e-12)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            InitialStateSpec("squeezed")

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_admixture_weight_normalization(self, p):
        rho = single_mode_state(InitialStateSpec("admixture", n=4, p=p), 8).density()
        assert np.trace(rho).real == pytest.approx(1.0)
        assert rho[0, 0].real == pytest.approx(p)
        assert rho[4, 4].real == pytest.approx(1 - p)


def factor_density(spec: InitialStateSpec, dim: int) -> np.ndarray:
    """The oscillator density matrix of a spec, built from its populations or
    amplitudes."""
    if spec.kind == "coherent":
        amp = coherent_amplitudes(spec.beta, dim)
        return np.outer(amp, amp.conj())
    pops = np.zeros(dim)
    if spec.kind == "thermal":
        pops = thermal_populations(spec.nbar, dim)
    elif spec.kind == "phase_randomized_coherent":
        pops = poisson_populations(spec.nbar, dim)
    elif spec.kind == "admixture":
        pops[0] += spec.p
        pops[spec.n] += 1.0 - spec.p
    else:
        pops[spec.n if spec.kind == "fock" else 0] = 1.0
    return np.diag(pops).astype(complex)


class TestEnsembleAssembly:
    CUTOFF, PUMP_DIM = 24, 12

    @given(kind=st.sampled_from(KINDS), n=st.integers(0, CUTOFF - 1),
           nbar=st.floats(0.0, 1.0), p=st.floats(0.0, 1.0),
           beta=st.complex_numbers(max_magnitude=1.5),
           pump=st.one_of(st.none(), st.complex_numbers(max_magnitude=1.0)))
    def test_kets_are_the_product_of_factor_states(self, kind, n, nbar, p, beta, pump):
        spec = InitialStateSpec(kind, n=n, nbar=nbar, p=p, beta=beta)
        layout = ModelSpec(interactions=(Interaction(1, 1.0),), cutoff=self.CUTOFF,
                           pump=pump, pump_dim=self.PUMP_DIM).layout()
        state = make_state(spec, layout, pump_amplitude=pump)
        ground = np.zeros((2, 2), complex)
        ground[0, 0] = 1.0
        osc = factor_density(spec, self.CUTOFF)
        want = np.kron(ground, osc)
        if pump is not None:
            amp = coherent_amplitudes(pump, self.PUMP_DIM)
            want = np.kron(want, np.outer(amp, amp.conj()))
        assert np.allclose(state.kets @ state.kets.conj().T, want, atol=1e-14)
        pure = kind == "coherent"
        assert state.kets.shape[1] == (1 if pure else np.count_nonzero(np.diagonal(osc)))

    def test_pumped_admixture_has_two_columns(self):
        layout = ModelSpec(interactions=(Interaction(1, 1.0), Interaction(2, 0.1)),
                           cutoff=16, pump=1.5 + 0j, pump_dim=16).layout()
        state = make_state(InitialStateSpec("admixture", n=7, p=0.3), layout,
                           pump_amplitude=1.5 + 0j)
        assert state.kets.shape == (512, 2)
