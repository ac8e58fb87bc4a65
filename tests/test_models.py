import numpy as np
import pytest

from cohabs.errors import ConfigError, LayoutError, TruncationError
from cohabs.hilbert import partial_trace
from cohabs.models import (Interaction, ModelSpec, build_hamiltonian,
                           combined_interaction, commutator_residual,
                           completed_interaction, dephasing_dissipator,
                           detuned_hamiltonian, excitation_number,
                           free_hamiltonian, frustration_reference,
                           jc_interaction, mw_interaction)
from cohabs import evolution, states


def spec(cutoff=12, **kw):
    kw.setdefault("interactions", (Interaction(1, 1.0), Interaction(2, 0.1)))
    return ModelSpec(cutoff=cutoff, **kw)


def ge_index(q, n, cutoff):
    return q * cutoff + n


class TestJCInteraction:
    def test_linear_matrix_element(self):
        v = jc_interaction(1, 1.0, spec())
        assert v.entries[ge_index(1, 0, 12), ge_index(0, 1, 12)] == pytest.approx(1.0)

    def test_quadratic_matrix_element(self):
        v = jc_interaction(2, 1.0, spec())
        assert v.entries[ge_index(1, 0, 12), ge_index(0, 2, 12)] == pytest.approx(np.sqrt(2))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_annihilates_low_occupations(self, k):
        s = spec()
        v = jc_interaction(k, 0.7, s)
        for m in range(k):
            ket = np.zeros(24)
            ket[ge_index(0, m, 12)] = 1.0
            assert np.all(v.entries @ ket == 0)

    def test_hermitian(self):
        assert jc_interaction(2, 0.3, spec()).hermitian

    def test_order_must_fit_cutoff(self):
        with pytest.raises(TruncationError):
            jc_interaction(12, 1.0, spec(cutoff=12))

    def test_requires_qubit_absorber(self):
        s = spec(absorber="oscillator", absorber_dim=3)
        with pytest.raises(LayoutError):
            jc_interaction(1, 1.0, s)

    def test_conserves_paired_excitation_number(self):
        s = spec(cutoff=10)
        for k in (1, 2):
            v = jc_interaction(k, 1.0, s)
            n_op = excitation_number(k, s)
            comm = v.commutator(n_op).entries
            assert np.max(np.abs(comm)) < 1e-10


class TestCombinedInteraction:
    def test_degenerate_sum(self):
        s = spec()
        assert np.array_equal(combined_interaction(0.8, 0.0, s).entries,
                              jc_interaction(1, 0.8, s).entries)

    def test_zero_couplings(self):
        assert np.all(combined_interaction(0.0, 0.0, spec()).entries == 0)

    def test_ladder_elements_by_hand(self):
        s = spec()
        v = combined_interaction(1.0, 0.1, s)
        assert v.entries[ge_index(1, 6, 12), ge_index(0, 7, 12)] == pytest.approx(np.sqrt(7))
        assert v.entries[ge_index(1, 5, 12), ge_index(0, 7, 12)] == pytest.approx(0.1 * np.sqrt(42))

    def test_breaks_both_excitation_numbers(self):
        s = spec(cutoff=10)
        v = combined_interaction(1.0, 0.1, s)
        for k in (1, 2):
            comm = v.commutator(excitation_number(k, s)).entries
            assert np.max(np.abs(comm)) > 0.01


class TestFreeHamiltonian:
    def test_diagonal_eigenvalue(self):
        s = spec(cutoff=8)
        h = free_hamiltonian(1.0, 1.0, s)
        for n in range(8):
            assert h.entries[ge_index(0, n, 8), ge_index(0, n, 8)] == pytest.approx(n - 0.5)

    def test_zero_frequencies(self):
        assert np.all(free_hamiltonian(0.0, 0.0, spec()).entries == 0)

    def test_spectrum_with_detuned_qubit(self):
        s = spec(cutoff=6)
        h = free_hamiltonian(1.0, 2.0, s)
        expected = sorted([n - 1.0 for n in range(6)] + [n + 1.0 for n in range(6)])
        assert np.allclose(np.sort(np.linalg.eigvalsh(h.entries)), expected)


class TestCommutatorResidual:
    def test_resonance_vanishes(self):
        s = spec(cutoff=10)
        for k, omega in ((1, 1.3), (2, 0.7)):
            h0 = free_hamiltonian(omega, k * omega, s)
            v = jc_interaction(k, 1.0, s)
            _, norm = commutator_residual(h0, v, k, 1.0, omega, k * omega)
            assert norm < 1e-12

    @pytest.mark.parametrize("k,omega,Omega,g", [(1, 1.0, 2.0, 1.0), (2, 0.6, 0.9, 0.4)])
    def test_entrywise_closed_form(self, k, omega, Omega, g):
        s = spec(cutoff=14)
        h0 = free_hamiltonian(omega, Omega, s)
        v = jc_interaction(k, g, s)
        comm, _ = commutator_residual(h0, v, k, g, omega, Omega)
        ref = frustration_reference(k, g, omega, Omega, s)
        # rows touching the top-k truncation levels are excluded by contract
        keep = np.ones(2 * 14, bool)
        for q in (0, 1):
            keep[q * 14 + 14 - k:(q + 1) * 14] = False
        diff = np.abs(comm.entries - ref.entries)[np.ix_(keep, keep)]
        assert diff.max() < 1e-10

    def test_combined_interaction_always_frustrated(self):
        s = spec(cutoff=10)
        v = combined_interaction(1.0, 0.1, s)
        norms = []
        for omega in np.linspace(0.0, 3.0, 7):
            for Omega in np.linspace(0.0, 3.0, 7):
                if omega == 0.0 and Omega == 0.0:
                    continue      # no free motion at all: nothing to frustrate
                h0 = free_hamiltonian(omega, Omega, s)
                _, norm = commutator_residual(h0, v, 1, 1.0, omega, Omega)
                norms.append(norm)
        assert min(norms) > 1e-3

    def test_layout_mismatch(self):
        s1, s2 = spec(cutoff=8), spec(cutoff=9)
        with pytest.raises(LayoutError):
            commutator_residual(free_hamiltonian(1, 1, s1),
                                jc_interaction(1, 1.0, s2), 1, 1.0, 1.0, 1.0)


class TestDetunedModel:
    def test_reduced_state_stays_diagonal(self):
        s = spec(cutoff=14)
        h = detuned_hamiltonian(Delta=0.7, Omega=1.3, k=1, g=1.0, spec=s)
        psi0 = states.make_state(states.InitialStateSpec("fock", n=5), s.layout())
        res = evolution.unitary_evolve(h, psi0, np.linspace(0.0, 8.0, 9))
        for st in res.states:
            red = partial_trace(st, "osc").density()
            off = red - np.diag(np.diagonal(red))
            assert np.max(np.abs(off)) < 1e-9


class TestMWInteraction:
    def s(self):
        return spec(absorber="oscillator", absorber_dim=5, cutoff=9)

    def test_linear_element(self):
        v = mw_interaction(1, 0.8, self.s())
        row = 1 * 9 + 0   # |1_a, 0_b>
        col = 0 * 9 + 1   # |0_a, 1_b>
        assert v.entries[row, col] == pytest.approx(0.8)

    def test_quadratic_element(self):
        v = mw_interaction(2, 1.0, self.s())
        assert v.entries[1 * 9 + 0, 0 * 9 + 2] == pytest.approx(np.sqrt(2))

    @pytest.mark.parametrize("k", [1, 2])
    def test_conserves_total_excitation_below_boundary(self, k):
        s = self.s()
        v = mw_interaction(k, 1.0, s)
        n_mw = excitation_number(k, s)
        comm = v.commutator(n_mw).entries
        assert np.max(np.abs(comm)) < 1e-10

    def test_requires_oscillator_absorber(self):
        with pytest.raises(LayoutError):
            mw_interaction(1, 1.0, spec())


class TestCompletedInteraction:
    def s(self, pump=1.0 + 0j, pump_dim=6):
        return spec(pump=pump, pump_dim=pump_dim, cutoff=8)

    def test_trilinear_element(self):
        s = self.s()
        v = completed_interaction(0.9, 0.0, s)
        da = s.effective_pump_dim()
        row = 1 * 8 * da + 0 * da + 0     # |e, 0_b, 0_a>
        col = 0 * 8 * da + 1 * da + 1     # |g, 1_b, 1_a>
        assert v.entries[row, col] == pytest.approx(0.9)

    def test_quadratic_term_pump_diagonal(self):
        s = self.s()
        v = completed_interaction(0.0, 0.5, s)
        da = s.effective_pump_dim()
        for m in range(da):
            row = 1 * 8 * da + 0 * da + m
            col = 0 * 8 * da + 2 * da + m
            assert v.entries[row, col] == pytest.approx(0.5 * np.sqrt(2))

    def test_trilinear_conserved_quantities(self):
        # the pump-completed exchange conserves (excited + n_b) and (n_b - n_a)
        s = self.s()
        v = completed_interaction(1.0, 0.0, s)
        da = s.effective_pump_dim()
        proj_e = np.kron(np.diag([0.0, 1.0]), np.eye(8 * da))
        n_b = np.kron(np.kron(np.eye(2), np.diag(np.arange(8.0))), np.eye(da))
        n_a = np.kron(np.eye(16), np.diag(np.arange(float(da))))
        for q in (proj_e + n_b, n_b - n_a):
            comm = v.entries @ q - q @ v.entries
            assert np.max(np.abs(comm)) < 1e-10

    def test_needs_pump_factor(self):
        with pytest.raises(LayoutError):
            completed_interaction(1.0, 0.1, spec())


class TestDephasing:
    def test_zero_rate_empty(self):
        assert dephasing_dissipator(0.0, spec()) == []

    def test_number_diagonal_action(self):
        s = spec(cutoff=6)
        (L,) = dephasing_dissipator(0.25, s)
        for n in range(6):
            ket = np.zeros(12)
            ket[ge_index(0, n, 6)] = 1.0
            assert np.allclose(L.entries @ ket, np.sqrt(0.25) * n * ket)

    def test_fock_diagonal_states_are_fixed_points(self, rng):
        s = spec(cutoff=6)
        (L,) = dephasing_dissipator(0.3, s)
        pops = rng.random(12)
        rho = np.diag(pops / pops.sum()).astype(complex)
        l = L.entries
        action = l @ rho @ l.conj().T - 0.5 * (l.conj().T @ l @ rho + rho @ l.conj().T @ l)
        assert np.max(np.abs(action)) < 1e-14

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigError):
            dephasing_dissipator(-0.1, spec())


class TestBuildHamiltonian:
    @staticmethod
    def term_sum(s):
        omega = -s.Delta if s.Delta is not None else s.omega
        h = free_hamiltonian(omega, s.Omega, s)
        if s.has_pump:
            g = {it.order: it.coupling for it in s.interactions}
            return h + completed_interaction(g.get(1, 0.0), g.get(2, 0.0), s)
        builder = jc_interaction if s.absorber == "qubit" else mw_interaction
        for it in s.interactions:
            h = h + builder(it.order, it.coupling, s)
        return h

    @pytest.mark.parametrize("s", [
        spec(),
        spec(omega=0.3, Omega=-0.7),
        spec(Delta=0.5, omega=2.0, Omega=1.1),
        spec(interactions=(Interaction(3, 0.05), Interaction(1, -1.0)), omega=0.1),
        spec(absorber="oscillator", absorber_dim=4, omega=0.2, Omega=0.4),
        spec(absorber="oscillator", absorber_dim=3, Delta=-0.3,
             interactions=(Interaction(1, 1.0), Interaction(2, 0.1), Interaction(3, 0.02))),
        spec(pump=1.5 + 0j, pump_dim=5, cutoff=6, omega=0.2, Omega=0.3),
        spec(pump=0.5 - 1.0j, pump_dim=4, cutoff=6, nu=0.3, Delta=0.1),
        spec(pump=2.0 + 0j, pump_dim=4, cutoff=5, interactions=(Interaction(2, 0.4),)),
    ], ids=["qubit", "free", "Delta", "order3", "oscillator", "oscillator-order3",
            "pump", "pump-nu", "pump-quadratic"])
    def test_equals_sum_of_public_terms(self, s):
        assert np.array_equal(build_hamiltonian(s).entries, self.term_sum(s).entries)

    def test_pumped_order_three_rejected(self):
        s = spec(pump=1.0 + 0j, pump_dim=4, cutoff=6,
                 interactions=(Interaction(1, 1.0), Interaction(3, 0.1)))
        with pytest.raises(ConfigError):
            build_hamiltonian(s)

    @pytest.mark.parametrize("absorber", ["qubit", "oscillator"])
    def test_order_beyond_cutoff_rejected(self, absorber):
        s = spec(cutoff=4, absorber=absorber, absorber_dim=3,
                 interactions=(Interaction(1, 1.0), Interaction(4, 0.1)))
        with pytest.raises(TruncationError):
            build_hamiltonian(s)


class TestModelSpec:
    def test_every_built_hamiltonian_is_hermitian(self):
        for s in (spec(), spec(omega=1.0, Omega=2.0), spec(Delta=0.5),
                  spec(absorber="oscillator", absorber_dim=4),
                  spec(pump=1.5 + 0j, pump_dim=5, cutoff=6, nu=0.3)):
            assert build_hamiltonian(s).hermitian

    def test_roundtrip_document(self):
        s = spec(omega=0.1, Omega=0.2, dephasing_rate=0.05, pump=2.0 + 1.0j,
                 pump_dim=7, cutoff=20)
        assert ModelSpec.from_dict(s.to_dict()) == s

    def test_needs_interaction(self):
        with pytest.raises(ConfigError):
            ModelSpec(interactions=())

    def test_tau_scale_uses_highest_order(self):
        assert spec().tau_scale() == pytest.approx(0.1)
        zero = ModelSpec(interactions=(Interaction(1, 0.0),), cutoff=8)
        assert zero.tau_scale() == 1.0

    def test_duplicate_orders_rejected(self):
        with pytest.raises(ConfigError):
            ModelSpec(interactions=(Interaction(1, 1.0), Interaction(1, 0.5)))
