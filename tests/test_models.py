from dataclasses import replace
import pathlib

import numpy as np
import pytest

from cohabs import experiments
from cohabs.errors import ConfigError, LayoutError, TruncationError
from cohabs.evolution import HamiltonianPropagator
from cohabs.experiments import from_document, load_config, to_document
from cohabs.hilbert import partial_trace
from cohabs.models import Interaction, ModelSpec, build_hamiltonian, dephasing_dissipator
from cohabs import states
import oracles

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def spec(cutoff=12, **kw):
    kw.setdefault("interactions", (Interaction(1, 1.0), Interaction(2, 0.1)))
    return ModelSpec(cutoff=cutoff, **kw)


def ge_index(q, n, cutoff):
    return q * cutoff + n


def one_term(k, g, s):
    """The order-k interaction of the spec's model alone, without free motion."""
    return build_hamiltonian(replace(s, interactions=(Interaction(k, g),), omega=0.0,
                                     Omega=0.0, Delta=None, nu=None))


def free_part(omega, Omega, s):
    """omega b^dag b + the absorber's free term, every coupling zero."""
    return build_hamiltonian(replace(s, interactions=(Interaction(1, 0.0),), omega=omega,
                                     Omega=Omega, Delta=None)).entries


def excitation_number(k, s):
    return oracles.excitation_number(k, s.layout().dim("absorber"), s.cutoff)


def commutator(a, b):
    return a @ b - b @ a


def hand_built(s):
    """The spec's H from np.kron of dense ladder matrices, with its terms
    added in the order of build_hamiltonian."""
    def lift(**ops):
        out = np.ones((1, 1))
        for label, dim in s.layout().factors:
            out = np.kron(out, ops.get(label, np.eye(dim)))
        return out

    omega = -s.Delta if s.Delta is not None else s.omega
    if s.absorber == "qubit":
        h_abs = np.diag([-0.5 * s.Omega, 0.5 * s.Omega])
    else:
        h_abs = np.diag(s.Omega * np.arange(float(s.absorber_dim)))
    h = lift(osc=np.diag(omega * np.arange(float(s.cutoff)))) + lift(absorber=h_abs)
    if s.has_pump and s.nu:
        h = h + lift(pump=np.diag(s.nu * np.arange(float(s.effective_pump_dim()))))
    raising = oracles.lowering(s.layout().dim("absorber")).T     # sigma+ or a^dag
    for it in s.interactions:
        if s.has_pump and it.order == 1:
            x = lift(absorber=raising, osc=oracles.lowering(s.cutoff),
                     pump=oracles.lowering(s.effective_pump_dim()))
        else:
            x = lift(absorber=raising, osc=oracles.lowering(s.cutoff, it.order))
        h = h + it.coupling * (x + x.T)
    return h


SPECS = [
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
]
SPEC_IDS = ["qubit", "free", "Delta", "order3", "oscillator", "oscillator-order3",
            "pump", "pump-nu", "pump-quadratic"]


class TestJCInteraction:
    def test_linear_matrix_element(self):
        v = one_term(1, 1.0, spec()).entries
        assert v[ge_index(1, 0, 12), ge_index(0, 1, 12)] == pytest.approx(1.0)

    def test_quadratic_matrix_element(self):
        v = one_term(2, 1.0, spec()).entries
        assert v[ge_index(1, 0, 12), ge_index(0, 2, 12)] == pytest.approx(np.sqrt(2))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_annihilates_low_occupations(self, k):
        v = one_term(k, 0.7, spec()).entries
        for m in range(k):
            ket = np.zeros(24)
            ket[ge_index(0, m, 12)] = 1.0
            assert np.all(v @ ket == 0)

    def test_hermitian(self):
        h = one_term(2, 0.3, spec()).entries
        assert h.dtype == np.float64 and np.array_equal(h, h.T)

    def test_order_must_fit_cutoff(self):
        with pytest.raises(TruncationError):
            build_hamiltonian(spec(cutoff=12, interactions=(Interaction(12, 1.0),)))

    def test_conserves_paired_excitation_number(self):
        s = spec(cutoff=10)
        for k in (1, 2):
            comm = commutator(one_term(k, 1.0, s).entries, excitation_number(k, s))
            assert np.max(np.abs(comm)) < 1e-10


class TestCombinedInteraction:
    def test_degenerate_sum(self):
        s = spec(interactions=(Interaction(1, 0.8), Interaction(2, 0.0)))
        assert np.array_equal(build_hamiltonian(s).entries, one_term(1, 0.8, s).entries)

    def test_zero_couplings(self):
        s = spec(interactions=(Interaction(1, 0.0), Interaction(2, 0.0)))
        assert np.all(build_hamiltonian(s).entries == 0)

    def test_ladder_elements_by_hand(self):
        v = build_hamiltonian(spec()).entries
        assert v[ge_index(1, 6, 12), ge_index(0, 7, 12)] == pytest.approx(np.sqrt(7))
        assert v[ge_index(1, 5, 12), ge_index(0, 7, 12)] == pytest.approx(0.1 * np.sqrt(42))

    def test_breaks_both_excitation_numbers(self):
        s = spec(cutoff=10)
        v = build_hamiltonian(s).entries
        for k in (1, 2):
            comm = commutator(v, excitation_number(k, s))
            assert np.max(np.abs(comm)) > 0.01


class TestFreeHamiltonian:
    def test_diagonal_eigenvalue(self):
        h = free_part(1.0, 1.0, spec(cutoff=8))
        for n in range(8):
            assert h[ge_index(0, n, 8), ge_index(0, n, 8)] == pytest.approx(n - 0.5)

    def test_zero_frequencies(self):
        assert np.all(free_part(0.0, 0.0, spec()) == 0)

    def test_spectrum_with_detuned_qubit(self):
        h = free_part(1.0, 2.0, spec(cutoff=6))
        expected = sorted([n - 1.0 for n in range(6)] + [n + 1.0 for n in range(6)])
        assert np.allclose(np.sort(np.linalg.eigvalsh(h)), expected)


class TestCommutatorResidual:
    def test_resonance_vanishes(self):
        s = spec(cutoff=10)
        for k, omega in ((1, 1.3), (2, 0.7)):
            comm = commutator(free_part(omega, k * omega, s), one_term(k, 1.0, s).entries)
            assert np.max(np.abs(comm)) < 1e-12

    @pytest.mark.parametrize("k,omega,Omega,g", [(1, 1.0, 2.0, 1.0), (2, 0.6, 0.9, 0.4)])
    def test_entrywise_closed_form(self, k, omega, Omega, g):
        s = spec(cutoff=14)
        comm = commutator(free_part(omega, Omega, s), one_term(k, g, s).entries)
        ref = oracles.frustration_commutator(k, g, omega, Omega, 14)
        # rows touching the top-k truncation levels are excluded by contract
        keep = np.ones(2 * 14, bool)
        for q in (0, 1):
            keep[q * 14 + 14 - k:(q + 1) * 14] = False
        diff = np.abs(comm - ref)[np.ix_(keep, keep)]
        assert diff.max() < 1e-10

    def test_combined_interaction_always_frustrated(self):
        s = spec(cutoff=10)
        v = build_hamiltonian(s).entries
        norms = []
        for omega in np.linspace(0.0, 3.0, 7):
            for Omega in np.linspace(0.0, 3.0, 7):
                if omega == 0.0 and Omega == 0.0:
                    continue      # no free motion at all: nothing to frustrate
                norms.append(np.max(np.abs(commutator(free_part(omega, Omega, s), v))))
        assert min(norms) > 1e-3


class TestDetunedModel:
    def test_reduced_state_stays_diagonal(self):
        s = spec(cutoff=14, Delta=0.7, Omega=1.3, interactions=(Interaction(1, 1.0),))
        prop = HamiltonianPropagator(build_hamiltonian(s))
        psi0 = prop.expand(states.make_state(states.InitialStateSpec("fock", n=5), s.layout()))
        for t in np.linspace(0.0, 8.0, 9):
            red = partial_trace(prop.state_at(psi0, t), "osc").density()
            off = red - np.diag(np.diagonal(red))
            assert np.max(np.abs(off)) < 1e-9


class TestMWInteraction:
    def s(self):
        return spec(absorber="oscillator", absorber_dim=5, cutoff=9)

    def test_linear_element(self):
        v = one_term(1, 0.8, self.s()).entries
        row = 1 * 9 + 0   # |1_a, 0_b>
        col = 0 * 9 + 1   # |0_a, 1_b>
        assert v[row, col] == pytest.approx(0.8)

    def test_quadratic_element(self):
        v = one_term(2, 1.0, self.s()).entries
        assert v[1 * 9 + 0, 0 * 9 + 2] == pytest.approx(np.sqrt(2))

    @pytest.mark.parametrize("k", [1, 2])
    def test_conserves_total_excitation_below_boundary(self, k):
        s = self.s()
        comm = commutator(one_term(k, 1.0, s).entries, excitation_number(k, s))
        assert np.max(np.abs(comm)) < 1e-10


class TestCompletedInteraction:
    def s(self, pump=1.0 + 0j, pump_dim=6):
        return spec(pump=pump, pump_dim=pump_dim, cutoff=8)

    def test_trilinear_element(self):
        s = self.s()
        v = one_term(1, 0.9, s).entries
        da = s.effective_pump_dim()
        row = 1 * 8 * da + 0 * da + 0     # |e, 0_b, 0_a>
        col = 0 * 8 * da + 1 * da + 1     # |g, 1_b, 1_a>
        assert v[row, col] == pytest.approx(0.9)

    def test_quadratic_term_pump_diagonal(self):
        s = self.s()
        v = one_term(2, 0.5, s).entries
        da = s.effective_pump_dim()
        for m in range(da):
            row = 1 * 8 * da + 0 * da + m
            col = 0 * 8 * da + 2 * da + m
            assert v[row, col] == pytest.approx(0.5 * np.sqrt(2))

    def test_trilinear_conserved_quantities(self):
        # the pump-completed exchange conserves (excited + n_b) and (n_b - n_a)
        s = self.s()
        v = one_term(1, 1.0, s).entries
        da = s.effective_pump_dim()
        proj_e = np.kron(np.diag([0.0, 1.0]), np.eye(8 * da))
        n_b = np.kron(np.kron(np.eye(2), np.diag(np.arange(8.0))), np.eye(da))
        n_a = np.kron(np.eye(16), np.diag(np.arange(float(da))))
        for q in (proj_e + n_b, n_b - n_a):
            assert np.max(np.abs(commutator(v, q))) < 1e-10

    def test_oscillator_absorber_rejected(self):
        with pytest.raises(LayoutError):
            build_hamiltonian(spec(pump=1.0 + 0j, pump_dim=4, cutoff=6,
                                   absorber="oscillator", absorber_dim=3))


class TestDephasing:
    def test_zero_rate_empty(self):
        assert dephasing_dissipator(0.0, spec()) == []

    def test_number_diagonal_action(self):
        s = spec(cutoff=6)
        (L,) = dephasing_dissipator(0.25, s)
        for n in range(6):
            ket = np.zeros(12)
            ket[ge_index(0, n, 6)] = 1.0
            assert np.allclose(np.diag(L) @ ket, np.sqrt(0.25) * n * ket)

    def test_fock_diagonal_states_are_fixed_points(self, rng):
        s = spec(cutoff=6)
        (L,) = dephasing_dissipator(0.3, s)
        pops = rng.random(12)
        rho = np.diag(pops / pops.sum()).astype(complex)
        l = np.diag(L)
        action = l @ rho @ l.conj().T - 0.5 * (l.conj().T @ l @ rho + rho @ l.conj().T @ l)
        assert np.max(np.abs(action)) < 1e-14

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigError):
            dephasing_dissipator(-0.1, spec())


class TestBuildHamiltonian:
    @staticmethod
    def term_sum(s):
        """The free part (every coupling zero) plus each interaction alone."""
        h = free_part(-s.Delta if s.Delta is not None else s.omega, s.Omega,
                      replace(s, interactions=tuple(Interaction(it.order, 0.0)
                                                    for it in s.interactions)))
        for it in s.interactions:
            h = h + one_term(it.order, it.coupling, s).entries
        return h

    @pytest.mark.parametrize("s", SPECS, ids=SPEC_IDS)
    def test_equals_sum_of_public_terms(self, s):
        assert np.array_equal(build_hamiltonian(s).entries, self.term_sum(s))

    # the segment Hamiltonians of a switch run, g (sigma+ (x) b^k + h.c.)
    SWITCH_SPECS = [ModelSpec(interactions=(Interaction(k, 0.7),), cutoff=cutoff)
                    for k in (1, 2, 3) for cutoff in (8, 240)]

    @pytest.mark.parametrize("s", SPECS + SWITCH_SPECS, ids=SPEC_IDS + [
        f"switch-k{s.interactions[0].order}-cutoff{s.cutoff}" for s in SWITCH_SPECS])
    def test_equals_hand_built(self, s):
        assert np.array_equal(build_hamiltonian(s).entries, hand_built(s))

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
        for s in SPECS:
            h = build_hamiltonian(s).entries
            assert h.dtype == np.float64 and not h.flags.writeable
            assert np.array_equal(h, h.T)

    def test_roundtrip_document(self):
        s = spec(omega=0.1, Omega=0.2, dephasing_rate=0.05, pump=2.0 + 1.0j,
                 pump_dim=7, cutoff=20)
        assert from_document(ModelSpec, to_document(s), "model") == s

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


def shipped_models(config):
    """Every model a run of the config builds a Hamiltonian of, at a reduced
    size: the pieces (`experiments._pieces`) of the configured run, of each
    sweep point's and of each point's reference run; a switch schedule's
    pieces are its segment models."""
    cfgs = [config]
    if config.sweep:
        points = [cfg for cfg, _ in experiments._sweep_points(config)]
        reference = experiments._SWEEP_KINDS[frozenset(config.sweep)].reference
        cfgs += points + [ref for ref in map(reference, points) if ref is not None]
    out = []
    for cfg in cfgs:
        m = cfg.model
        small = replace(m, cutoff=min(m.cutoff, 10), absorber_dim=min(m.absorber_dim, 4),
                        pump_dim=min(m.effective_pump_dim(), 6) if m.has_pump else None)
        out += [piece for piece, _ in experiments._pieces(cfg, small, ())]
    return out


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.json")))
def test_shipped_hamiltonians_are_real_symmetric(name):
    models = shipped_models(load_config(CONFIGS / f"{name}.json"))
    assert models
    for s in models:
        h = build_hamiltonian(s).entries
        assert h.dtype == np.float64 and not h.flags.writeable
        assert np.array_equal(h, h.T)
