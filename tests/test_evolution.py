from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph
from hypothesis import Phase, assume, example, given, settings, strategies as st

from cohabs import evolution, experiments
from cohabs.errors import IntegrationError, StateError
from cohabs.experiments import ScenarioConfig, ScheduleSpec, SwitchSegment, run_point
from cohabs.hilbert import KetEnsemble, QuantumState, SpaceLayout, parity_frame, partial_trace
from cohabs.models import (Hamiltonian, Interaction, ModelSpec, build_hamiltonian,
                           dephasing_dissipator)
from cohabs.observables import coherence, diagnose
from cohabs.states import InitialStateSpec, make_state
from cohabs.evolution import HamiltonianPropagator, lindblad_evolve
from conftest import random_density, random_ket, random_kets
import oracles


def two_body(cutoff=16, g1=1.0, g2=0.1, **kw):
    return ModelSpec(interactions=(Interaction(1, g1), Interaction(2, g2)),
                     cutoff=cutoff, **kw)


def fock_state(spec, n):
    return make_state(InitialStateSpec("fock", n=n), spec.layout())


def evolve(h, state0, times):
    """The states exp(-iHt) state0 at each time, from one eigen-expansion."""
    prop = HamiltonianPropagator(h)
    expansion = prop.expand(state0)
    return [prop.state_at(expansion, float(t)) for t in times]


def zero_hamiltonian(spec):
    dim = spec.layout().total_dim
    return Hamiltonian(spec.layout(), np.zeros((dim, dim)))


def random_hamiltonian(layout, rng):
    """A real symmetric H on the layout with no structure of a model's."""
    a = rng.normal(size=(layout.total_dim,) * 2)
    return Hamiltonian(layout, 0.5 * (a + a.T))


@st.composite
def chiral_models(draw):
    """Small models at omega = Omega = nu = 0 and no detuning, so that every
    term raises or lowers the absorber by one quantum: a qubit with orders
    1-2, the pumped model, or an oscillator absorber of even dimension.  A
    coupling may be zero, down to H = 0."""
    coupling = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))
    orders = draw(st.sampled_from([(1,), (2,), (1, 2)]))
    kw = dict(interactions=tuple(Interaction(k, draw(coupling)) for k in orders),
              cutoff=draw(st.integers(3, 8)))
    kind = draw(st.sampled_from(["qubit", "pumped", "oscillator"]))
    if kind == "pumped":
        kw.update(pump=0j, pump_dim=draw(st.integers(2, 5)))
    elif kind == "oscillator":
        kw.update(absorber="oscillator", absorber_dim=draw(st.sampled_from([2, 4, 6])))
    return ModelSpec(**kw)


@st.composite
def sector_models(draw):
    """Chiral models whose coupling block B falls into connected blocks: the
    pumped model up to cutoff 12 and pump dimension 8, whose every term
    conserves M = 2P_e + n_b + n_a, and qubit models of one order (many
    blocks) or two (one block).  A coupling may be zero, down to B = 0."""
    coupling = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))
    orders = draw(st.sampled_from([(1,), (2,), (1, 2)]))
    kw = dict(interactions=tuple(Interaction(k, draw(coupling)) for k in orders),
              cutoff=draw(st.integers(3, 12)))
    if draw(st.booleans()):
        kw.update(pump=0j, pump_dim=draw(st.integers(2, 8)))
    return ModelSpec(**kw)


def coupling_block(h):
    """B of a chiral H = [[0, B], [B^T, 0]] over the parity halves."""
    outer, inner = evolution._parity_halves(h.layout)
    return h.entries.reshape(outer, 2, inner, outer, 2, inner)[:, 0, :, :, 1].reshape(
        outer * inner, -1)


def switch_config(spec, segments, n):
    """A switch run of the model from |g, n>; `segments` holds (order, raw
    duration t) pairs, given to the schedule as tau = t * tau scale."""
    return ScenarioConfig(model=spec, initial=InitialStateSpec("fock", n=n),
                          schedule=ScheduleSpec(type="switch", segments=tuple(
                              SwitchSegment(k, t * spec.tau_scale()) for k, t in segments)))


def switch_states(spec, segments, n):
    """The joint states at the segment boundaries of `switch_config`'s run."""
    out = []
    experiments._evolve(switch_config(spec, segments, n), spec.cutoff, None, out.append, {})
    return out


def vec(state):
    """The one ket of a pure ensemble, in the true frame."""
    assert state.is_vector
    return state.true_kets()[:, 0]


class TestUnitaryEvolve:
    def test_zero_hamiltonian_is_identity(self):
        s = two_body(g1=0.0, g2=0.0, cutoff=8)
        psi0 = fock_state(s, 3)
        for stt in evolve(build_hamiltonian(s), psi0, [0.0, 1.0, 5.0]):
            assert np.allclose(vec(stt), vec(psi0), atol=1e-12)

    def test_eigenstate_acquires_pure_phase(self):
        s = two_body(g1=0.0, g2=0.0, cutoff=8, omega=1.0, Omega=1.0)
        h = build_hamiltonian(s)
        psi0 = fock_state(s, 4)
        red0 = partial_trace(psi0, "osc").density()
        for stt in evolve(h, psi0, [0.7, 2.1]):
            assert abs(abs(np.vdot(vec(psi0), vec(stt))) - 1.0) < 1e-12
            assert np.allclose(partial_trace(stt, "osc").density(), red0, atol=1e-12)

    def test_linear_exchange_rabi_populations(self):
        # two-level block solved by hand: |g,1> <-> |e,0> at rate g
        s = ModelSpec(interactions=(Interaction(1, 1.0),), cutoff=6)
        h = build_hamiltonian(s)
        psi0 = fock_state(s, 1)
        times = np.linspace(0.0, 3.0, 11)
        for t, stt in zip(times, evolve(h, psi0, times)):
            amps = vec(stt).reshape(2, 6)
            assert abs(amps[0, 1]) ** 2 == pytest.approx(np.cos(t) ** 2, abs=1e-12)
            assert abs(amps[1, 0]) ** 2 == pytest.approx(np.sin(t) ** 2, abs=1e-12)

    def test_norm_and_energy_conservation(self):
        s = two_body(cutoff=30)
        h = build_hamiltonian(s)
        psi0 = fock_state(s, 5)
        e0 = np.vdot(vec(psi0), h.entries @ vec(psi0)).real
        for stt in evolve(h, psi0, np.linspace(0.0, 20.0, 21)):
            assert abs(np.linalg.norm(vec(stt)) - 1.0) < 1e-10
            e = np.vdot(vec(stt), h.entries @ vec(stt)).real
            assert abs(e - e0) < 1e-9

    def test_resonant_excitation_number_constant(self):
        s = two_body(g2=0.0, cutoff=20, omega=1.0, Omega=1.0)
        h = build_hamiltonian(s)
        n_op = oracles.excitation_number(1, 2, s.cutoff)
        psi0 = fock_state(s, 4)
        vals = [np.vdot(vec(stt), n_op @ vec(stt)).real
                for stt in evolve(h, psi0, np.linspace(0.0, 10.0, 11))]
        assert max(vals) - min(vals) < 1e-9

    def test_combined_interaction_pumps_energy(self):
        # excitation number is not conserved once both orders act together
        s = two_body(cutoff=60)
        h = build_hamiltonian(s)
        psi0 = fock_state(s, 7)
        taus = np.linspace(0.0, 2 * np.pi, 60)
        states = evolve(h, psi0, taus / 0.1)
        for k in (1, 2):
            n_op = oracles.excitation_number(k, 2, s.cutoff)
            vals = [np.vdot(vec(stt), n_op @ vec(stt)).real for stt in states]
            assert max(vals) - min(vals) > 0.01

    def test_leakage_flag_on_top_population(self):
        s = ModelSpec(interactions=(Interaction(1, 1.0),), cutoff=8)
        # |g, 7> sits in the top of an 8-level space
        run = run_point(switch_config(s, [(1, 0.1)], n=7))
        assert run.leakage_flag
        assert run.records[0].leakage == pytest.approx(1.0)


class TestHamiltonianPropagator:
    @given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.floats(0.0, 3.0))
    def test_matches_matrix_exponential(self, seed, dim, t):
        rng = np.random.default_rng(seed)
        layout = SpaceLayout.single("osc", dim)
        h = random_hamiltonian(layout, rng)
        prop = HamiltonianPropagator(h)
        assert prop.eigenvectors.dtype == np.float64
        u = scipy.linalg.expm(-1j * t * h.entries)
        psi0 = KetEnsemble(layout, random_ket(rng, dim)[:, None])
        rho0 = KetEnsemble(layout, random_kets(rng, dim, dim))
        assert np.max(np.abs(vec(prop.state_at(psi0, t)) - u @ vec(psi0))) < 1e-12
        assert np.max(np.abs(prop.state_at(rho0, t).density()
                             - u @ rho0.density() @ u.conj().T)) < 1e-12

    @given(chiral_models(), st.integers(0, 2**32 - 1), st.floats(0.0, 5.0))
    def test_chiral_models_match_expm(self, spec, seed, t):
        h = build_hamiltonian(spec)
        layout = spec.layout()
        prop = HamiltonianPropagator(h)
        e = prop.eigenvalues
        half = len(e) // 2
        assert np.array_equal(e[:half], -e[half:])       # taken from the coupling block
        assert prop.eigenvectors is None
        # exp(-iHt) in the parity frame, F U F^dag, is the real map built from the SVD
        o = prop.orthogonal_map(t)
        assert o.dtype == np.float64
        assert np.max(np.abs(o.T @ o - np.eye(len(e)))) < 1e-12
        u = scipy.linalg.expm(-1j * t * h.entries)
        frame_u = parity_frame(layout, parity_frame(layout, u).T, inverse=True).T
        assert np.max(np.abs(o - frame_u)) < 1e-10
        kets = random_kets(np.random.default_rng(seed), len(e), 3)
        state0 = KetEnsemble(layout, parity_frame(layout, kets))
        assert np.max(np.abs(prop.state_at(state0, t).true_kets() - u @ kets)) < 1e-10

    @given(sector_models(), st.integers(0, 2**32 - 1), st.floats(0.0, 5.0))
    @example(two_body(cutoff=12), 0, 1.0)                       # one block
    @example(two_body(cutoff=12, pump=0j, pump_dim=8), 0, 1.0)  # many, some rectangular
    def test_coupling_block_svd_by_connected_blocks(self, spec, seed, t):
        h = build_hamiltonian(spec)
        layout = spec.layout()
        b = coupling_block(h)
        n = len(b)
        prop = HamiltonianPropagator(h)
        u, s, wt = prop._svd
        assert np.max(np.abs(u.T @ u - np.eye(n))) < 1e-12
        assert np.max(np.abs(wt @ wt.T - np.eye(n))) < 1e-12
        assert np.max(np.abs((u * s) @ wt - b)) < 1e-12
        # the connected blocks of B's nonzero bipartite graph, rows then columns
        graph = scipy.sparse.bmat([[None, scipy.sparse.csr_matrix(b)], [b.T, None]])
        label = scipy.sparse.csgraph.connected_components(graph, directed=False)[1]
        if len(np.unique(label[:n][b.any(axis=1)])) <= 1:
            for got, want in zip(prop._svd, np.linalg.svd(b)):
                assert np.array_equal(got, want)
        else:
            # every singular vector lies in one block
            for vectors, block in ((u.T, label[:n]), (wt, label[n:])):
                for v in vectors:
                    assert len(np.unique(block[v != 0])) == 1
        u_t = scipy.linalg.expm(-1j * t * h.entries)
        kets = random_kets(np.random.default_rng(seed), 2 * n, 3)
        state0 = KetEnsemble(layout, parity_frame(layout, kets))
        assert np.max(np.abs(prop.state_at(state0, t).true_kets() - u_t @ kets)) < 1e-10

    def test_chiral_zero_modes(self):
        # B is rank-deficient in every qubit model: |g,0> has no partner to
        # lower into, so it is a zero mode and stays put
        s = two_body(cutoff=10)
        prop = HamiltonianPropagator(build_hamiltonian(s))
        assert np.sum(np.abs(prop.eigenvalues) < 1e-12) >= 2
        ground = fock_state(s, 0)
        assert np.max(np.abs(prop.state_at(ground, 3.7).kets - ground.kets)) < 1e-12

    @pytest.mark.parametrize("kw, level", [
        (dict(omega=0.5), None), (dict(Omega=0.5), None), (dict(Delta=0.5), None),
        (dict(pump=0j, pump_dim=3, nu=0.5), None),
        (dict(absorber="oscillator", absorber_dim=3), None),
        (dict(), 0), (dict(), 6)], ids=["omega", "Omega", "Delta", "nu", "odd", "g0", "e0"])
    def test_non_chiral_models_use_dense_eigh(self, kw, level):
        h = build_hamiltonian(two_body(cutoff=6, **kw))
        if level is not None:       # one diagonal entry on an even or an odd absorber level
            entries = h.entries.copy()
            entries[level, level] = 0.5
            h = Hamiltonian(h.layout, entries)
        prop = HamiltonianPropagator(h)
        e, v = np.linalg.eigh(h.entries)
        assert np.array_equal(prop.eigenvalues, e)
        assert np.array_equal(prop.eigenvectors, v)

    def test_zero_time_returns_the_input(self, rng):
        # a Fock input keeps exactly zero number spread at t = 0
        s = two_body(cutoff=40)
        prop = HamiltonianPropagator(build_hamiltonian(s))
        rho0 = KetEnsemble(s.layout(), random_kets(rng, 80, 80))
        for state0 in (fock_state(s, 7), rho0):
            assert np.array_equal(prop.state_at(state0, 0.0).kets, state0.kets)


@st.composite
def parity_frame_runs(draw):
    """A small chiral model (a qubit or an even oscillator absorber, with or
    without a pump at a real or a complex amplitude), an input that is real
    and diagonal in the Fock basis or coherent at a complex beta, and the
    durations of four pieces, the dephased last one short."""
    coupling = st.floats(-1.0, 1.0)
    kw = dict(interactions=(Interaction(1, draw(coupling)), Interaction(2, draw(coupling))),
              cutoff=draw(st.integers(6, 7)))
    kind = draw(st.sampled_from(["qubit", "pumped", "oscillator"]))
    if kind == "pumped":
        kw.update(pump=draw(st.sampled_from([0j, 0.4 + 0j, 0.3 - 0.2j])), pump_dim=6)
    elif kind == "oscillator":
        kw.update(absorber="oscillator", absorber_dim=draw(st.sampled_from([2, 4])))
    n = draw(st.integers(0, kw["cutoff"] - 1))
    initial = draw(st.sampled_from([
        InitialStateSpec("fock", n=n), InitialStateSpec("admixture", n=n, p=0.3),
        InitialStateSpec("thermal", nbar=0.1), InitialStateSpec("coherent", beta=0.3 + 0.4j)]))
    times = [draw(st.floats(0.0, 3.0)) for _ in range(3)] + [draw(st.floats(0.0, 0.5))]
    return ModelSpec(**kw), initial, times


class TestParityFrame:
    """Kets are held in the absorber-parity frame, where a chiral model's
    evolution is real; every true-frame density and reduced state agrees with
    exp(-iHt) from scipy.linalg.expm."""

    @staticmethod
    def agree(state, rho):
        """The state's true-frame density, and its reduced oscillator and
        absorber states, against the dense reference rho, to 1e-10."""
        layout = state.layout
        assert np.max(np.abs(state.density() - rho)) < 1e-10
        for keep in ("osc", "absorber"):
            want = partial_trace(QuantumState(layout, rho), keep).data
            got = partial_trace(state, keep)
            assert np.max(np.abs(got.density() - want)) < 1e-10

    @given(parity_frame_runs())
    def test_switch_pieces_match_expm(self, run):
        # two chiral pieces (the model, then its order-2 term alone, as in a
        # switch schedule), then a non-chiral piece (free terms) and a dephased
        # piece, each from the second piece's end state
        spec, initial, (t1, t2, t3, t4) = run
        layout = spec.layout()
        state0 = make_state(initial, layout, pump_amplitude=spec.pump)
        real = initial.kind != "coherent" and np.imag(spec.pump or 0.0) == 0
        assert np.isrealobj(state0.kets) == real
        # the absorber starts in its (even) ground level: the frame is the identity
        rho0 = state0.kets @ state0.kets.conj().T

        h1 = build_hamiltonian(spec)
        prop = HamiltonianPropagator(h1)
        state1 = prop.state_at(prop.expand(state0), t1)
        assert np.isrealobj(state1.kets) == real
        u1 = scipy.linalg.expm(-1j * t1 * h1.entries)
        rho1 = u1 @ rho0 @ u1.conj().T
        self.agree(state1, rho1)

        h2 = build_hamiltonian(replace(spec, interactions=spec.interactions[1:]))
        state2 = HamiltonianPropagator(h2).state_at(state1, t2)
        assert np.isrealobj(state2.kets) == real
        u2 = scipy.linalg.expm(-1j * t2 * h2.entries)
        rho2 = u2 @ rho1 @ u2.conj().T
        self.agree(state2, rho2)

        h3 = build_hamiltonian(replace(spec, omega=0.3, Omega=0.2))
        state3 = HamiltonianPropagator(h3).state_at(state2, t3)
        u3 = scipy.linalg.expm(-1j * t3 * h3.entries)
        self.agree(state3, u3 @ rho2 @ u3.conj().T)

        # the integrator's error is its tolerance (see TestLindblad), so the
        # dephased piece is checked against its own run from the expm state
        jumps = dephasing_dissipator(0.3, spec)
        state4, = lindblad_evolve(h1, jumps, state2, [t4], tol=1e-7).states
        want, = lindblad_evolve(h1, jumps, QuantumState(layout, rho2), [t4], tol=1e-7).states
        self.agree(state4, want.data)

    def test_conversions_are_exact(self, rng):
        layout = two_body(cutoff=5, absorber="oscillator", absorber_dim=4).layout()
        kets = random_kets(rng, layout.total_dim, 3)
        framed = parity_frame(layout, kets)
        assert np.array_equal(KetEnsemble(layout, framed).true_kets(), kets)
        got, want = framed.reshape(4, 5, 3), kets.reshape(4, 5, 3)
        assert np.array_equal(got[::2], want[::2])
        # i (a + ib) = -b + ia on the odd absorber levels
        assert np.array_equal(got[1::2].real, -want[1::2].imag)
        assert np.array_equal(got[1::2].imag, want[1::2].real)


class TestSwitchCoefficients:
    def test_initial_time(self):
        alpha, beta, gamma, delta = oracles.switch_amplitudes(5, 1.0, 0.1, 0.0)
        assert alpha == 1.0
        assert beta == 0.0 and gamma == 0.0 and delta == 0.0

    def test_pure_linear_limit(self):
        n, g1, t = 6, 0.8, 0.9
        alpha, beta, gamma, delta = oracles.switch_amplitudes(n, g1, 0.0, t)
        assert alpha == pytest.approx(np.cos(g1 * np.sqrt(n) * t))
        assert beta == 0.0
        assert delta == 0.0
        assert gamma == pytest.approx(-1j * np.sin(g1 * np.sqrt(n) * t))

    @given(st.integers(min_value=2, max_value=12),
           st.floats(min_value=0.1, max_value=2.0),
           st.floats(min_value=0.0, max_value=2.0),
           st.floats(min_value=0.0, max_value=20.0))
    def test_normalization_identity(self, n, g1, g2, t):
        amps = np.array(oracles.switch_amplitudes(n, g1, g2, t))
        assert abs(np.sum(np.abs(amps) ** 2) - 1.0) < 1e-12

    @pytest.mark.parametrize("n,g1,g2,t", [
        (7, 1.0, 0.1, 15.7), (2, 1.0, 0.1, 1.57), (4, 0.7, 0.9, 3.3), (9, 1.0, 1.0, 0.25),
    ])
    def test_matches_numerical_sequential_propagation(self, n, g1, g2, t):
        cutoff = n + 6
        s = two_body(cutoff=cutoff, g1=g1, g2=g2)
        states = switch_states(s, [(1, t), (2, t)], n)
        ket = oracles.switch_ket(n, g1, g2, t, cutoff)
        assert np.max(np.abs(ket - states[-1].true_kets())) < 1e-9

    def test_needs_two_quanta(self):
        with pytest.raises(ValueError):
            oracles.switch_amplitudes(1, 1.0, 0.1, 0.5)


class TestSequentialSwitch:
    """Switch schedules: each segment runs the configured model with only the
    segment's interaction on."""

    def test_single_interaction_leaves_fock_diagonal(self):
        s = two_body(cutoff=16)
        for t in (0.5, 1.57, 4.0):
            state, = switch_states(s, [(1, t)], 7)
            red = partial_trace(state, "osc").density()
            assert coherence(red) < 1e-12

    def test_order_matters(self):
        s = two_body(cutoff=20)
        forward = switch_states(s, [(1, 15.7), (2, 15.7)], 7)
        reverse = switch_states(s, [(2, 15.7), (1, 15.7)], 7)
        c_fwd = coherence(partial_trace(forward[-1], "osc").density())
        c_rev = coherence(partial_trace(reverse[-1], "osc").density())
        assert abs(c_fwd - c_rev) > 1e-3

    def test_records_each_segment_boundary(self):
        run = run_point(switch_config(two_body(cutoff=12), [(1, 0.3), (2, 0.4), (1, 0.5)], 3))
        assert np.allclose(run.times, [0.3, 0.7, 1.2])
        assert len(run.records) == 3

    @pytest.mark.parametrize("changes", [
        dict(omega=0.5, Omega=0.5), dict(Delta=0.7, Omega=0.3),
        dict(absorber="oscillator", absorber_dim=3, Omega=0.5)],
        ids=["free", "Delta", "oscillator"])
    def test_segments_keep_the_configured_model(self, changes):
        # the product of the propagators of the segment models, free terms,
        # detuning and absorber kept; g2 = 0.5 makes t -> tau -> t exact
        s = two_body(cutoff=12, g2=0.5, **changes)
        got = switch_states(s, [(1, 0.6), (2, 0.9), (1, 0.4)], 5)
        state = fock_state(s, 5)
        for (k, t), stt in zip([(1, 0.6), (2, 0.9), (1, 0.4)], got):
            segment = replace(s, interactions=(Interaction(k, s.coupling(k)),))
            state = HamiltonianPropagator(build_hamiltonian(segment)).state_at(state, t)
            assert np.array_equal(stt.kets, state.kets)

    def test_dephased_switch_chains_lindblad(self):
        s = two_body(cutoff=10, g2=0.5, dephasing_rate=0.2)
        cfg = switch_config(s, [(1, 0.6), (2, 0.9)], 4)
        got = switch_states(s, [(1, 0.6), (2, 0.9)], 4)
        state = fock_state(s, 4)
        jumps = dephasing_dissipator(0.2, s)
        for (k, t), stt in zip([(1, 0.6), (2, 0.9)], got):
            segment = replace(s, interactions=(Interaction(k, s.coupling(k)),))
            state, = lindblad_evolve(build_hamiltonian(segment), jumps, state, [t],
                                     tol=cfg.lindblad_tol).states
            assert np.array_equal(stt.data, state.data)
        # dephasing acts: the unitary switch ends elsewhere
        closed = switch_states(replace(s, dephasing_rate=0.0), [(1, 0.6), (2, 0.9)], 4)
        assert np.max(np.abs(closed[-1].density() - got[-1].data)) > 1e-3


class TestProductFormula:
    """The first-order product U1(t) U2(t) of the two single-interaction
    propagators against the exact combined evolution."""

    @staticmethod
    def product(t, psi0, g1=1.0, g2=0.1):
        cutoff = psi0.layout.dim("osc")
        p1, p2 = (HamiltonianPropagator(build_hamiltonian(
            ModelSpec(interactions=(Interaction(k, g),), cutoff=cutoff)))
            for k, g in ((1, g1), (2, g2)))
        return p1.state_at(p2.state_at(psi0, t), t)

    def test_zero_time_is_identity(self):
        s = two_body(cutoff=12)
        psi0 = fock_state(s, 4)
        out = self.product(0.0, psi0)
        assert np.allclose(vec(out), vec(psi0), atol=1e-14)

    def test_short_time_overlap_with_exact(self):
        s = two_body(cutoff=20)
        psi0 = fock_state(s, 7)
        exact = HamiltonianPropagator(build_hamiltonian(s)).state_at(psi0, 1e-3)
        approx = self.product(1e-3, psi0)
        assert abs(np.vdot(vec(exact), vec(approx))) >= 1 - 1e-5

    def test_second_order_error_scaling(self):
        s = two_body(cutoff=24)
        psi0 = fock_state(s, 6)
        prop = HamiltonianPropagator(build_hamiltonian(s))

        def err(t):
            exact = prop.state_at(psi0, t)
            approx = self.product(t, psi0)
            return np.linalg.norm(vec(exact) - vec(approx))

        ratio = err(0.2) / err(0.1)
        assert 3.0 < ratio < 5.0


def vectorized_lindbladian(h, jumps) -> np.ndarray:
    """The generator of the master equation on column-major vec(rho), for the
    real diagonals `jumps` of the jump operators: vec(A X B) = kron(B^T, A) vec(X)."""
    hm = h.entries
    eye = np.eye(len(hm))
    gen = -1j * (np.kron(eye, hm) - np.kron(hm.T, eye))
    for d in jumps:
        j = np.diag(d)
        jj = j.T @ j
        gen += np.kron(j, j) - 0.5 * (np.kron(eye, jj) + np.kron(jj.T, eye))
    return gen


class TestLindblad:
    def small(self, cutoff=10, gamma=0.2):
        s = two_body(cutoff=cutoff, dephasing_rate=gamma)
        return s, build_hamiltonian(s), dephasing_dissipator(gamma, s)

    def test_closed_system_matches_unitary(self, rng):
        s, h, _ = self.small(gamma=0.0)
        rho0 = KetEnsemble(s.layout(), random_kets(rng, s.layout().total_dim,
                                                   s.layout().total_dim))
        times = [0.5, 1.5]
        res_me = lindblad_evolve(h, [], rho0, times, tol=1e-10)
        for a, b in zip(res_me.states, evolve(h, rho0, times)):
            diff = np.linalg.eigvalsh(a.data - b.density())
            assert 0.5 * np.abs(diff).sum() < 1e-7    # trace distance

    def test_diagonal_states_are_dephasing_fixed_points(self, rng):
        s, _, jumps = self.small()
        zero_h = zero_hamiltonian(s)
        pops = rng.random(s.layout().total_dim)
        rho0 = QuantumState(s.layout(), np.diag(pops / pops.sum()).astype(complex))
        res = lindblad_evolve(zero_h, jumps, rho0, [2.0], tol=1e-9)
        assert np.max(np.abs(res.states[-1].data - rho0.data)) < 1e-9

    def test_analytic_off_diagonal_decay(self):
        # (|0>+|2>)/sqrt(2) under pure number dephasing: rho02(t) = rho02(0) e^{-2 gamma t}
        gamma = 0.3
        s, _, jumps = self.small(gamma=gamma)
        zero_h = zero_hamiltonian(s)
        dim = s.layout().total_dim
        vec = np.zeros(dim, complex)
        vec[0] = vec[2] = 1 / np.sqrt(2)
        rho0 = QuantumState(s.layout(), np.outer(vec, vec.conj()))
        times = [0.4, 1.0, 2.5]
        res = lindblad_evolve(zero_h, jumps, rho0, times, tol=1e-10)
        for t, stt in zip(times, res.states):
            assert stt.data[0, 2] == pytest.approx(0.5 * np.exp(-2 * gamma * t), abs=1e-7)

    def test_trace_preserved_to_roundoff(self, rng):
        s, h, jumps = self.small()
        rho0 = QuantumState(s.layout(), random_density(rng, s.layout().total_dim))
        res = lindblad_evolve(h, jumps, rho0, [3.0], tol=1e-6)
        assert abs(np.trace(res.states[-1].data) - 1.0) < 1e-10

    def test_tolerance_controls_error(self, rng):
        s, h, jumps = self.small(cutoff=8)
        rho0 = QuantumState(s.layout(), random_density(rng, s.layout().total_dim))
        ref = lindblad_evolve(h, jumps, rho0, [2.0], tol=1e-12).states[-1].data
        errs = {tol: np.max(np.abs(
            lindblad_evolve(h, jumps, rho0, [2.0], tol=tol).states[-1].data - ref))
            for tol in (1e-4, 1e-6, 1e-8)}
        assert errs[1e-4] > errs[1e-6] > errs[1e-8]
        assert errs[1e-4] / errs[1e-8] > 50

    def test_step_underflow_raises_with_time_reached(self, rng):
        s, h, jumps = self.small(cutoff=6)
        rho0 = QuantumState(s.layout(), random_density(rng, s.layout().total_dim))
        with pytest.raises(IntegrationError) as err:
            lindblad_evolve(h, jumps, rho0, [1.0], tol=1e-300)
        assert err.value.time_reached < 1.0

    def test_rejects_negative_output_time(self, rng):
        s, h, jumps = self.small(cutoff=6)
        rho0 = QuantumState(s.layout(), random_density(rng, s.layout().total_dim))
        with pytest.raises(StateError):
            lindblad_evolve(h, jumps, rho0, [-0.1, 1.0])

    def test_rejects_decreasing_output_times(self, rng):
        s, h, jumps = self.small(cutoff=6)
        rho0 = QuantumState(s.layout(), random_density(rng, s.layout().total_dim))
        with pytest.raises(StateError, match="0.2 follows 0.5"):
            lindblad_evolve(h, jumps, rho0, [0.0, 0.5, 0.2])

    def test_rejects_repeated_output_times_before_integrating(self, rng, monkeypatch):
        s, h, jumps = self.small(cutoff=6)
        rho0 = QuantumState(s.layout(), random_density(rng, s.layout().total_dim))
        for seam in ("attempt", "__call__"):
            monkeypatch.setattr(evolution._StrangStep, seam,
                                lambda *args: pytest.fail("integrated before the check"))
        with pytest.raises(StateError, match="0.1 follows 0.1"):
            lindblad_evolve(h, jumps, rho0, [0.1, 0.1])

    def test_positivity_error_names_output_time(self):
        # a trace-1 Hermitian input with eigenvalues (1.2, -0.2) trips at t = 0
        s, h, jumps = self.small(cutoff=6)
        dim = s.layout().total_dim
        rho0 = QuantumState(s.layout(), np.diag([1.2, -0.2] + [0.0] * (dim - 2)))
        with pytest.raises(StateError, match=r"eigenvalue .*\(output time: 0\)"):
            lindblad_evolve(h, jumps, rho0, [0.0, 0.5])

    def test_accepts_vector_initial_state(self):
        s, h, jumps = self.small()
        psi0 = fock_state(s, 2)
        res = lindblad_evolve(h, jumps, psi0, [0.5], tol=1e-8)
        assert isinstance(res.states[-1], QuantumState)

    @given(cutoff=st.integers(4, 8), gamma=st.floats(0.05, 2.0),
           seed=st.integers(0, 2**32 - 1))
    def test_positive_at_loose_tolerance(self, cutoff, gamma, seed):
        # every step is a CPTP map, so positivity does not hinge on the tolerance
        s, h, jumps = self.small(cutoff=cutoff, gamma=gamma)
        dim = s.layout().total_dim
        psi0 = KetEnsemble(s.layout(), random_ket(np.random.default_rng(seed), dim)[:, None])
        res = lindblad_evolve(h, jumps, psi0, np.linspace(0.25, 5.0, 20), tol=1e-3)
        for stt in res.states:
            assert np.linalg.eigvalsh(stt.data)[0] > -1e-12
            assert np.array_equal(stt.data, stt.data.conj().T)

    def test_states_do_not_depend_on_the_output_grid(self, rng):
        s, h, jumps = self.small(cutoff=8)
        rho0 = QuantumState(s.layout(), random_density(rng, s.layout().total_dim))
        picked = [0.7, 2.0]
        grid = np.union1d(np.linspace(0.05, 2.5, 40), picked)
        dense = lindblad_evolve(h, jumps, rho0, grid, tol=1e-6)
        together = lindblad_evolve(h, jumps, rho0, picked, tol=1e-6)
        for k, t in enumerate(picked):
            alone = lindblad_evolve(h, jumps, rho0, [t], tol=1e-6).states[0].data
            in_grid = dense.states[int(np.flatnonzero(grid == t)[0])].data
            assert np.array_equal(alone, in_grid)
            assert np.array_equal(alone, together.states[k].data)

    @pytest.mark.parametrize("random_h, signed_jump", [
        pytest.param(False, False, id="False"), pytest.param(True, False, id="True"),
        pytest.param(False, True, id="signed_jump")])
    def test_matches_exponential_of_vectorized_lindbladian(self, rng, random_h, signed_jump):
        # beside the model: a structureless real H, and a real diagonal jump
        # whose entries take both signs
        s, h, jumps = self.small(cutoff=8, gamma=0.3)
        layout = s.layout()
        dim = layout.total_dim
        if random_h:
            h = random_hamiltonian(layout, rng)
        if signed_jump:
            jumps = [jumps[0] * rng.choice([-1.0, 1.0], dim)]
        rho0 = QuantumState(layout, random_density(rng, dim))
        gen = vectorized_lindbladian(h, jumps)
        times = [0.0, 0.5, 2.0]
        res = lindblad_evolve(h, jumps, rho0, times, tol=1e-10)
        for t, stt in zip(times, res.states):
            exact = (scipy.linalg.expm(t * gen) @ rho0.data.ravel(order="F"))
            exact = exact.reshape((dim, dim), order="F")
            assert np.max(np.abs(stt.data - exact)) < 1e-7
            assert np.array_equal(stt.data, stt.data.conj().T)

    # every example integrates at tol 1e-10, so shrinking a failure would take
    # minutes: report the first failing example as found
    @settings(phases=[p for p in Phase if p != Phase.shrink])
    @given(spec=chiral_models(), gamma=st.floats(0.05, 1.0), real=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_dephased_chiral_models_match_vectorized_lindbladian(self, spec, gamma, real, seed):
        # the oscillator absorber of dimension 4 or 6 interleaves the parity
        # halves in storage order; real kets in the parity frame keep the
        # run real there
        layout = spec.layout()
        dim = layout.total_dim
        assume(dim <= 24)
        rng = np.random.default_rng(seed)
        h, jumps = build_hamiltonian(spec), dephasing_dissipator(gamma, spec)
        if real:
            kets = rng.normal(size=(dim, 3))
            rho0 = KetEnsemble(layout, kets / np.linalg.norm(kets))
        else:
            rho0 = QuantumState(layout, random_density(rng, dim))
        res = lindblad_evolve(h, jumps, rho0, [0.0, 0.5, 2.0], tol=1e-10)
        assert res.step.chiral
        quarter = scipy.linalg.expm(0.5 * vectorized_lindbladian(h, jumps))
        exact = rho0.density().ravel(order="F")
        for stt, powers in zip(res.states, (0, 1, 3)):
            for _ in range(powers):
                exact = quarter @ exact
            assert np.max(np.abs(stt.data - exact.reshape((dim, dim), order="F"))) < 1e-7
            assert np.array_equal(stt.data, stt.data.conj().T)
            if real:
                assert not np.imag(res.step.frame(stt.data)).any()


@st.composite
def non_chiral_models(draw):
    """Small models whose H also couples absorber levels of one parity: a
    free oscillator term, a detuning, or an oscillator absorber of odd
    dimension."""
    kw = dict(interactions=(Interaction(1, draw(st.floats(-2.0, 2.0))),
                            Interaction(2, draw(st.floats(-2.0, 2.0)))),
              cutoff=draw(st.integers(3, 8)))
    kind = draw(st.sampled_from(["omega", "Delta", "odd"]))
    if kind == "odd":
        kw.update(absorber="oscillator", absorber_dim=draw(st.sampled_from([3, 5])))
    else:
        kw[kind] = draw(st.floats(0.1, 2.0))
    return ModelSpec(**kw)


class TestStrangStep:
    """One step on the real encoding M = Re rho + Im rho, in the step's frame,
    against the complex formula of the `_StrangStep` docstring with the
    matrix exponential of H."""

    @given(model=st.one_of(chiral_models().map(lambda spec: (spec, True)),
                           non_chiral_models().map(lambda spec: (spec, False))),
           seed=st.integers(0, 2**32 - 1), h=st.floats(1e-3, 2.0))
    def test_matches_complex_formula(self, model, seed, h):
        spec, chiral = model
        rng = np.random.default_rng(seed)
        dim = spec.layout().total_dim
        ham, jumps = build_hamiltonian(spec), dephasing_dissipator(0.3, spec)
        step = evolution._StrangStep(ham, jumps)
        assert step.chiral == chiral
        assert step.rates.dtype == np.float64
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = (a + a.conj().T) / np.linalg.norm(a)

        framed = step.frame(rho)
        m = step(framed.real + framed.imag, h)
        got = step.frame(0.5 * (m + m.T) + 0.5j * (m - m.T), inverse=True)

        u = scipy.linalg.expm(-1j * h * ham.entries)
        d = jumps[0].astype(complex)
        w = np.abs(d) ** 2
        e = np.exp(0.5 * h * (np.outer(d, d.conj()) - 0.5 * (w[:, None] + w[None, :])))
        want = e * (u @ (e * rho) @ u.conj().T)
        assert np.max(np.abs(got - want)) < 1e-13


class TestTopLevelPopulation:
    def test_counts_top_five_levels(self):
        s = two_body(cutoff=12)
        psi = fock_state(s, 8)
        assert diagnose(partial_trace(psi, "osc")).leakage == pytest.approx(1.0)
        assert diagnose(partial_trace(fock_state(s, 2), "osc")).leakage == 0.0
