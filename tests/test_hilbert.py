import numpy as np
import pytest
from hypothesis import given, strategies as st

from cohabs.errors import DimensionError, LayoutError, StateError
from cohabs.hilbert import (KetEnsemble, QuantumState, SpaceLayout, check_positive,
                            partial_trace)
from cohabs.models import (Interaction, ModelSpec, _ladder, _number, build_hamiltonian,
                           dephasing_dissipator)
from conftest import random_density, random_ket

SIGMA_Z = np.diag([-1.0, 1.0])      # storage order (g, e)


def qubit_osc(cutoff):
    return SpaceLayout((("absorber", 2), ("osc", cutoff)))


def dense(triplet, dim):
    """A single-factor term of `models` as a dense matrix."""
    rows, cols, values = triplet
    out = np.zeros((dim, dim))
    out[rows, cols] = values
    return out


def basis_ket(layout, **occupations):
    """The product basis ket with the given per-factor indices, 0 elsewhere."""
    index = np.ravel_multi_index([occupations.get(lab, 0) for lab in layout.labels],
                                 layout.dims)
    ket = np.zeros((layout.total_dim, 1), complex)
    ket[index] = 1.0
    return KetEnsemble(layout, ket)


class TestAnnihilation:
    """The ladder matrices every Hamiltonian term of `models` is built from."""

    def test_cutoff_two_single_entry(self):
        assert np.array_equal(dense(_ladder(2), 2), np.array([[0, 1], [0, 0]], float))

    def test_sqrt_ladder_entry(self):
        assert dense(_ladder(3), 3)[1, 2] == pytest.approx(np.sqrt(2))

    @pytest.mark.parametrize("cutoff", [2, 5, 17])
    def test_commutator_is_identity_except_top_level(self, cutoff):
        # direct matrix-product oracle
        b = dense(_ladder(cutoff), cutoff)
        comm = b @ b.T - b.T @ b
        expected = np.eye(cutoff)
        expected[-1, -1] = -(cutoff - 1)
        # squaring the correctly rounded sqrt entries costs at most one ulp
        assert np.allclose(comm, expected, rtol=0.0, atol=1e-12)

    def test_rejects_tiny_cutoff(self):
        with pytest.raises(DimensionError):
            ModelSpec(interactions=(Interaction(1, 1.0),), cutoff=1)

    def test_number_operator_is_bdag_b(self):
        b = dense(_ladder(6), 6)
        assert np.allclose(dense(_number(6), 6), b.T @ b, rtol=0.0, atol=1e-13)


class TestQubitOperators:
    """On two levels the ladder is sigma- = |g><e| in (g, e) order."""

    def test_raising_lowering_projector(self):
        sm = dense(_ladder(2), 2)
        # projector onto the excited state; storage order is (g, e)
        assert np.array_equal(sm.T @ sm, np.diag([0.0, 1.0]))

    def test_nilpotency(self):
        sp = dense(_ladder(2), 2).T
        assert np.all(sp @ sp == 0)

    def test_pauli_commutator(self):
        sm = dense(_ladder(2), 2)
        assert np.array_equal(sm.T @ sm - sm @ sm.T, SIGMA_Z)

    def test_sigma_z_storage_order(self):
        # the qubit's free term (Omega/2) sigma_z (x) 1 at Omega = 2
        spec = ModelSpec(interactions=(Interaction(1, 0.0),), Omega=2.0, cutoff=2)
        assert np.array_equal(build_hamiltonian(spec).entries, np.kron(SIGMA_Z, np.eye(2)))


class TestTensor:
    def test_sigma_z_eigenvector(self):
        # the free term (Omega/2) sigma_z (x) 1 at Omega = 2: |g, 3> has eigenvalue -1
        spec = ModelSpec(interactions=(Interaction(1, 0.0),), Omega=2.0, cutoff=5)
        h = build_hamiltonian(spec)
        ket = basis_ket(h.layout, absorber=0, osc=3)
        assert np.allclose(h.entries @ ket.kets, -ket.kets)


class TestPartialTrace:
    def test_product_state(self):
        lay = qubit_osc(6)
        psi = basis_ket(lay, absorber=0, osc=4)
        red = partial_trace(psi, "osc")
        expected = np.zeros((6, 6), complex)
        expected[4, 4] = 1.0
        assert np.allclose(red.density(), expected, atol=1e-14)

    def test_maximally_entangled_pair(self):
        lay = qubit_osc(2)
        vec = np.zeros(4, complex)
        vec[0] = vec[3] = 1 / np.sqrt(2)      # (|g,0> + |e,1>)/sqrt(2)
        red = partial_trace(KetEnsemble(lay, vec[:, None]), "osc")
        assert np.allclose(red.density(), np.eye(2) / 2, atol=1e-14)

    def test_four_component_branch_expansion(self, rng):
        # reduced state of |g>(a|n> + b|n+1>) + |e>(c|n-1> + d|n-2>) equals
        # the sum of the two branch projectors, expanded by hand
        n, cutoff = 5, 12
        amps = random_ket(rng, 4)
        a, b, c, d = amps
        vec = np.zeros(2 * cutoff, complex)
        vec[n], vec[n + 1] = a, b
        vec[cutoff + n - 1], vec[cutoff + n - 2] = c, d
        red = partial_trace(KetEnsemble(qubit_osc(cutoff), vec[:, None]), "osc")
        g_branch = np.zeros(cutoff, complex)
        g_branch[n], g_branch[n + 1] = a, b
        e_branch = np.zeros(cutoff, complex)
        e_branch[n - 1], e_branch[n - 2] = c, d
        expected = np.outer(g_branch, g_branch.conj()) + np.outer(e_branch, e_branch.conj())
        assert np.allclose(red.density(), expected, atol=1e-12)

    def test_product_density_recovers_factor(self, rng):
        lay = SpaceLayout((("a", 3), ("b", 4)))
        rho_a = random_density(rng, 3)
        rho_b = random_density(rng, 4)
        state = QuantumState(lay, np.kron(rho_a, rho_b))
        assert np.allclose(partial_trace(state, "a").data, rho_a, atol=1e-12)
        assert np.allclose(partial_trace(state, "b").data, rho_b, atol=1e-12)

    def test_preserves_trace_and_hermiticity(self, rng):
        lay = SpaceLayout((("a", 3), ("b", 5)))
        rho = random_density(rng, 15)
        red = partial_trace(QuantumState(lay, rho), "b")
        assert abs(np.trace(red.data) - 1) < 1e-12
        assert np.allclose(red.data, red.data.conj().T, atol=1e-14)

    def test_three_factors(self, rng):
        lay = SpaceLayout((("a", 2), ("b", 3), ("c", 2)))
        rho_parts = [random_density(rng, d) for d in (2, 3, 2)]
        rho = np.kron(np.kron(rho_parts[0], rho_parts[1]), rho_parts[2])
        state = QuantumState(lay, rho)
        assert np.allclose(partial_trace(state, "b").data, rho_parts[1], atol=1e-12)

    def test_unknown_label(self):
        psi = basis_ket(qubit_osc(3))
        with pytest.raises(LayoutError):
            partial_trace(psi, "nope")


class TestValidation:
    def test_layout_needs_unique_labels(self):
        with pytest.raises(LayoutError):
            SpaceLayout((("a", 2), ("a", 3)))

    def test_layout_needs_dim_two(self):
        with pytest.raises(DimensionError):
            SpaceLayout((("a", 1),))

    def test_vector_norm_enforced(self):
        lay = SpaceLayout.single("a", 2)
        with pytest.raises(StateError):
            KetEnsemble(lay, np.array([[1.0], [1.0]], complex))

    def test_density_trace_enforced(self):
        lay = SpaceLayout.single("a", 2)
        with pytest.raises(StateError):
            QuantumState(lay, np.eye(2, dtype=complex))

    def test_positivity_check(self, rng):
        lay = SpaceLayout.single("a", 3)
        rho = np.diag([1.2, -0.1, -0.1]).astype(complex)
        state = QuantumState(lay, rho)
        with pytest.raises(StateError):
            check_positive(state.density(), atol=1e-9)

    def test_states_are_frozen(self):
        psi = basis_ket(qubit_osc(3))
        with pytest.raises(ValueError):
            psi.kets[0, 0] = 0.0

    @given(st.integers(min_value=2, max_value=9))
    def test_embed_matches_kron(self, dim):
        # a single-factor term lifted into the composite layout: the number
        # dephasing jump sqrt(gamma) b^dag b at gamma = 1
        spec = ModelSpec(interactions=(Interaction(1, 1.0),), cutoff=dim)
        (jump,) = dephasing_dissipator(1.0, spec)
        assert np.array_equal(np.diag(jump), np.kron(np.eye(2), np.diag(np.arange(dim))))
