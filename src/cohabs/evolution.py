"""Time evolution: exact unitary propagation and a Lindblad master-equation
integrator.

Every Hamiltonian is real symmetric (see `models`), so unitary propagation
goes through a real eigendecomposition, which is exact for arbitrary times
and amortizes across the hundreds of output points of a sweep.  When H has
no free or detuning terms, every term raises or lowers the absorber by one
quantum, so H only couples even to odd absorber levels and its eigenbasis
comes from the SVD of that half-size coupling block, cheaper than a dense
`eigh` of H.  Unitary runs take and give `KetEnsemble`s: a mixed input that
is diagonal in the Fock basis costs one column per nonzero population, never
a dense density matrix.  The master equation evolves the dense density
matrix, held as one real matrix, and gives `QuantumState`s.  It is
integrated by an adaptive Strang splitting: every step composes the exact
unitary (a phase in the eigenbasis of H) with the exact dissipative
semigroup of real jump operators diagonal in the storage basis, so every
step is a CPTP map and the state stays positive at any tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError, LayoutError, StateError
from .hilbert import KetEnsemble, QuantumState
from .models import ABSORBER_LABEL, OSC_LABEL, Hamiltonian

LEAKAGE_LEVELS = 5
LEAKAGE_WARN = 1e-6
INITIAL_STEP = 1e-2     # first trial step of the master-equation integrator
MIN_STEP = 1e-12        # step size below which it gives up


@dataclass(frozen=True)
class EvolutionResult:
    times: np.ndarray
    states: tuple[QuantumState, ...]


def top_level_population(state: QuantumState | KetEnsemble) -> float:
    """Probability mass in the top LEAKAGE_LEVELS Fock levels of the oscillator."""
    axis = state.layout.axis(OSC_LABEL)
    dims = state.layout.dims
    if isinstance(state, KetEnsemble):
        probs = (state.kets.real ** 2 + state.kets.imag ** 2).sum(axis=1)
    else:
        probs = np.real(np.diagonal(state.data))
    sum_axes = tuple(i for i in range(len(dims)) if i != axis)
    pops = probs.reshape(dims).sum(axis=sum_axes)
    k = min(LEAKAGE_LEVELS, dims[axis])
    return float(pops[-k:].sum())


def _product(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x for a real `a` and a complex (D, K) block x: `a` multiplies the
    real and imaginary parts of x, interleaved as the columns of one real
    (D, 2K) view, so it is never cast against a complex block."""
    return (a @ np.ascontiguousarray(x, complex).view(float)).view(complex)


def _chiral_eigh(hamiltonian: Hamiltonian) -> tuple[np.ndarray, np.ndarray] | None:
    """E and V of an H that couples even absorber levels only to odd ones, so
    H = [[0, B], [B^T, 0]] over equal halves; None for any other H.  With
    B = U diag(s) W^T, H (u, +-w) = +-s (u, +-w): E = [s, -s] (unsorted) and
    V = [[U, U], [W, -W]] / sqrt 2, its rows back in storage order."""
    layout, h = hamiltonian.layout, hamiltonian.entries
    if ABSORBER_LABEL not in layout.labels or layout.dim(ABSORBER_LABEL) % 2:
        return None
    inner = int(np.prod(layout.dims[layout.axis(ABSORBER_LABEL) + 1:]))
    outer = layout.total_dim // (2 * inner)
    blocks = h.reshape(outer, 2, inner, outer, 2, inner)    # index (j, parity, rest)
    if blocks[:, 0, :, :, 0].any() or blocks[:, 1, :, :, 1].any():
        return None
    half = outer * inner
    u, s, wt = np.linalg.svd(blocks[:, 0, :, :, 1].reshape(half, half))
    vecs = np.empty((outer, 2, inner, 2, half))             # columns (sign, k)
    vecs[:, 0, :, 0] = vecs[:, 0, :, 1] = np.sqrt(0.5) * u.reshape(outer, inner, half)
    vecs[:, 1, :, 0] = np.sqrt(0.5) * wt.T.reshape(outer, inner, half)
    vecs[:, 1, :, 1] = -vecs[:, 1, :, 0]
    return np.concatenate([s, -s]), vecs.reshape(2 * half, 2 * half)


@dataclass(frozen=True)
class EigenExpansion:
    """A state expanded once in a propagator's eigenbasis, C = V^dag Psi0 for
    its ket ensemble Psi0; each later time then costs one block product."""

    initial: KetEnsemble
    coeffs: np.ndarray

    @property
    def is_vector(self) -> bool:
        return self.initial.is_vector


class HamiltonianPropagator:
    """Eigendecomposition-backed exact propagator exp(-i H t).

    One decomposition of the real symmetric H, with real eigenvectors V,
    serves every requested time.  Every state is propagated as a ket
    ensemble (see `KetEnsemble`).
    """

    def __init__(self, hamiltonian: Hamiltonian):
        self.layout = hamiltonian.layout
        self.eigenvalues, self.eigenvectors = (_chiral_eigh(hamiltonian)
                                               or np.linalg.eigh(hamiltonian.entries))

    def expand(self, state0: KetEnsemble) -> EigenExpansion:
        """C = V^dag Psi0, computed once per trajectory."""
        if state0.layout != self.layout:
            raise LayoutError("state layout does not match the Hamiltonian")
        return EigenExpansion(state0, _product(self.eigenvectors.T, state0.kets))

    def state_at(self, state0: KetEnsemble | EigenExpansion, t: float) -> KetEnsemble:
        """The state at time t.  Pass an EigenExpansion to reuse one
        expansion across many times."""
        expansion = state0 if isinstance(state0, EigenExpansion) else self.expand(state0)
        initial = expansion.initial
        if t == 0.0:
            # exp(-iH 0) is the identity; the eigenbasis round trip would
            # leave round-off in, e.g., the zero number spread of a Fock input
            return initial
        phase = np.exp(-1j * self.eigenvalues * t)
        return KetEnsemble(self.layout,
                           _product(self.eigenvectors, phase[:, None] * expansion.coeffs))


# ---------------------------------------------------------------------------
# Lindblad master equation

def _decode(m: np.ndarray) -> np.ndarray:
    """rho = S + iA from its real encoding M = S + A; exactly Hermitian."""
    return 0.5 * (m + m.T) + 0.5j * (m - m.T)


def _congruence(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """a rho a^T on encodings, for a real `a`: it keeps S and A apart, so two
    real products."""
    return a @ m @ a.T


def _hadamard(z: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Z o rho, elementwise, for a complex Hermitian Z, on encodings."""
    return z.real * m + z.imag * m.T


class _StrangStep:
    """One Strang step U(h/2) D(h) U(h/2) of the master equation

        drho/dt = -i[H, rho] + sum_L (L rho L^dag - {L^dag L, rho}/2),

    for the real symmetric H = V diag(E) V^T and real jump operators
    L = diag(d) diagonal in the storage basis (number dephasing is, see
    `models.dephasing_dissipator`).  It maps sigma, held in the eigenbasis of
    H, to P o V^T (exp(hK) o V (P o sigma) V^T) V, with o the elementwise
    product.  U(h/2) is the phase P_ij = p_i p_j^*, where p = exp(-ihE/2);
    D(h) is the exact dissipative semigroup, where the real K_ij =
    sum_L (d_i d_j - (d_i^2 + d_j^2)/2), -(gamma/2)(n_i - n_j)^2 for number
    dephasing.  Each factor is CPTP, so every step is one too.

    rho = S + iA (S symmetric, A antisymmetric) is held as the real M = S + A.
    The real V keeps S and A apart, so a basis change is V M V^T (two real
    products); the real exp(hK) multiplies M directly, the phase P acts as
    Re P o M + Im P o M^T, and ||M||_F = ||rho||_F.
    """

    def __init__(self, hamiltonian: Hamiltonian, jumps: list[np.ndarray]):
        prop = HamiltonianPropagator(hamiltonian)
        self.energies, self.vecs = prop.eigenvalues, prop.eigenvectors
        self.rates = np.zeros((len(self.energies),) * 2)
        for d in jumps:
            w = d * d
            self.rates += np.outer(d, d) - 0.5 * (w[:, None] + w[None, :])

    def __call__(self, sigma: np.ndarray, h: float) -> np.ndarray:
        if h == 0.0:
            return sigma
        p = np.exp(-0.5j * h * self.energies)
        half = np.outer(p, p.conj())
        rho = np.exp(h * self.rates) * _congruence(self.vecs, _hadamard(half, sigma))
        return _hadamard(half, _congruence(self.vecs.T, rho))


def lindblad_evolve(hamiltonian: Hamiltonian, jumps, rho0: QuantumState | KetEnsemble,
                    times, tol: float = 1e-8, observer=None) -> EvolutionResult:
    """Integrate the master equation with adaptive Strang splitting, for the
    jump operators whose real diagonals `jumps` holds (see
    `models.dephasing_dissipator`).  Each output state is passed to
    `observer`, when given; otherwise the states are returned.

    Every step composes exact CPTP maps (see `_StrangStep`), so the state
    stays positive and its trace stays 1 at any tolerance.  Each step of
    size h is checked against two of size h/2; the error estimate of the
    pair is ||y2 - y1||_F / 3 (second order) and the pair y2 is accepted as
    it is, since an extrapolated state is not a CP image of the last one.
    Accepted steps follow the error control alone: an output state is a
    partial step from the last accepted state and is never fed back, so the
    trajectory does not depend on the output grid.  Raises IntegrationError
    (carrying the time reached) on step-size underflow, and a StateError
    naming the output time when an output state is not positive.
    """
    if rho0.layout != hamiltonian.layout:
        raise LayoutError("state layout does not match the Hamiltonian")
    times = np.asarray(list(times), float)
    if len(times) and times[0] < 0:
        raise StateError(f"output times must be >= 0, got {times[0]}")
    back = np.flatnonzero(np.diff(times) <= 0)
    if len(back):
        raise StateError(f"output times must be strictly increasing: {times[back[0] + 1]} "
                         f"follows {times[back[0]]}")
    step = _StrangStep(hamiltonian, list(jumps))
    rho_start = rho0.density()
    m_start = rho_start.real + rho_start.imag
    sigma = _congruence(step.vecs.T, m_start)
    layout = rho0.layout
    t = 0.0
    h = INITIAL_STEP
    states = []

    for t_out in times:
        while t + h <= t_out:
            y1 = step(sigma, h)
            y2 = step(step(sigma, 0.5 * h), 0.5 * h)
            err = np.linalg.norm(y2 - y1) / 3.0
            if err <= tol:
                sigma = y2
                t += h
            factor = 0.9 * (tol / err) ** (1.0 / 3.0) if err > 0 else 2.0
            h = h * min(2.0, max(0.2, factor))
            if h < MIN_STEP:
                raise IntegrationError("step size underflow", time_reached=t)
        # t = 0 is the identity map; the eigenbasis round trip would leave round-off in
        m = m_start if t_out == 0.0 else _congruence(step.vecs, step(sigma, float(t_out) - t))
        st = QuantumState(layout, _decode(m), trace_atol=1e-8)
        try:
            st.validate_positive(atol=1e-7)
        except StateError as exc:
            raise StateError(f"{exc} (output time: {t_out:.6g})") from exc
        if observer is not None:
            observer(st)
        else:
            states.append(st)
    return EvolutionResult(times, tuple(states))
