"""Time evolution: exact unitary propagation, piecewise Hamiltonian
switching, the closed-form two-segment switching amplitudes, a first-order
product-formula step, and a Lindblad master-equation integrator.

Unitary propagation goes through a Hermitian eigendecomposition, which is
exact for arbitrary times and amortizes across the hundreds of output points
of a sweep.  The master equation evolves the density matrix directly (never a
vectorized superoperator) with adaptive step-doubling RK4.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from . import hilbert, models
from .errors import IntegrationError, LayoutError, StateError
from .hilbert import Operator, QuantumState
from .models import ABSORBER_LABEL, OSC_LABEL

LEAKAGE_LEVELS = 5
LEAKAGE_WARN = 1e-6


@dataclass(frozen=True)
class EvolutionResult:
    times: np.ndarray
    states: tuple[QuantumState, ...]
    leakage: np.ndarray
    leakage_flag: bool

    def __post_init__(self):
        t = np.asarray(self.times, float)
        if len(t) > 1 and not np.all(np.diff(t) > 0):
            raise StateError("result times must be strictly increasing")


def top_level_population(state: QuantumState, label: str = OSC_LABEL,
                         levels: int = LEAKAGE_LEVELS) -> float:
    """Probability mass in the top `levels` Fock levels of one factor."""
    axis = state.layout.axis(label)
    dims = state.layout.dims
    if state.is_vector:
        probs = np.abs(state.data.reshape(dims)) ** 2
        sum_axes = tuple(i for i in range(len(dims)) if i != axis)
        pops = probs.sum(axis=sum_axes)
    else:
        diag = np.real(np.diagonal(state.data)).reshape(dims)
        sum_axes = tuple(i for i in range(len(dims)) if i != axis)
        pops = diag.sum(axis=sum_axes)
    k = min(levels, dims[axis])
    return float(pops[-k:].sum())


class HamiltonianPropagator:
    """Eigendecomposition-backed exact propagator exp(-i H t).

    One decomposition serves every requested time, for both vector and
    density-matrix states.  A Hamiltonian whose imaginary part is exactly
    zero (every model in `models`) is diagonalised in real arithmetic; its
    eigenvectors are then stored complex once, because every product takes
    them with a complex state.
    """

    def __init__(self, hamiltonian: Operator):
        if not hamiltonian.hermitian:
            raise StateError("propagation requires a Hermitian Hamiltonian")
        self.layout = hamiltonian.layout
        h = hamiltonian.entries
        if h.imag.any():
            self.eigenvalues, self.eigenvectors = np.linalg.eigh(h)
        else:
            self.eigenvalues, vecs = np.linalg.eigh(h.real)
            self.eigenvectors = vecs.astype(complex)

    def vector_at(self, psi0: np.ndarray, t: float) -> np.ndarray:
        # V^dag psi0 as conj(conj(psi0) V): copies a vector, not the matrix
        c = np.conj(np.conj(psi0) @ self.eigenvectors)
        return self.eigenvectors @ (np.exp(-1j * self.eigenvalues * t) * c)

    def density_at(self, rho0: np.ndarray, t: float) -> np.ndarray:
        phase = np.exp(-1j * self.eigenvalues * t)
        u = self.eigenvectors * phase
        rho_eig = self.eigenvectors.conj().T @ rho0 @ self.eigenvectors
        return u @ rho_eig @ u.conj().T

    def state_at(self, state0: QuantumState, t: float,
                 trace_atol: float = hilbert.TRACE_ATOL) -> QuantumState:
        if state0.layout != self.layout:
            raise LayoutError("state layout does not match the Hamiltonian")
        if t == 0.0:
            # exp(-iH 0) is the identity; the eigenbasis round trip would
            # leave round-off in, e.g., the zero number spread of a Fock input
            return state0
        if state0.is_vector:
            return QuantumState(self.layout, self.vector_at(state0.data, t))
        rho = self.density_at(state0.data, t)
        rho = 0.5 * (rho + rho.conj().T)
        return QuantumState(self.layout, rho, trace_atol=trace_atol)


def unitary_evolve(hamiltonian: Operator, state0: QuantumState, times,
                   observer=None, store_states: bool = True) -> EvolutionResult:
    """Evolve under exp(-i H t) and record states and truncation leakage.

    `observer(t, state)`, when given, runs at every output point; pass
    store_states=False to stream long sweeps without retaining every state.
    """
    prop = HamiltonianPropagator(hamiltonian)
    times = np.asarray(list(times), float)
    states = []
    leakage = np.empty(len(times))
    for i, t in enumerate(times):
        st = prop.state_at(state0, float(t))
        leakage[i] = top_level_population(st)
        if observer is not None:
            observer(float(t), st)
        if store_states:
            states.append(st)
    return EvolutionResult(times, tuple(states), leakage,
                           bool(leakage.max(initial=0.0) > LEAKAGE_WARN))


# ---------------------------------------------------------------------------
# two-segment switching

@dataclass(frozen=True)
class SwitchCoefficients:
    """Closed-form amplitudes after a linear-absorption segment followed by a
    quadratic one, both of duration t, starting from |g, n>:

        |g>(alpha |n> + beta |n+1>) + |e>(gamma |n-1> + delta |n-2>)
    """

    n: int
    alpha: complex
    beta: complex
    gamma: complex
    delta: complex

    def __post_init__(self):
        norm = (abs(self.alpha) ** 2 + abs(self.beta) ** 2
                + abs(self.gamma) ** 2 + abs(self.delta) ** 2)
        if abs(norm - 1.0) > 1e-12:
            raise StateError(f"switch amplitudes norm {norm!r} deviates from 1")

    def state(self, cutoff: int) -> QuantumState:
        layout = hilbert.SpaceLayout(((ABSORBER_LABEL, 2), (OSC_LABEL, cutoff)))
        vec = np.zeros(2 * cutoff, complex)
        vec[self.n] = self.alpha
        vec[self.n + 1] = self.beta
        vec[cutoff + self.n - 1] = self.gamma
        vec[cutoff + self.n - 2] = self.delta
        return QuantumState(layout, vec)


def switch_coefficients(n: int, g1: float, g2: float, t: float) -> SwitchCoefficients:
    """Amplitudes for the two-segment protocol (linear segment first)."""
    if n < 2:
        raise StateError(f"switching amplitudes need n >= 2, got {n}")
    r1 = g1 * math.sqrt(n) * t
    r_down = g2 * math.sqrt(n * (n - 1)) * t
    r_up = g2 * math.sqrt(n * (n + 1)) * t
    return SwitchCoefficients(
        n=n,
        alpha=math.cos(r_down) * math.cos(r1),
        beta=-math.sin(r_up) * math.sin(r1),
        gamma=-1j * math.cos(r_up) * math.sin(r1),
        delta=-1j * math.sin(r_down) * math.cos(r1),
    )


def sequential_switch(orders, couplings, durations,
                      state0: QuantumState) -> EvolutionResult:
    """Apply exp(-i V^(k_j) t_j) segment by segment, recording each boundary.

    Zero-duration segments act as the identity and are skipped (recording
    them would duplicate a time point).
    """
    if not (len(orders) == len(couplings) == len(durations)):
        raise StateError("orders, couplings and durations must have equal length")
    cutoff = state0.layout.dim(OSC_LABEL)
    spec = models.ModelSpec(
        interactions=tuple(models.Interaction(int(k), float(g))
                           for k, g in dict(zip(orders, couplings)).items()),
        cutoff=cutoff)
    props = {}
    state = state0
    times, states, leaks = [], [], []
    now = 0.0
    for k, g, dt in zip(orders, couplings, durations):
        if dt < 0:
            raise StateError(f"segment duration must be >= 0, got {dt}")
        if dt == 0:
            continue
        if (k, g) not in props:
            props[(k, g)] = HamiltonianPropagator(
                models.jc_interaction(int(k), float(g), spec))
        state = props[(k, g)].state_at(state, float(dt))
        now += float(dt)
        times.append(now)
        states.append(state)
        leaks.append(top_level_population(state))
    leakage = np.asarray(leaks)
    return EvolutionResult(np.asarray(times), tuple(states), leakage,
                           bool(leakage.max(initial=0.0) > LEAKAGE_WARN))


def bch_first_order(g1: float, g2: float, t: float,
                    state0: QuantumState) -> QuantumState:
    """First-order product-formula state U1(t) U2(t) |psi0> for the combined
    interaction; deviates from the exact combined evolution as O(t^2)."""
    cutoff = state0.layout.dim(OSC_LABEL)
    spec = models.ModelSpec(
        interactions=(models.Interaction(1, g1), models.Interaction(2, g2)),
        cutoff=cutoff)
    p2 = HamiltonianPropagator(models.jc_interaction(2, g2, spec))
    p1 = HamiltonianPropagator(models.jc_interaction(1, g1, spec))
    return p1.state_at(p2.state_at(state0, t), t)


# ---------------------------------------------------------------------------
# Lindblad master equation

class _LindbladRHS:
    """dрho/dt = -i[H, rho] + sum_L (L rho L^dag - {L^dag L, rho}/2).

    Implemented through the effective non-Hermitian Hamiltonian
    H_eff = H - (i/2) sum_L L^dag L, with a fast path for jump operators that
    are diagonal in the storage basis (true for number dephasing).
    """

    def __init__(self, hamiltonian: Operator, jump_ops: list[Operator]):
        h = hamiltonian.entries.copy()
        self.diag_jumps = []
        self.dense_jumps = []
        acc = np.zeros_like(h)
        for L in jump_ops:
            mat = L.entries
            acc += mat.conj().T @ mat
            if np.count_nonzero(mat - np.diag(np.diagonal(mat))) == 0:
                self.diag_jumps.append(np.diagonal(mat).copy())
            else:
                self.dense_jumps.append(mat)
        self.h_eff = h - 0.5j * acc

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        m = self.h_eff @ rho
        out = -1j * (m - m.conj().T)
        for d in self.diag_jumps:
            out += (d[:, None] * rho) * d.conj()[None, :]
        for L in self.dense_jumps:
            out += L @ rho @ L.conj().T
        return out


def lindblad_evolve(hamiltonian: Operator, jump_ops, rho0: QuantumState, times,
                    tol: float = 1e-8, observer=None, store_states: bool = True,
                    initial_step: float = 1e-2,
                    min_step: float = 1e-12) -> EvolutionResult:
    """Integrate the master equation with adaptive step-doubling RK4.

    Each accepted step compares one full step against two half steps,
    Richardson-extrapolates the pair, and re-symmetrizes the density matrix.
    The right-hand side is traceless by construction, so the trace is
    preserved to round-off independent of the step size.  Raises
    IntegrationError (carrying the time reached) on step-size underflow.
    """
    if not hamiltonian.hermitian:
        raise StateError("master equation requires a Hermitian Hamiltonian")
    if rho0.layout != hamiltonian.layout:
        raise LayoutError("state layout does not match the Hamiltonian")
    rhs = _LindbladRHS(hamiltonian, list(jump_ops))
    times = np.asarray(list(times), float)

    def rk4(r, h):
        k1 = rhs(r)
        k2 = rhs(r + (0.5 * h) * k1)
        k3 = rhs(r + (0.5 * h) * k2)
        k4 = rhs(r + h * k3)
        return r + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    rho = rho0.density().astype(complex)
    layout = rho0.layout
    t = 0.0
    h = initial_step
    states = []
    leakage = np.empty(len(times))

    for i, t_out in enumerate(times):
        while t < t_out - 1e-13 * max(1.0, abs(t_out)):
            h = min(h, t_out - t)
            y1 = rk4(rho, h)
            ymid = rk4(rho, 0.5 * h)
            y2 = rk4(ymid, 0.5 * h)
            err = np.max(np.abs(y2 - y1)) / 15.0
            if err <= tol:
                rho = y2 + (y2 - y1) / 15.0
                rho = 0.5 * (rho + rho.conj().T)
                t += h
            factor = 0.9 * (tol / err) ** 0.2 if err > 0 else 2.0
            h = h * min(2.0, max(0.2, factor))
            if h < min_step:
                raise IntegrationError("step size underflow", time_reached=t)
        st = QuantumState(layout, rho, trace_atol=1e-8)
        st.validate_positive(atol=1e-7)
        leakage[i] = top_level_population(st)
        if observer is not None:
            observer(float(t_out), st)
        if store_states:
            states.append(st)
    return EvolutionResult(times, tuple(states), leakage,
                           bool(leakage.max(initial=0.0) > LEAKAGE_WARN))
