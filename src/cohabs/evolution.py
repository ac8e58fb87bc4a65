"""Time evolution: exact unitary propagation and a Lindblad master-equation
integrator.

Every Hamiltonian is real symmetric (see `models`), so unitary propagation
goes through a real decomposition, which is exact for arbitrary times and
amortizes across the hundreds of output points of a sweep.  Unitary runs
take and give `KetEnsemble`s, held in the absorber-parity frame (see
`hilbert`): a mixed input that is diagonal in the Fock basis costs one column
per nonzero population, never a dense density matrix.

When H has no free terms, every term raises or lowers the absorber by one
quantum, so H only couples even to odd absorber levels.  Such a chiral H is
decomposed through the SVD of its half-size coupling block, taken one
connected block at a time where a conserved quantity splits it, and in the
parity frame it generates a real orthogonal map: a real input (every
Fock-diagonal input, and a coherent input or pump at a real amplitude) stays
real at every time, and its products, partial traces and diagnostics run in
real arithmetic.  Any other H (free terms, an absorber of odd dimension)
goes through a dense `eigh` and complex phases, its kets moved out of the
frame and back by exact multiplications by +-i.

The master equation evolves the dense density matrix in the storage basis,
held as one real matrix (in the parity frame for a chiral H, where the
unitary part is the same real orthogonal map), and gives `QuantumState`s in
the true frame.  It is integrated by an adaptive Strang splitting: every step
composes the exact dissipative semigroup of real jump operators diagonal in
the storage basis (an elementwise factor) with the exact unitary, so every
step is a CPTP map and the state stays positive at any tolerance.  A run
keeps a few checkpoints, from which a later read continues it bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError, LayoutError, StateError
from .hilbert import ABSORBER_LABEL, KetEnsemble, QuantumState, check_positive, parity_frame
from .models import Hamiltonian

INITIAL_STEP = 1e-2     # first trial step of the master-equation integrator
MIN_STEP = 1e-12        # step size below which it gives up
CHECKPOINTS = 8         # most checkpoints a master-equation run keeps


def _product(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x for a real `a` and a complex (D, K) block x: `a` multiplies the
    real and imaginary parts of x, interleaved as the columns of one real
    (D, 2K) view, so it is never cast against a complex block."""
    return (a @ np.ascontiguousarray(x, complex).view(float)).view(complex)


def _parity_halves(layout) -> tuple[int, int] | None:
    """(outer, inner) with the storage index split as (outer, parity, inner),
    parity that of the absorber level, when the absorber's dimension is even;
    None otherwise."""
    if ABSORBER_LABEL not in layout.labels or layout.dim(ABSORBER_LABEL) % 2:
        return None
    inner = int(np.prod(layout.dims[layout.axis(ABSORBER_LABEL) + 1:]))
    return layout.total_dim // (2 * inner), inner


def _chiral_svd(hamiltonian: Hamiltonian, halves: tuple[int, int] | None) -> tuple | None:
    """The SVD (U, s, W^T) of the coupling block B of an H that couples even
    absorber levels only to odd ones, H = [[0, B], [B^T, 0]] over the two
    parity halves (see `_parity_halves`); None for any other H.  B is
    decomposed one connected block at a time (a conserved quantity splits it,
    as M = 2P_e + n_b + n_a does the pumped model's), and whole, by one plain
    `np.linalg.svd(B)`, when at most one block has entries."""
    if halves is None:
        return None
    outer, inner = halves
    blocks = hamiltonian.entries.reshape(outer, 2, inner, outer, 2, inner)
    if blocks[:, 0, :, :, 0].any() or blocks[:, 1, :, :, 1].any():
        return None
    n = outer * inner
    b = blocks[:, 0, :, :, 1].reshape(n, n)
    # label the connected components of B's nonzero bipartite graph (rows are
    # nodes 0..n-1, columns n..2n-1): each edge hooks its larger label onto
    # its smaller, then every node jumps to its label's label, until stable
    rows, cols = np.divmod(np.flatnonzero(b != 0), n)
    cols += n
    label, last = np.arange(2 * n), None
    while not np.array_equal(label, last):
        last, ends = label, (label[rows], label[cols])
        label = label.copy()
        np.minimum.at(label, np.maximum(*ends), np.minimum(*ends))
        label = label[label]
    if len(np.unique(label[rows])) <= 1:
        return np.linalg.svd(b)
    # each component is a block, an isolated row (1 x 0) or column (0 x 1) too,
    # and blocks of one shape share a batched SVD.  Singular pairs take slots
    # from 0; null vectors, left and right apart, from there on, paired at s = 0
    keys, comp = np.unique(label, return_inverse=True)
    order = np.argsort(comp, kind="stable")         # rows before columns in each
    size_r, size_c = (np.bincount(part, minlength=len(keys)) for part in (comp[:n], comp[n:]))
    start = np.cumsum(size_r + size_c) - size_r - size_c
    u, s, wt = np.zeros((n, n)), np.zeros(n), np.zeros((n, n))
    free = np.array([0, 1, 1]) * np.minimum(size_r, size_c).sum()    # pair, left, right
    for r, c in sorted(set(zip(size_r.tolist(), size_c.tolist()))):
        ks = np.flatnonzero((size_r == r) & (size_c == c))
        nodes = order[start[ks, None] + np.arange(r + c)]
        r_idx, c_idx = nodes[:, :r, None], nodes[:, None, r:] - n
        uk, sk, wtk = np.linalg.svd(b[r_idx, c_idx])
        widths = np.array([min(r, c), r - min(r, c), c - min(r, c)])
        pair, left, right = (f + np.arange(len(ks) * w).reshape(len(ks), w)
                             for f, w in zip(free, widths))
        free += len(ks) * widths
        s[pair] = sk
        u[r_idx, np.concatenate([pair, left], axis=1)[:, None]] = uk
        wt[np.concatenate([pair, right], axis=1)[:, :, None], c_idx] = wtk
    return u, s, wt


@dataclass(frozen=True)
class EigenExpansion:
    """A state expanded once by a propagator, so that each later time costs
    block products alone: C = V^T Psi0 for its ket ensemble Psi0 in the true
    frame, or, for a chiral H, the half coefficients (U^T x, W^T y) of its
    even and odd parity halves (x, y) in the parity frame, stacked and held as
    real arrays."""

    initial: KetEnsemble
    coeffs: np.ndarray

    @property
    def is_vector(self) -> bool:
        return self.initial.is_vector


class HamiltonianPropagator:
    """Exact propagator exp(-i H t) of a real symmetric H, from one
    decomposition that serves every requested time.  Every state is
    propagated as a ket ensemble (see `KetEnsemble`), in the parity frame.

    A chiral H = [[0, B], [B^T, 0]] keeps only the SVD B = U diag(s) W^T.  In
    the parity frame, exp(-iHt) is the real orthogonal map

        [[U cos(st) U^T, -U sin(st) W^T], [W sin(st) U^T, W cos(st) W^T]],

    so a time costs two real cos/sin row scalings of the half coefficients and
    two half-size real products, and real kets stay real.  Any other H is
    diagonalised densely, H = V diag(E) V^T, and its states are moved out of
    the frame and back around the complex phase.
    """

    def __init__(self, hamiltonian: Hamiltonian):
        self.layout = hamiltonian.layout
        self._halves = _parity_halves(self.layout)
        self._svd = _chiral_svd(hamiltonian, self._halves)
        self.eigenvectors = None    # V of H = V diag(E) V^T, real; None for a chiral H
        if self._svd is None:
            self.eigenvalues, self.eigenvectors = np.linalg.eigh(hamiltonian.entries)
        else:
            s = self._svd[1]
            self.eigenvalues = np.concatenate([s, -s])      # unsorted

    def orthogonal_map(self, t: float) -> np.ndarray:
        """exp(-iHt) of a chiral H in the parity frame: the real orthogonal
        (D, D) map of the class docstring, in storage order, from three
        half-size products."""
        u, s, wt = self._svd
        outer, inner = self._halves
        cos, sin = np.cos(s * t), np.sin(s * t)
        upper = -(u * sin) @ wt                                 # -U sin(st) W^T
        out = np.empty((outer, 2, inner) * 2)
        for (a, b), block in (((0, 0), (u * cos) @ u.T), ((0, 1), upper),
                              ((1, 0), -upper.T), ((1, 1), (wt.T * cos) @ wt)):
            out[:, a, :, :, b] = block.reshape(outer, inner, outer, inner)
        return out.reshape(2 * len(s), -1)

    def expand(self, state0: KetEnsemble) -> EigenExpansion:
        """The state's expansion (see `EigenExpansion`), computed once per
        trajectory."""
        if state0.layout != self.layout:
            raise LayoutError("state layout does not match the Hamiltonian")
        if self._svd is None:
            return EigenExpansion(state0, _product(
                self.eigenvectors.T, parity_frame(self.layout, state0.kets, inverse=True)))
        u, s, wt = self._svd
        # a complex block's real and imaginary parts as interleaved real columns
        kets = state0.kets.view(float).reshape(self._halves[0], 2, -1)
        return EigenExpansion(state0, np.stack([u.T @ kets[:, 0].reshape(len(s), -1),
                                                wt @ kets[:, 1].reshape(len(s), -1)]))

    def state_at(self, state0: KetEnsemble | EigenExpansion, t: float) -> KetEnsemble:
        """The state at time t.  Pass an EigenExpansion to reuse one
        expansion across many times."""
        expansion = state0 if isinstance(state0, EigenExpansion) else self.expand(state0)
        initial = expansion.initial
        if t == 0.0:
            # exp(-iH 0) is the identity; the eigenbasis round trip would
            # leave round-off in, e.g., the zero number spread of a Fock input
            return initial
        if self._svd is None:
            phase = np.exp(-1j * self.eigenvalues * t)
            return KetEnsemble(self.layout, parity_frame(
                self.layout, _product(self.eigenvectors, phase[:, None] * expansion.coeffs)))
        u, s, wt = self._svd
        outer, inner = self._halves
        cos, sin = np.cos(s * t)[:, None], np.sin(s * t)[:, None]
        x, y = expansion.coeffs
        even = cos * x
        even -= sin * y
        odd = sin * x
        odd += cos * y
        # both half products land in one array, in storage order
        out = np.empty((outer, 2, inner, x.shape[1]))
        np.matmul(u.reshape(outer, inner, -1), even, out=out[:, 0])
        np.matmul(wt.T.reshape(outer, inner, -1), odd, out=out[:, 1])
        return KetEnsemble(self.layout,
                           out.reshape(len(self.eigenvalues), -1).view(initial.kets.dtype))


# ---------------------------------------------------------------------------
# Lindblad master equation

class _StrangStep:
    """One Strang step D(h/2) U(h) D(h/2) of the master equation

        drho/dt = -i[H, rho] + sum_L (L rho L^dag - {L^dag L, rho}/2),

    for the real symmetric H and real jump operators L = diag(d) diagonal in
    the storage basis (number dephasing is, see `models.dephasing_dissipator`):
    rho -> E(h/2) o (U(h) (E(h/2) o rho) U(h)^dag), with o the elementwise
    product, U(h) = exp(-iHh) and the exact dissipative semigroup
    E(h/2) = exp(hK/2), K_ij = sum_L (d_i d_j - (d_i^2 + d_j^2)/2), that is
    -(gamma/2)(n_i - n_j)^2 for number dephasing.  Each factor is CPTP, so
    every step is one too.  For a chiral H, rho is held in the parity frame,
    F rho F^dag, which E o commutes with and where U(h) is the real map
    `HamiltonianPropagator.orthogonal_map`.  Any other H keeps the true frame
    and acts as V (P o (V^T rho V)) V^T, with P_ij = p_i p_j^*, p = exp(-ihE).

    rho = S + iA (S symmetric, A antisymmetric) is held as the real M = S + A.
    A real map O keeps S and A apart, so O rho O^T is O M O^T (two real
    products); the real E multiplies M directly, the phase P acts as
    Re P o M + Im P o M^T, and ||M||_F = ||rho||_F.
    """

    def __init__(self, hamiltonian: Hamiltonian, jumps: list[np.ndarray]):
        self.prop = HamiltonianPropagator(hamiltonian)
        self.chiral = self.prop.eigenvectors is None
        self.rates = np.zeros((len(self.prop.eigenvalues),) * 2)
        for d in jumps:
            w = d * d
            self.rates += np.outer(d, d) - 0.5 * (w[:, None] + w[None, :])

    def frame(self, rho: np.ndarray, inverse: bool = False) -> np.ndarray:
        """rho in the step's frame, F rho F^dag (exact), or back with `inverse`."""
        if not self.chiral:
            return rho
        rows = parity_frame(self.prop.layout, rho, inverse)
        return parity_frame(self.prop.layout, rows.T, not inverse).T

    def unitary(self, h: float):
        """The map M -> U(h) rho U(h)^dag on encodings."""
        if self.chiral:
            o = self.prop.orthogonal_map(h)
            return lambda m: o @ m @ o.T
        v, p = self.prop.eigenvectors, np.exp(-1j * h * self.prop.eigenvalues)
        phase = np.outer(p, p.conj())
        def rotate(m):
            sigma = v.T @ m @ v                                 # in the eigenbasis of H
            return v @ (phase.real * sigma + phase.imag * sigma.T) @ v.T
        return rotate

    def __call__(self, m: np.ndarray, h: float) -> np.ndarray:
        if h == 0.0:
            return m
        e = np.exp(0.5 * h * self.rates)
        return e * self.unitary(h)(e * m)

    def attempt(self, m: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
        """(y1, y2): one step of h and two of h/2 from m, y2 with its two inner
        dissipative quarter steps merged, E(h/4) U(h/2) E(h/2) U(h/2) E(h/4)."""
        quarter = np.exp(0.25 * h * self.rates)
        half = quarter * quarter
        u_half = self.unitary(0.5 * h)
        return half * self.unitary(h)(half * m), quarter * u_half(half * u_half(quarter * m))


@dataclass
class EvolutionResult:
    """A master-equation run: its output times, their states (unless an
    observer took them), and `state_at`, the state at any time.

    A loop state (t_read, t, sigma, h), as a read at t_read left it, is the
    accepted state sigma at time t <= t_read in the step's frame and the trial
    step h that follows.  Accepted steps follow the error control alone, so a
    read at any t >= t_read passes through it: a read continues from the kept
    loop state furthest along, and every state equals that of a run from
    t = 0 bit for bit, in any order of reads.  Reads are not thread-safe."""

    times: np.ndarray
    states: list[QuantumState]
    step: _StrangStep
    tol: float
    real: bool                  # the encoding of every state is real
    checkpoints: list[tuple]    # loop states, the start first
    last: tuple                 # the loop state of the last read

    def state_at(self, t_out: float) -> QuantumState:
        """The state at time t_out.  Raises IntegrationError (carrying the
        time reached) on step-size underflow, and a StateError naming t_out
        when the state is not positive."""
        if not t_out >= 0:
            raise StateError(f"output times must be >= 0, got {t_out}")
        _, t, sigma, h = max((kept for kept in (*self.checkpoints, self.last)
                              if kept[0] <= t_out), key=lambda kept: kept[1])
        while t + h <= t_out:
            y1, y2 = self.step.attempt(sigma, h)
            err = np.linalg.norm(y2 - y1) / 3.0
            if err <= self.tol:
                sigma = y2
                t += h
            factor = 0.9 * (self.tol / err) ** (1.0 / 3.0) if err > 0 else 2.0
            h = h * min(2.0, max(0.2, factor))
            if h < MIN_STEP:
                raise IntegrationError("step size underflow", time_reached=t)
        self.last = (float(t_out), t, sigma, h)
        m = self.step(sigma, float(t_out) - t)
        # rho = S + iA, exactly Hermitian, and positive iff it is in the true frame
        rho = 0.5 * (m + m.T) if self.real else 0.5 * (m + m.T) + 0.5j * (m - m.T)
        try:
            check_positive(rho, atol=1e-7)
        except StateError as exc:
            raise StateError(f"{exc} (output time: {t_out:.6g})") from exc
        return QuantumState(self.step.prop.layout, self.step.frame(rho, inverse=True))


def lindblad_evolve(hamiltonian: Hamiltonian, jumps, rho0: QuantumState | KetEnsemble,
                    times, tol: float, observer=None) -> EvolutionResult:
    """Integrate the master equation with adaptive Strang splitting, for the
    jump operators whose real diagonals `jumps` holds (see
    `models.dephasing_dissipator`), and read the state at each output time
    (see `EvolutionResult.state_at`).  Each output state is passed to
    `observer`, when given; otherwise the states are returned.

    Every step composes exact CPTP maps (see `_StrangStep`), so the state
    stays positive and its trace stays 1 at any tolerance.  Each step of
    size h is checked against two of size h/2; the error estimate of the
    pair is ||y2 - y1||_F / 3 (second order) and the pair y2 is accepted as
    it is, since an extrapolated state is not a CP image of the last one.
    Accepted steps follow the error control alone: an output state is a
    partial step from the last accepted state and is never fed back, so the
    trajectory does not depend on the output grid.

    A checkpoint is kept at every k-th output, with the smallest k that keeps
    at most CHECKPOINTS besides the start.
    """
    if rho0.layout != hamiltonian.layout:
        raise LayoutError("state layout does not match the Hamiltonian")
    step = _StrangStep(hamiltonian, list(jumps))
    # the input in the step's frame; a chiral H keeps a real start (real kets
    # in the parity frame, as every Fock input) real, its encoding symmetric
    rho_start = step.frame(rho0.density())
    start = (0.0, 0.0, rho_start.real + rho_start.imag, INITIAL_STEP)
    run = EvolutionResult(np.asarray(list(times), float), [], step, tol,
                          step.chiral and not np.imag(rho_start).any(), [start], start)
    every = -(-len(run.times) // CHECKPOINTS)
    for i, t_out in enumerate(run.times):
        (observer or run.states.append)(run.state_at(t_out))
        if (i + 1) % every == 0:
            run.checkpoints.append(run.last)
    return run
