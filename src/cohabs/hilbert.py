"""Composite Hilbert spaces: tensor layouts, states and the partial trace.

Conventions (fixed once, used everywhere):

* Fock index 0 is the oscillator ground state |0>.
* Qubit basis order is (g, e) with g at index 0, so sigma_z = diag(-1, +1)
  in storage order.
* Composite indices follow the layout's factor order via Kronecker products,
  i.e. the first factor varies slowest.

States come in two types.  A `KetEnsemble` holds every input state and every
state of a unitary run as a block of kets; a `QuantumState` holds the dense
density matrix of a dephased (master-equation) run.  Operators live in
`models`, which builds every Hamiltonian real symmetric by construction.
States are immutable after construction (their arrays are marked
read-only), so they can be shared freely between worker threads.

The absorber-parity frame.  A `KetEnsemble` on a layout with an absorber
factor stores its kets in this frame: each component on an odd absorber
level is kept multiplied by i (`parity_frame`).  Every absorption term moves
the absorber by one quantum, so an interaction-only H anticommutes with the
absorber parity, and exp(-iHt) is a real orthogonal map in this frame (see
`evolution`).  Every input starts with the absorber in its (even) ground
state, so real inputs, such as those diagonal in the Fock basis, stay real
for as long as they evolve under such an H.  `density()` and `true_kets()`
convert back to the true frame.  A partial trace only regroups the kets:
tracing the absorber out leaves the frame's phases on whole columns, where
they drop out of Phi Phi^dag, and keeping it keeps the frame, which the
reduced ensemble's `density()` undoes (see `partial_trace`).  A
`QuantumState` is always in the true frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, LayoutError, StateError

HERMITIAN_ATOL = 1e-12
NORM_ATOL = 1e-10
TRACE_ATOL = 1e-10
ABSORBER_LABEL = "absorber"


def _frozen(a: np.ndarray, dtype=complex) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=dtype)
    a.setflags(write=False)
    return a


def abs2(x: np.ndarray) -> np.ndarray:
    """|x|^2 elementwise, real; a real x is squared without an imaginary part."""
    return x.real ** 2 + x.imag ** 2 if np.iscomplexobj(x) else x * x


@dataclass(frozen=True)
class SpaceLayout:
    """Ordered tensor factors of a composite Hilbert space."""

    factors: tuple[tuple[str, int], ...]

    def __post_init__(self):
        labels = [lab for lab, _ in self.factors]
        if len(set(labels)) != len(labels):
            raise LayoutError(f"factor labels must be unique, got {labels}")
        for lab, dim in self.factors:
            if dim < 2:
                raise DimensionError(f"factor {lab!r} has dimension {dim} < 2")

    @staticmethod
    def single(label: str, dim: int) -> "SpaceLayout":
        return SpaceLayout(((label, dim),))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _ in self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.factors)

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.dims))

    def dim(self, label: str) -> int:
        return self.dims[self.axis(label)]

    def axis(self, label: str) -> int:
        for i, (lab, _) in enumerate(self.factors):
            if lab == label:
                return i
        raise LayoutError(f"unknown factor label {label!r}; have {self.labels}")


def parity_frame(layout: SpaceLayout, kets: np.ndarray, inverse: bool = False) -> np.ndarray:
    """The (D, K) kets on `layout` moved into the absorber-parity frame: a
    complex copy with every component on an odd absorber level multiplied
    by i, or by -i with `inverse`, which moves them back to the true frame.
    Both multiplications are exact.  A layout without an absorber has the
    identity frame, and its kets are returned as they are."""
    if ABSORBER_LABEL not in layout.labels:
        return kets
    axis = layout.axis(ABSORBER_LABEL)
    out = np.array(kets, complex, order="C")   # reshaped in place below
    levels = out.reshape(int(np.prod(layout.dims[:axis])), layout.dims[axis], -1)
    levels[:, 1::2] *= -1j if inverse else 1j
    return out


def check_positive(rho: np.ndarray, atol: float) -> float:
    """The smallest eigenvalue of the Hermitian `rho`; StateError below -atol."""
    lam = float(np.linalg.eigvalsh(rho)[0])
    if lam < -atol:
        raise StateError(f"density matrix has eigenvalue {lam:.3e} < -{atol:.1e}")
    return lam


@dataclass(frozen=True)
class QuantumState:
    """Density matrix on a composite space: the state of a dephased run.

    Cheap invariants (trace / hermiticity) are validated on construction.
    Positivity needs an eigendecomposition: the master-equation integrator
    calls `check_positive` on each output point, in its own frame.
    """

    layout: SpaceLayout
    data: np.ndarray

    def __post_init__(self):
        n = self.layout.total_dim
        d = np.asarray(self.data, complex)
        if d.shape != (n, n):
            raise LayoutError(f"density matrix shape {d.shape} does not match "
                              f"layout dim ({n}, {n})")
        tr = np.trace(d)
        if abs(tr - 1.0) > TRACE_ATOL:
            raise StateError(f"density matrix trace {tr!r} deviates from 1")
        herm_dev = np.max(np.abs(d - d.conj().T))
        if herm_dev > 100 * HERMITIAN_ATOL:
            raise StateError(f"density matrix hermiticity deviation {herm_dev:.3e}")
        object.__setattr__(self, "data", _frozen(d))

    def density(self) -> np.ndarray:
        return np.asarray(self.data)


@dataclass(frozen=True)
class KetEnsemble:
    """State rho = sum_k w_k |psi_k><psi_k| held as the columns
    sqrt(w_k) |psi_k> of one (D, K) matrix, so that rho = kets kets^dag.

    Every input state and every state of a unitary run is one: a pure state
    is K = 1, a state diagonal in the product basis has one column per
    nonzero population.  Unitary propagation acts on the K columns, and a
    partial trace only regroups them (see `partial_trace`).  The kets are
    stored in the absorber-parity frame (see the module docstring); real
    kets stay real (float64).  The trace, ||kets||_F^2, is validated on
    construction.
    """

    layout: SpaceLayout
    kets: np.ndarray

    def __post_init__(self):
        kets = _frozen(self.kets, float if np.isrealobj(self.kets) else complex)
        tr = np.vdot(kets, kets).real
        if abs(tr - 1.0) > NORM_ATOL:
            raise StateError(f"ket ensemble trace {tr!r} deviates from 1")
        object.__setattr__(self, "kets", kets)

    @property
    def is_vector(self) -> bool:
        return self.kets.shape[1] == 1

    def true_kets(self) -> np.ndarray:
        """The kets in the true frame, rho = K K^dag."""
        return parity_frame(self.layout, self.kets, inverse=True)

    def density(self) -> np.ndarray:
        """The density matrix, in the true frame."""
        kets = self.true_kets()
        rho = kets @ kets.conj().T
        return 0.5 * (rho + rho.conj().T)


def partial_trace(state: QuantumState | KetEnsemble, keep: str):
    """Reduced state on the kept factor, of the same type as `state`.

    A KetEnsemble gives the ensemble Phi of the kept factor, rho = Phi Phi^dag:
    its kets with the kept axis moved first, one column per index of the
    other factors.  Kept, the absorber keeps its parity frame.  Traced out,
    it leaves the frame's phases on whole columns of Phi, where they drop out
    of Phi Phi^dag: real kets keep them and stay real, and complex kets are
    read in the true frame, so that their reduced states hold the numbers of
    a true-frame propagation bit for bit.  A QuantumState gives the
    contracted density matrix.
    """
    axis = state.layout.axis(keep)
    dims = state.layout.dims
    dk = dims[axis]
    kept = SpaceLayout.single(keep, dk)
    if isinstance(state, KetEnsemble):
        kets = (state.kets if keep == ABSORBER_LABEL or np.isrealobj(state.kets)
                else state.true_kets()).reshape(dims + (-1,))
        return KetEnsemble(kept, np.moveaxis(kets, axis, 0).reshape(dk, -1))
    nfac = len(dims)
    rho_t = state.data.reshape(dims + dims)
    # contract every factor except `keep` between the ket and bra sides
    idx_ket = list(range(nfac))
    idx_bra = list(range(nfac))
    idx_bra = [i + nfac if i == axis else i for i in idx_bra]
    rho = np.einsum(rho_t, idx_ket + idx_bra, [axis, axis + nfac])
    rho = 0.5 * (rho + rho.conj().T)
    return QuantumState(kept, rho)
