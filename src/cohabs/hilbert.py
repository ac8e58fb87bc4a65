"""Finite-dimensional composite Hilbert-space algebra on dense complex arrays.

Conventions (fixed once, used everywhere):

* Fock index 0 is the oscillator ground state |0>.
* Qubit basis order is (g, e) with g at index 0, so sigma_z = diag(-1, +1)
  in storage order.
* Composite indices follow the layout's factor order via Kronecker products,
  i.e. the first factor varies slowest.

States come in two types.  A `KetEnsemble` holds every input state and every
state of a unitary run as a block of kets; a `QuantumState` holds the dense
density matrix of a dephased (master-equation) run.  Operators and states
are immutable after construction (their arrays are marked read-only), so
they can be shared freely between worker threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DimensionError, LayoutError, StateError

HERMITIAN_ATOL = 1e-12
NORM_ATOL = 1e-10
TRACE_ATOL = 1e-10
PSD_ATOL = 1e-9
HERMITIAN_BLOCK = 1 << 16     # entries per row block of the hermiticity check


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=complex)
    a.setflags(write=False)
    return a


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
        for lab, d in self.factors:
            if lab == label:
                return d
        raise LayoutError(f"unknown factor label {label!r}; have {self.labels}")

    def axis(self, label: str) -> int:
        for i, (lab, _) in enumerate(self.factors):
            if lab == label:
                return i
        raise LayoutError(f"unknown factor label {label!r}; have {self.labels}")

    def concat(self, other: "SpaceLayout") -> "SpaceLayout":
        return SpaceLayout(self.factors + other.factors)


def _hermitian_deviation(a: np.ndarray) -> float:
    """max|A - A^dag| taken over blocks of rows, so that no temporary is as
    large as A (the Hamiltonians reach thousands of states)."""
    step = max(1, HERMITIAN_BLOCK // a.shape[0])
    return float(np.max([np.max(np.abs(a[i:i + step] - a[:, i:i + step].conj().T))
                         for i in range(0, a.shape[0], step)]))


@dataclass(frozen=True)
class Operator:
    """Dense operator on a composite space, with a verified hermiticity flag."""

    layout: SpaceLayout
    entries: np.ndarray
    hermitian: bool

    def __post_init__(self):
        n = self.layout.total_dim
        if self.entries.shape != (n, n):
            raise LayoutError(
                f"entries shape {self.entries.shape} does not match layout dim {n}"
            )
        object.__setattr__(self, "entries", _frozen(self.entries))
        if self.hermitian:
            dev = _hermitian_deviation(self.entries)
            if dev >= HERMITIAN_ATOL:
                raise StateError(f"hermitian flag set but max|A - A^dag| = {dev:.3e}")

    @staticmethod
    def create(layout: SpaceLayout, entries: np.ndarray) -> "Operator":
        """Construct with the hermiticity flag detected from the entries."""
        dev = _hermitian_deviation(np.asarray(entries))
        return Operator(layout, np.asarray(entries, complex), bool(dev < HERMITIAN_ATOL))

    @property
    def dim(self) -> int:
        return self.layout.total_dim

    def dag(self) -> "Operator":
        return Operator(self.layout, self.entries.conj().T, self.hermitian)

    def _require_same_layout(self, other: "Operator"):
        if self.layout != other.layout:
            raise LayoutError(
                f"layout mismatch: {self.layout.factors} vs {other.layout.factors}"
            )

    def __add__(self, other: "Operator") -> "Operator":
        self._require_same_layout(other)
        return Operator(self.layout, self.entries + other.entries,
                        self.hermitian and other.hermitian)

    def __sub__(self, other: "Operator") -> "Operator":
        self._require_same_layout(other)
        return Operator(self.layout, self.entries - other.entries,
                        self.hermitian and other.hermitian)

    def __mul__(self, scalar: complex) -> "Operator":
        herm = self.hermitian and float(np.imag(scalar)) == 0.0
        return Operator(self.layout, scalar * self.entries, herm)

    __rmul__ = __mul__

    def __matmul__(self, other: "Operator") -> "Operator":
        self._require_same_layout(other)
        return Operator.create(self.layout, self.entries @ other.entries)

    def commutator(self, other: "Operator") -> "Operator":
        self._require_same_layout(other)
        ab = self.entries @ other.entries
        if self.hermitian and other.hermitian:
            # BA = (AB)^dag for hermitian A, B; saves one product
            ba = ab.conj().T
        else:
            ba = other.entries @ self.entries
        return Operator.create(self.layout, ab - ba)


@dataclass(frozen=True)
class QuantumState:
    """Density matrix on a composite space: the state of a dephased run.

    Cheap invariants (trace / hermiticity) are validated on construction.
    Positivity needs an eigendecomposition and is validated on demand via
    :meth:`validate_positive`, which integrators call on their output points.
    """

    layout: SpaceLayout
    data: np.ndarray
    trace_atol: float = TRACE_ATOL

    def __post_init__(self):
        n = self.layout.total_dim
        d = np.asarray(self.data, complex)
        if d.shape != (n, n):
            raise LayoutError(f"density matrix shape {d.shape} does not match "
                              f"layout dim ({n}, {n})")
        tr = np.trace(d)
        if abs(tr - 1.0) > self.trace_atol:
            raise StateError(f"density matrix trace {tr!r} deviates from 1")
        herm_dev = np.max(np.abs(d - d.conj().T))
        if herm_dev > 100 * HERMITIAN_ATOL:
            raise StateError(f"density matrix hermiticity deviation {herm_dev:.3e}")
        object.__setattr__(self, "data", _frozen(d))

    def density(self) -> np.ndarray:
        return np.asarray(self.data)

    def validate_positive(self, atol: float = PSD_ATOL) -> float:
        """Check the smallest eigenvalue of the density matrix; returns it."""
        lam = float(np.linalg.eigvalsh(self.density())[0])
        if lam < -atol:
            raise StateError(f"density matrix has eigenvalue {lam:.3e} < -{atol:.1e}")
        return lam


@dataclass(frozen=True)
class KetEnsemble:
    """State rho = sum_k w_k |psi_k><psi_k| held as the columns
    sqrt(w_k) |psi_k> of one (D, K) matrix, so that rho = kets kets^dag.

    Every input state and every state of a unitary run is one: a pure state
    is K = 1, a state diagonal in the product basis has one column per
    nonzero population.  Unitary propagation acts on the K columns, and a
    partial trace only regroups them (see `partial_trace`).  The trace,
    ||kets||_F^2, is validated on construction.
    """

    layout: SpaceLayout
    kets: np.ndarray

    def __post_init__(self):
        kets = _frozen(self.kets)
        tr = np.vdot(kets, kets).real
        if abs(tr - 1.0) > NORM_ATOL:
            raise StateError(f"ket ensemble trace {tr!r} deviates from 1")
        object.__setattr__(self, "kets", kets)

    @property
    def is_vector(self) -> bool:
        return self.kets.shape[1] == 1

    def density(self) -> np.ndarray:
        rho = self.kets @ self.kets.conj().T
        return 0.5 * (rho + rho.conj().T)


# ---------------------------------------------------------------------------
# elementary operators

def annihilation(cutoff: int, label: str = "osc") -> Operator:
    """Bosonic lowering operator b on a Fock space truncated to `cutoff` levels.

    <n-1| b |n> = sqrt(n) for 1 <= n <= cutoff-1.
    """
    if cutoff < 2:
        raise DimensionError(f"Fock cutoff must be >= 2, got {cutoff}")
    mat = np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)
    return Operator(SpaceLayout.single(label, cutoff), mat.astype(complex), False)


def number_operator(cutoff: int, label: str = "osc") -> Operator:
    """b^dag b, diagonal in the Fock basis."""
    if cutoff < 2:
        raise DimensionError(f"Fock cutoff must be >= 2, got {cutoff}")
    return Operator(SpaceLayout.single(label, cutoff),
                    np.diag(np.arange(cutoff, dtype=float)).astype(complex), True)


def qubit_operators(label: str = "qubit") -> tuple[Operator, Operator, Operator]:
    """(sigma_plus, sigma_minus, sigma_z) on a two-level factor, ordering (g, e)."""
    lay = SpaceLayout.single(label, 2)
    sigma_minus = np.array([[0, 1], [0, 0]], complex)   # |g><e|
    sigma_plus = sigma_minus.conj().T                    # |e><g|
    sigma_z = np.diag([-1.0, 1.0]).astype(complex)
    return (Operator(lay, sigma_plus, False),
            Operator(lay, sigma_minus, False),
            Operator(lay, sigma_z, True))


def identity(layout: SpaceLayout) -> Operator:
    return Operator(layout, np.eye(layout.total_dim, dtype=complex), True)


def tensor(a: Operator, b: Operator) -> Operator:
    """Kronecker product; layouts concatenate, hermitian flags AND together."""
    return Operator(a.layout.concat(b.layout), np.kron(a.entries, b.entries),
                    a.hermitian and b.hermitian)


def tensor_all(ops: list[Operator]) -> Operator:
    return reduce(tensor, ops)


def embed(op: Operator, layout: SpaceLayout) -> Operator:
    """Lift a single-factor operator into `layout` by padding with identities."""
    if len(op.layout.factors) != 1:
        raise LayoutError("embed expects a single-factor operator")
    label, dim = op.layout.factors[0]
    if layout.dim(label) != dim:
        raise LayoutError(f"factor {label!r} has dim {layout.dim(label)} in target "
                          f"layout but operator acts on dim {dim}")
    parts = []
    for lab, d in layout.factors:
        if lab == label:
            parts.append(op)
        else:
            parts.append(identity(SpaceLayout.single(lab, d)))
    return tensor_all(parts)


def basis_state(layout: SpaceLayout, occupations: dict[str, int]) -> KetEnsemble:
    """Product basis ket |n_1, n_2, ...> given per-factor indices."""
    vecs = []
    for lab, d in layout.factors:
        idx = occupations.get(lab, 0)
        if not 0 <= idx < d:
            raise DimensionError(f"index {idx} out of range for factor {lab!r} (dim {d})")
        v = np.zeros(d, complex)
        v[idx] = 1.0
        vecs.append(v)
    return KetEnsemble(layout, reduce(np.kron, vecs)[:, None])


def partial_trace(state: QuantumState | KetEnsemble, keep: str):
    """Reduced state on the kept factor, of the same type as `state`.

    A KetEnsemble gives the ensemble Phi of the kept factor, rho = Phi Phi^dag:
    its kets with the kept axis moved first, one column per index of the
    other factors.  A QuantumState gives the contracted density matrix.
    """
    axis = state.layout.axis(keep)
    dims = state.layout.dims
    dk = dims[axis]
    kept = SpaceLayout.single(keep, dk)
    if isinstance(state, KetEnsemble):
        kets = state.kets.reshape(dims + (-1,))
        return KetEnsemble(kept, np.moveaxis(kets, axis, 0).reshape(dk, -1))
    nfac = len(dims)
    rho_t = state.data.reshape(dims + dims)
    # contract every factor except `keep` between the ket and bra sides
    idx_ket = list(range(nfac))
    idx_bra = list(range(nfac))
    idx_bra = [i + nfac if i == axis else i for i in idx_bra]
    rho = np.einsum(rho_t, idx_ket + idx_bra, [axis, axis + nfac])
    rho = 0.5 * (rho + rho.conj().T)
    return QuantumState(kept, rho, trace_atol=max(state.trace_atol, TRACE_ATOL))
