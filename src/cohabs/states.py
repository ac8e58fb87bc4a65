"""Initial-state factory.

Every kind except `coherent` is diagonal in the Fock basis (zero coherence by
construction); composite states put the absorber in its ground state.  Every
state is built as a `KetEnsemble`: a pure factor is one ket column, a
diagonal factor one column sqrt(p_m)|m> per nonzero population.
Diagonal distributions are renormalized after truncation, guarded by a tail
mass threshold so truncation cannot silently distort a state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy.special import gammaln

from .errors import ConfigError, TruncationError
from .hilbert import KetEnsemble, SpaceLayout
from .models import OSC_LABEL, PUMP_LABEL

TAIL_MASS_ATOL = 1e-6

KINDS = ("fock", "thermal", "phase_randomized_coherent", "admixture", "coherent", "ground")


@dataclass(frozen=True)
class InitialStateSpec:
    kind: str
    n: int = 0
    nbar: float = 0.0
    p: float = 0.0
    beta: complex = 0j

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown initial-state kind {self.kind!r}; choose from {KINDS}")
        if self.n < 0:
            raise ConfigError(f"Fock index must be >= 0, got {self.n}")
        if self.nbar < 0:
            raise ConfigError(f"mean occupation must be >= 0, got {self.nbar}")
        if not 0.0 <= self.p <= 1.0:
            raise ConfigError(f"ground-state weight must lie in [0, 1], got {self.p}")


# ---------------------------------------------------------------------------
# single-factor building blocks

def thermal_populations(nbar: float, dim: int) -> np.ndarray:
    """Geometric Fock distribution, renormalized after truncation."""
    if nbar == 0.0:
        pops = np.zeros(dim)
        pops[0] = 1.0
        return pops
    q = nbar / (nbar + 1.0)
    tail = q ** dim            # exact mass beyond the cutoff
    if tail > TAIL_MASS_ATOL:
        raise TruncationError(
            f"thermal(nbar={nbar}) keeps {tail:.2e} probability above cutoff {dim}")
    pops = (1.0 - q) * q ** np.arange(dim)
    return pops / pops.sum()


def poisson_populations(nbar: float, dim: int) -> np.ndarray:
    """Poisson Fock distribution (a phase-randomized coherent state)."""
    if nbar == 0.0:
        pops = np.zeros(dim)
        pops[0] = 1.0
        return pops
    m = np.arange(dim)
    logp = -nbar + m * np.log(nbar) - gammaln(m + 1.0)
    pops = np.exp(logp)
    tail = 1.0 - pops.sum()
    if tail > TAIL_MASS_ATOL:
        raise TruncationError(
            f"poissonian(nbar={nbar}) keeps {tail:.2e} probability above cutoff {dim}")
    return pops / pops.sum()


def coherent_amplitudes(beta: complex, dim: int) -> np.ndarray:
    """Coherent-state Fock amplitudes, renormalized after truncation; real for
    a real beta."""
    if beta == 0:
        amp = np.zeros(dim)
        amp[0] = 1.0
        return amp
    m = np.arange(dim)
    log_mag = -0.5 * abs(beta) ** 2 + m * np.log(abs(beta)) - 0.5 * gammaln(m + 1.0)
    phase = np.sign(beta.real) ** m if beta.imag == 0 else np.exp(1j * m * np.angle(beta))
    amp = np.exp(log_mag) * phase
    tail = 1.0 - float(np.vdot(amp, amp).real)
    if tail > TAIL_MASS_ATOL:
        raise TruncationError(
            f"coherent(|beta|^2={abs(beta)**2:.3g}) keeps {tail:.2e} probability "
            f"above cutoff {dim}")
    return amp / np.linalg.norm(amp)


def _diagonal_kets(pops: np.ndarray) -> np.ndarray:
    """The columns sqrt(p_m)|m> of a Fock-diagonal state, one per nonzero p_m."""
    nonzero = np.flatnonzero(pops)
    kets = np.zeros((len(pops), len(nonzero)))
    kets[nonzero, np.arange(len(nonzero))] = np.sqrt(pops[nonzero])
    return kets


def oscillator_state(spec: InitialStateSpec, dim: int) -> np.ndarray:
    """Single-factor ket columns (dim, K): one for a pure state, one per
    nonzero population for a state diagonal in the Fock basis."""
    if spec.kind in ("fock", "ground"):
        n = spec.n if spec.kind == "fock" else 0
        if n >= dim:
            raise TruncationError(f"Fock index {n} does not fit cutoff {dim}")
        pops = np.zeros(dim)
        pops[n] = 1.0
        return _diagonal_kets(pops)
    if spec.kind == "coherent":
        return coherent_amplitudes(spec.beta, dim)[:, None]
    if spec.kind == "thermal":
        return _diagonal_kets(thermal_populations(spec.nbar, dim))
    if spec.kind == "phase_randomized_coherent":
        return _diagonal_kets(poisson_populations(spec.nbar, dim))
    if spec.kind == "admixture":
        if spec.n >= dim:
            raise TruncationError(f"Fock index {spec.n} does not fit cutoff {dim}")
        pops = np.zeros(dim)
        pops[0] += spec.p
        pops[spec.n] += 1.0 - spec.p
        return _diagonal_kets(pops)
    raise ConfigError(f"unknown kind {spec.kind!r}")


# ---------------------------------------------------------------------------

def make_state(spec: InitialStateSpec, layout: SpaceLayout,
               pump_amplitude: complex | None = None) -> KetEnsemble:
    """Composite initial state: absorber ground (x) oscillator state (x) pump,
    as the Kronecker product of each factor's ket columns.

    The pump factor, when present in the layout, is filled with a coherent
    state of the given amplitude (vacuum when the amplitude is absent or 0).
    The absorber's ground level is even, so the kets are the same in the
    parity frame as in the true one (see `hilbert`), and real unless the
    coherent input or the pump has a complex amplitude.
    """
    parts = []
    for lab, d in layout.factors:
        if lab == OSC_LABEL:
            parts.append(oscillator_state(spec, d))
        elif lab == PUMP_LABEL:
            parts.append(coherent_amplitudes(pump_amplitude or 0.0, d)[:, None])
        else:
            parts.append(np.identity(d)[:, :1])     # ground state
    return KetEnsemble(layout, reduce(np.kron, parts))

