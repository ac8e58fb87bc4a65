"""Initial-state factory.

Every kind except `coherent` is diagonal in the Fock basis (zero coherence by
construction); composite states put the absorber in its ground state.
Diagonal distributions are renormalized after truncation, guarded by a tail
mass threshold so truncation cannot silently distort a state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import ConfigError, TruncationError
from .hilbert import QuantumState, SpaceLayout
from .models import OSC_LABEL, PUMP_LABEL

TAIL_MASS_ATOL = 1e-6

KINDS = ("fock", "thermal", "phase_randomized_coherent", "admixture", "coherent", "ground")


@dataclass(frozen=True)
class InitialStateSpec:
    kind: str
    n: int = 0
    nbar: float = 0.0
    p: float = 0.0
    beta: complex = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown initial-state kind {self.kind!r}; choose from {KINDS}")
        if self.n < 0:
            raise ConfigError(f"Fock index must be >= 0, got {self.n}")
        if self.nbar < 0:
            raise ConfigError(f"mean occupation must be >= 0, got {self.nbar}")
        if not 0.0 <= self.p <= 1.0:
            raise ConfigError(f"ground-state weight must lie in [0, 1], got {self.p}")

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.kind in ("fock", "admixture"):
            d["n"] = self.n
        if self.kind in ("thermal", "phase_randomized_coherent"):
            d["nbar"] = self.nbar
        if self.kind == "admixture":
            d["p"] = self.p
        if self.kind == "coherent":
            d["beta"] = [self.beta.real, self.beta.imag]
        return d

    @staticmethod
    def from_dict(d: dict) -> "InitialStateSpec":
        try:
            beta = d.get("beta", 0.0)
            if isinstance(beta, (list, tuple)):
                beta = complex(beta[0], beta[1])
            return InitialStateSpec(
                kind=d["kind"],
                n=int(d.get("n", 0)),
                nbar=float(d.get("nbar", 0.0)),
                p=float(d.get("p", 0.0)),
                beta=complex(beta),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad initial-state document: {exc}") from exc


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
    """Coherent-state Fock amplitudes, renormalized after truncation."""
    if beta == 0:
        amp = np.zeros(dim, complex)
        amp[0] = 1.0
        return amp
    m = np.arange(dim)
    log_mag = -0.5 * abs(beta) ** 2 + m * np.log(abs(beta)) - 0.5 * gammaln(m + 1.0)
    amp = np.exp(log_mag) * np.exp(1j * m * np.angle(beta))
    tail = 1.0 - float(np.vdot(amp, amp).real)
    if tail > TAIL_MASS_ATOL:
        raise TruncationError(
            f"coherent(|beta|^2={abs(beta)**2:.3g}) keeps {tail:.2e} probability "
            f"above cutoff {dim}")
    return amp / np.linalg.norm(amp)


def oscillator_state(spec: InitialStateSpec, dim: int):
    """Single-factor state data: (vector, None) for pure, (None, matrix) for mixed."""
    if spec.kind in ("fock", "ground"):
        n = spec.n if spec.kind == "fock" else 0
        if n >= dim:
            raise TruncationError(f"Fock index {n} does not fit cutoff {dim}")
        vec = np.zeros(dim, complex)
        vec[n] = 1.0
        return vec, None
    if spec.kind == "coherent":
        return coherent_amplitudes(spec.beta, dim), None
    if spec.kind == "thermal":
        return None, np.diag(thermal_populations(spec.nbar, dim)).astype(complex)
    if spec.kind == "phase_randomized_coherent":
        return None, np.diag(poisson_populations(spec.nbar, dim)).astype(complex)
    if spec.kind == "admixture":
        if spec.n >= dim:
            raise TruncationError(f"Fock index {spec.n} does not fit cutoff {dim}")
        pops = np.zeros(dim)
        pops[0] += spec.p
        pops[spec.n] += 1.0 - spec.p
        return None, np.diag(pops).astype(complex)
    raise ConfigError(f"unknown kind {spec.kind!r}")


# ---------------------------------------------------------------------------

def make_state(spec: InitialStateSpec, layout: SpaceLayout,
               pump_amplitude: complex | None = None) -> QuantumState:
    """Composite initial state: absorber ground (x) oscillator state (x) pump.

    The pump factor, when present in the layout, is filled with a coherent
    state of the given amplitude (vacuum when the amplitude is absent or 0).
    """
    osc_dim = layout.dim(OSC_LABEL)
    vec, mat = oscillator_state(spec, osc_dim)

    parts_pure: list[np.ndarray] = []
    for lab, d in layout.factors:
        if lab == OSC_LABEL:
            parts_pure.append(vec if vec is not None else np.zeros(0))
        elif lab == PUMP_LABEL:
            parts_pure.append(coherent_amplitudes(pump_amplitude or 0.0, d))
        else:
            g = np.zeros(d, complex)
            g[0] = 1.0
            parts_pure.append(g)

    if vec is not None:
        out = parts_pure[0]
        for part in parts_pure[1:]:
            out = np.kron(out, part)
        return QuantumState(layout, out)

    out_m = None
    for (lab, d), part in zip(layout.factors, parts_pure):
        block = mat if lab == OSC_LABEL else np.outer(part, part.conj())
        out_m = block if out_m is None else np.kron(out_m, block)
    return QuantumState(layout, out_m)


def single_mode_state(spec: InitialStateSpec, dim: int,
                      label: str = OSC_LABEL) -> QuantumState:
    """Oscillator-only state, mostly for direct diagnostics and tests."""
    vec, mat = oscillator_state(spec, dim)
    layout = SpaceLayout.single(label, dim)
    return QuantumState(layout, vec if vec is not None else mat)
