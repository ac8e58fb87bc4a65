"""Hamiltonian and dissipator constructors driven by a declarative ModelSpec.

Every term of a model (the absorption terms g (A^dag b^k + h.c.), the
mixer, the free number terms) is a real matrix in the Fock product basis,
added together with its transpose or placed on the diagonal; the pump
amplitude enters only the initial state.  So `build_hamiltonian` returns a
real symmetric array by construction, and `dephasing_dissipator` the real
diagonal of its jump operator.

Couplings and angular frequencies are quoted in units of the linear coupling
g1 (which fixes the time unit); the scaled time used for reporting is
tau = g_hi * t where g_hi is the coupling of the highest-order interaction.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .errors import ConfigError, LayoutError, TruncationError
from .hilbert import ABSORBER_LABEL, SpaceLayout

OSC_LABEL = "osc"
PUMP_LABEL = "pump"


@dataclass(frozen=True)
class Interaction:
    order: int
    coupling: float

    def __post_init__(self):
        if self.order < 1:
            raise ConfigError(f"interaction order must be >= 1, got {self.order}")
        if not math.isfinite(self.coupling):
            raise ConfigError(f"interaction coupling must be finite, got {self.coupling}")


@dataclass(frozen=True)
class ModelSpec:
    """Declarative model description."""

    interactions: tuple[Interaction, ...]
    absorber: str = "qubit"                 # "qubit" | "oscillator"
    absorber_dim: int = 2
    omega: float = 0.0                      # oscillator frequency
    Omega: float = 0.0                      # absorber frequency
    nu: float | None = None                 # pump-mode frequency (three-mode model)
    dephasing_rate: float = 0.0
    pump: complex | None = None             # pump amplitude; presence adds a third factor
    pump_dim: int | None = None
    cutoff: int = 60

    def __post_init__(self):
        if self.absorber not in ("qubit", "oscillator"):
            raise ConfigError(f"absorber must be 'qubit' or 'oscillator', got {self.absorber!r}")
        if not self.interactions:
            raise ConfigError("model needs at least one interaction")
        if self.dephasing_rate < 0:
            raise ConfigError(f"dephasing rate must be >= 0, got {self.dephasing_rate}")
        self.layout()                       # every factor needs dimension >= 2
        orders = [i.order for i in self.interactions]
        if len(set(orders)) != len(orders):
            raise ConfigError(f"duplicate interaction orders: {orders}")

    # -- geometry ----------------------------------------------------------

    @property
    def has_pump(self) -> bool:
        return self.pump is not None

    def effective_pump_dim(self) -> int:
        if self.pump_dim is not None:
            return self.pump_dim
        # floor of nb + 5 sqrt(nb+1), padded so the coherent tail clears the
        # 1e-6 truncation guard at small amplitudes too
        nb = abs(self.pump) ** 2 if self.pump is not None else 0.0
        return max(8, int(math.ceil(nb + 5.0 * math.sqrt(nb + 1.0))) + 2)

    def layout(self) -> SpaceLayout:
        dim_abs = 2 if self.absorber == "qubit" else self.absorber_dim
        factors = [(ABSORBER_LABEL, dim_abs), (OSC_LABEL, self.cutoff)]
        if self.has_pump:
            factors.append((PUMP_LABEL, self.effective_pump_dim()))
        return SpaceLayout(tuple(factors))

    def coupling(self, order: int) -> float:
        for it in self.interactions:
            if it.order == order:
                return it.coupling
        raise ConfigError(f"model has no interaction of order {order}")

    def tau_scale(self) -> float:
        """Coupling of the highest-order interaction; 1.0 if it vanishes."""
        hi = max(self.interactions, key=lambda it: it.order)
        return abs(hi.coupling) if hi.coupling != 0.0 else 1.0


# ---------------------------------------------------------------------------
# terms
#
# A term is a list of real sparse matrices on the spec's layout, each a
# Kronecker product of one ladder-matrix diagonal per factor, held as
# coordinate triplets (rows, cols, values).  build_hamiltonian adds a spec's
# terms into one dense array.

def _ladder(dim: int, k: int = 1):
    """b^k on `dim` levels: <i| b^k |i+k> = sqrt(i+1) ... sqrt(i+k).  On two
    levels b is sigma- = |g><e| in (g, e) order."""
    s = np.sqrt(np.arange(1.0, dim))
    values = s[:dim - k]
    for j in range(1, k):
        values = values * s[j:dim - k + j]
    return np.arange(dim - k), np.arange(k, dim), values


def _diagonal(values):
    idx = np.arange(len(values))
    return idx, idx, np.asarray(values, float)


def _number(dim: int, scale: float = 1.0):
    """scale * b^dag b on `dim` levels; on two levels, scale * |e><e|."""
    return _diagonal(scale * np.arange(float(dim)))


def _dagger(triplet):
    rows, cols, values = triplet
    return cols, rows, values


def _kron(spec: ModelSpec, factors: dict):
    """Kronecker product over the spec's layout: `factors[label]` on the
    factors it names, the identity on the others."""
    rows, cols, values = np.zeros(1, int), np.zeros(1, int), np.ones(1)
    for label, dim in spec.layout().factors:
        r, c, v = factors[label] if label in factors else _diagonal(np.ones(dim))
        rows = np.add.outer(rows * dim, r).ravel()
        cols = np.add.outer(cols * dim, c).ravel()
        values = np.multiply.outer(values, v).ravel()
    return rows, cols, values


def _raising(k: int, spec: ModelSpec) -> dict:
    """Factors of A^dag b^k, with A the absorber's lowering operator (sigma- or a)."""
    if k >= spec.cutoff:
        raise TruncationError(f"interaction order k={k} does not fit cutoff {spec.cutoff}")
    dim_abs = spec.layout().dim(ABSORBER_LABEL)
    return {ABSORBER_LABEL: _dagger(_ladder(dim_abs)), OSC_LABEL: _ladder(spec.cutoff, k)}


def _plus_hc(g: float, spec: ModelSpec, factors: dict) -> list:
    """g (X + X^dag) for X the Kronecker product of `factors`."""
    rows, cols, values = _kron(spec, factors)
    return [(rows, cols, g * values), (cols, rows, g * values)]


def _interaction(k: int, g: float, spec: ModelSpec) -> list:
    """The order-k absorption term of the spec's model: excitation exchange
    with a qubit, the mixer with an oscillator absorber.  With a pump factor,
    linear absorption g (sigma+ b a + h.c.) draws its energy from the pump
    mode and the quadratic term acts as the identity on it."""
    if not spec.has_pump:
        return _plus_hc(g, spec, _raising(k, spec))
    if k not in (1, 2):
        raise ConfigError("pumped model supports interaction orders 1 and 2 only")
    if spec.absorber != "qubit":
        raise LayoutError("the pumped model requires a qubit absorber")
    if k == 2:
        return _plus_hc(g, spec, _raising(2, spec))
    return _plus_hc(g, spec, {ABSORBER_LABEL: _dagger(_ladder(2)),
                              OSC_LABEL: _ladder(spec.cutoff),
                              PUMP_LABEL: _ladder(spec.effective_pump_dim())})


def _free(spec: ModelSpec) -> list:
    """omega b^dag b + ((Omega/2) sigma_z or Omega a^dag a) + nu on the pump."""
    if spec.absorber == "qubit":
        h_abs = _diagonal([-0.5 * spec.Omega, 0.5 * spec.Omega])
    else:
        h_abs = _number(spec.absorber_dim, spec.Omega)
    terms = [_kron(spec, {OSC_LABEL: _number(spec.cutoff, spec.omega)}),
             _kron(spec, {ABSORBER_LABEL: h_abs})]
    if spec.has_pump and spec.nu:
        terms.append(_kron(spec, {PUMP_LABEL: _number(spec.effective_pump_dim(), spec.nu)}))
    return terms


def _dense(spec: ModelSpec, terms: list) -> np.ndarray:
    n = spec.layout().total_dim
    h = np.zeros((n, n))
    for rows, cols, values in terms:        # no index repeats within one triplet
        h[rows, cols] += values
    h.setflags(write=False)
    return h


# ---------------------------------------------------------------------------
# Hamiltonian

@dataclass(frozen=True)
class Hamiltonian:
    """A model's Hamiltonian on its layout: `entries` is a read-only real
    symmetric array, since each off-diagonal term is added right after its
    transpose (`_plus_hc`) and entries add up in the same order on both
    sides of the diagonal."""

    layout: SpaceLayout
    entries: np.ndarray


def build_hamiltonian(spec: ModelSpec) -> Hamiltonian:
    """Full Hamiltonian for the spec: free part plus every listed interaction,
    added into one dense real array."""
    terms = _free(spec)
    for it in spec.interactions:
        terms += _interaction(it.order, it.coupling, spec)
    return Hamiltonian(spec.layout(), _dense(spec, terms))


# ---------------------------------------------------------------------------
# dissipators

def dephasing_dissipator(gamma: float, spec: ModelSpec) -> list[np.ndarray]:
    """Number dephasing on the oscillator: the diagonal sqrt(gamma) n of its one
    jump operator sqrt(gamma) b^dag b, in storage order; no jump at gamma = 0."""
    if gamma < 0:
        raise ConfigError(f"dephasing rate must be >= 0, got {gamma}")
    if gamma == 0.0:
        return []
    return [_kron(spec, {OSC_LABEL: _number(spec.cutoff, math.sqrt(gamma))})[2]]
