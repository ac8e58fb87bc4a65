"""Diagnostics on oscillator states: entropies, relative entropy of
coherence, excitation statistics, quadrature moments, Gaussian-shell removal,
Wigner grids and their negativity volume.

All entropies are in nats.  Quadratures use X = (b + b^dag)/sqrt(2),
P = i (b^dag - b)/sqrt(2) (hbar = 1), so the vacuum covariance is
diag(1/2, 1/2).  The Wigner convention is W(x, p) = (1/pi) <D(a) Pi D(a)^dag>
with a = (x + i p)/sqrt(2), normalized as integral W dx dp = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np
import scipy.linalg

from .errors import ShellRemovalError, StateError
from .hilbert import KetEnsemble, QuantumState, abs2

EIGENVALUE_FLOOR = 1e-14
COHERENCE_FLOOR = -1e-10
NORMALIZATION_ATOL = 0.02
SHELL_RESIDUAL_ATOL = 1e-6
SHELL_LEAKAGE_ATOL = 1e-4
LEAKAGE_LEVELS = 5              # top Fock levels whose population is the leakage
WIGNER_GATHER_BYTES = 1 << 20   # bound on each gathered block of wavefunction values


def _as_density(rho) -> np.ndarray:
    if isinstance(rho, (QuantumState, KetEnsemble)):
        return rho.density()
    return np.asarray(rho, complex if np.iscomplexobj(rho) else float)


def _spectrum(rho) -> np.ndarray:
    """Eigenvalues of rho.  A KetEnsemble Phi (N, M) takes the smaller of its
    Gram matrices Phi^dag Phi and Phi Phi^dag, which share the nonzero ones."""
    if isinstance(rho, KetEnsemble):
        phi = rho.kets
        gram = phi.conj().T @ phi if phi.shape[1] < phi.shape[0] else phi @ phi.conj().T
        lam = np.linalg.eigvalsh(gram)
    else:
        lam = np.linalg.eigvalsh(_as_density(rho))
    if lam[0] < -1e-6:
        raise StateError(f"density matrix has eigenvalue {lam[0]:.3e}")
    return lam


def _populations(rho) -> np.ndarray:
    """Fock populations: the main diagonal of rho."""
    if isinstance(rho, KetEnsemble):
        return abs2(rho.kets).sum(axis=1)
    return np.real(np.diagonal(_as_density(rho)))


def _ladder_moments(rho) -> tuple[np.ndarray, complex, complex]:
    """Fock populations, <b> and <b^2>, read from the main, first and second
    lower diagonals of rho: O(N M) sums for a KetEnsemble Phi (N, M)."""
    if isinstance(rho, KetEnsemble):
        phi = rho.kets
        low1 = np.einsum("nm,nm->n", phi[1:], phi[:-1].conj())    # rho_{n+1,n}
        low2 = np.einsum("nm,nm->n", phi[2:], phi[:-2].conj())    # rho_{n+2,n}
    else:
        rho = _as_density(rho)
        low1 = np.diagonal(rho, -1)
        low2 = np.diagonal(rho, -2)
    n = np.arange(1.0, len(low1) + 1)
    return (_populations(rho), complex(np.sqrt(n) @ low1),
            complex(np.sqrt(n[:-1] * n[1:]) @ low2))


# ---------------------------------------------------------------------------
# entropies and coherence

def _entropy_of(probs: np.ndarray) -> float:
    p = probs[probs > EIGENVALUE_FLOOR]
    return float(-(p * np.log(p)).sum())


def von_neumann_entropy(rho) -> float:
    """-sum(lam ln lam) over eigenvalues above the clipping floor."""
    return _entropy_of(_spectrum(rho))


def coherence(rho) -> float:
    """Relative entropy of coherence in the Fock basis: S(diag) - S(rho)."""
    return diagnose(rho).coherence


# ---------------------------------------------------------------------------
# moments

def _number_stats(pops: np.ndarray) -> tuple[float, float]:
    n = np.arange(len(pops), dtype=float)
    mean = float(n @ pops)
    var = float((n * n) @ pops) - mean ** 2
    return mean, math.sqrt(max(var, 0.0))


def _quadratures(pops: np.ndarray, mean_b: complex,
                 mean_b2: complex) -> tuple[np.ndarray, np.ndarray]:
    """(<X>, <P>) and the covariance from <b>, <b^2> and the populations.

    X^2 and P^2 hold (b^dag b + b b^dag)/2 with the truncated b b^dag =
    diag(1, ..., N-1, 0), as the products of the truncated X and P give it;
    XP + PX = i(b^dag^2 - b^2) has no such term.
    """
    n = np.arange(len(pops), dtype=float)
    sym = 0.5 * (float(n @ pops) + float(n[1:] @ pops[:-1]))
    mx = math.sqrt(2.0) * mean_b.real
    mp = math.sqrt(2.0) * mean_b.imag
    xx = sym + mean_b2.real - mx * mx
    pp = sym - mean_b2.real - mp * mp
    xp = mean_b2.imag - mx * mp
    return np.array([mx, mp]), np.array([[xx, xp], [xp, pp]])


def excitation_stats(rho) -> tuple[float, float]:
    """Mean and standard deviation of the excitation number."""
    return _number_stats(_populations(rho))


def quadrature_stats(rho) -> tuple[np.ndarray, np.ndarray]:
    """First moments (<X>, <P>) and the symmetrized 2x2 covariance matrix."""
    return _quadratures(*_ladder_moments(rho))


# ---------------------------------------------------------------------------
# Gaussian-shell removal

def remove_gaussian_shell(rho, max_rounds: int = 8) -> np.ndarray:
    """Strip the Gaussian envelope: displacement to zero means, phase rotation
    diagonalizing the covariance, and squeezing equalizing its diagonal.

    The three operations are applied in that order and repeated (truncation
    makes each pass slightly inexact) until the means and covariance residuals
    pass SHELL_RESIDUAL_ATOL.  Raises ShellRemovalError, carrying the partial
    state and achieved residuals, if the targets cannot be met or squeezing
    pushes population into the top Fock levels.
    """
    rho = _as_density(rho).copy()
    dim = rho.shape[0]
    b = np.diag(np.sqrt(np.arange(1.0, dim)), 1)

    def residuals(r):
        means, cov = quadrature_stats(r)
        return {
            "mean_x": abs(means[0]), "mean_p": abs(means[1]),
            "cov_offdiag": abs(cov[0, 1]), "cov_imbalance": abs(cov[0, 0] - cov[1, 1]),
        }

    for _ in range(max_rounds):
        res = residuals(rho)
        if max(res.values()) < SHELL_RESIDUAL_ATOL:
            return rho
        # displacement D(-<b>); a real shift, and no rotation, keep a real state real
        amp = -_ladder_moments(rho)[1]
        amp = amp if amp.imag else amp.real
        d = scipy.linalg.expm(amp * b.T - np.conj(amp) * b)
        rho = d @ rho @ d.conj().T
        # rotation zeroing the covariance off-diagonal
        _, cov = quadrature_stats(rho)
        theta = 0.5 * math.atan2(2.0 * cov[0, 1], cov[0, 0] - cov[1, 1])
        if theta:
            u = np.exp(-1j * theta * np.arange(dim))
            rho = (u[:, None] * rho) * u.conj()[None, :]
        # squeezing equalizing the diagonal
        _, cov = quadrature_stats(rho)
        xi = 0.25 * math.log(cov[0, 0] / cov[1, 1])
        b2 = b @ b
        s = scipy.linalg.expm(0.5 * xi * (b2 - b2.conj().T))
        rho = s @ rho @ s.conj().T
        rho = 0.5 * (rho + rho.conj().T)
        trace = float(np.trace(rho).real)
        if abs(trace - 1.0) > SHELL_LEAKAGE_ATOL:
            raise ShellRemovalError(
                f"squeezing leaked {abs(trace-1.0):.2e} probability past the cutoff",
                state=rho / trace, residuals=residuals(rho / trace))
        rho = rho / trace

    res = residuals(rho)
    if max(res.values()) >= SHELL_RESIDUAL_ATOL:
        raise ShellRemovalError(
            f"shell removal stalled with residuals {res}", state=rho, residuals=res)
    return rho


# ---------------------------------------------------------------------------
# Wigner function

@dataclass(frozen=True)
class WignerGridSpec:
    extent: float = 8.0
    points: int = 201

    def axis(self) -> np.ndarray:
        return np.linspace(-self.extent, self.extent, self.points)

    @staticmethod
    def for_state(rho, points: int = 201) -> "WignerGridSpec":
        """Extent covering 4 sqrt(mean_N + 1), never below the default 8."""
        mean_n, _ = excitation_stats(rho)
        return WignerGridSpec(extent=max(8.0, math.ceil(4.0 * math.sqrt(mean_n + 1.0))),
                              points=points)


@dataclass(frozen=True)
class WignerGrid:
    x: np.ndarray
    p: np.ndarray
    values: np.ndarray           # shape (len(p), len(x)); row = fixed p
    normalization_integral: float
    coverage_warning: bool = False

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def dp(self) -> float:
        return float(self.p[1] - self.p[0])


def _kets(rho) -> tuple[np.ndarray, np.ndarray]:
    """Kets psi_k and real weights w_k with rho = sum_k w_k psi_k psi_k^dag:
    a KetEnsemble's factor with unit weights, or the eigenvectors of a density
    matrix with its signed eigenvalues, unclipped, so W stays linear in rho."""
    if isinstance(rho, KetEnsemble):
        return rho.kets, np.ones(rho.kets.shape[1])
    weights, vecs = np.linalg.eigh(_as_density(rho))
    return vecs, weights


def _support(dim: int) -> float:
    """A radius past which the position wavefunctions of Fock states below
    `dim` fall below 1e-20, and their Wigner functions further still: the
    outermost turning point sqrt(2 dim + 1) plus a Gaussian margin."""
    return math.sqrt(2.0 * dim + 1.0) + 8.0


def _wavefunctions(q: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """(len(q), K) position wavefunctions <q|psi_k>, from the normalized
    Hermite functions phi_n(q) = <q|n>: phi_0 = pi^(-1/4) exp(-q^2/2) and
    phi_{n+1} = sqrt(2/(n+1)) q phi_n - sqrt(n/(n+1)) phi_{n-1}."""
    phi = np.empty((kets.shape[0], len(q)))
    phi[0] = math.pi ** -0.25 * np.exp(-0.5 * q * q)
    prev = np.zeros(len(q))
    for n in range(kets.shape[0] - 1):
        phi[n + 1] = math.sqrt(2.0 / (n + 1)) * q * phi[n] - math.sqrt(n / (n + 1)) * prev
        prev = phi[n]
    if np.iscomplexobj(kets):
        return phi.T @ kets.real + 1j * (phi.T @ kets.imag)
    return phi.T @ kets


def _quadrature(kets: np.ndarray, weights: np.ndarray, x0: float, h: float,
                stride: int, nx: int, ps: np.ndarray) -> np.ndarray:
    """W(x, p), shape (nx, len(ps)), at x = x0 + i stride h for i < nx.

    With F(x, y) = sum_k w_k psi_k(x - y) psi_k*(x + y), W = (1/pi) times
    the integral of F e^{2ipy} dy.  The wavefunctions are evaluated once on
    the lattice x0 + m h that holds every x +- y_j, y_j = j h.  On this
    smooth, decaying integrand the trapezoid rule is exact but for aliased
    images of W at p +- pi/h, which the caller's h puts off the support, and
    for |y| past the support, where psi has vanished.  F(x, -y) = F(x, y)*
    folds the sum onto y >= 0 as a real cos/sin transform.  The x-columns
    are gathered in chunks of at most WIGNER_GATHER_BYTES."""
    support = _support(kets.shape[0])
    ny = math.ceil(support / h) + 1
    q = x0 + h * np.arange(1 - ny, (nx - 1) * stride + ny)
    psi = _wavefunctions(q, kets)
    psi[np.abs(q) > support] = 0.0      # so W is exactly 0 for |x| past the support
    weighted, conj = psi * weights, psi.conj()
    steps = np.arange(ny)
    phase = 2.0 * h * np.outer(steps, ps)
    trapezoid = np.full((ny, 1), 2.0 * h / math.pi)
    trapezoid[0] = h / math.pi
    cos, sin = trapezoid * np.cos(phase), trapezoid * np.sin(phase)
    centers = ny - 1 + stride * np.arange(nx)
    chunk = max(1, WIGNER_GATHER_BYTES // (psi.itemsize * ny * psi.shape[1]))
    out = np.empty((nx, len(ps)))
    for i in range(0, nx, chunk):
        at = centers[i:i + chunk, None]
        f = np.einsum("cjk,cjk->cj", weighted[at - steps], conj[at + steps])
        out[i:i + chunk] = f.real @ cos - f.imag @ sin if np.iscomplexobj(f) else f @ cos
    return out


def wigner_values(rho, xs: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """W(x, p) evaluated at paired coordinate arrays of any common shape: each
    unique x gets its own lattice, with h set by the largest |p|."""
    kets, weights = _kets(rho)
    xs, ps = np.broadcast_arrays(np.asarray(xs, float), np.asarray(ps, float))
    h = math.pi / (float(np.max(np.abs(ps))) + _support(kets.shape[0]))
    flat_x, flat_p, out = xs.ravel(), ps.ravel(), np.empty(xs.size)
    for x in np.unique(flat_x):
        at = flat_x == x
        out[at] = _quadrature(kets, weights, x, h, 1, 1, flat_p[at])[0]
    return out.reshape(xs.shape)


def wigner(rho, grid: WignerGridSpec | None = None) -> WignerGrid:
    """Wigner transform on a rectangular grid, with the normalization integral
    recorded and a coverage warning when the extent misses 4 sqrt(mean_N+1).
    The lattice step is h = dx / s, with s the least integer that keeps the
    aliased images at p +- pi/h off the support."""
    if grid is None:
        grid = WignerGridSpec()
    kets, weights = _kets(rho)
    ax = grid.axis()
    dx = ax[1] - ax[0]
    s = math.ceil(dx * (grid.extent + _support(kets.shape[0])) / math.pi)
    values = np.ascontiguousarray(_quadrature(kets, weights, ax[0], dx / s, s,
                                              grid.points, ax).T)
    norm = float(values.sum() * dx * dx)
    mean_n, _ = excitation_stats(rho)
    coverage = grid.extent < 4.0 * math.sqrt(mean_n + 1.0)
    return WignerGrid(ax, ax.copy(), values, norm, bool(coverage))


def negativity_volume(grid: WignerGrid) -> float:
    """Volume of the negative part, integral of max(-W, 0), by Riemann sum."""
    neg = np.clip(-grid.values, 0.0, None)
    return float(neg.sum() * grid.dx * grid.dp)


def radial_asymmetry(rho, radii) -> float:
    """Largest spread of W over 64 angles around each sampled circle; ~0 for
    Fock-diagonal states, whose Wigner functions are rotationally symmetric."""
    angles = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    worst = 0.0
    for r in radii:
        xs = r * np.cos(angles)
        ps = r * np.sin(angles)
        vals = wigner_values(rho, xs, ps)
        worst = max(worst, float(vals.max() - vals.min()))
    return worst


# ---------------------------------------------------------------------------
# bundled per-time-point diagnostics

@dataclass(frozen=True)
class DiagnosticsRecord:
    coherence: float
    entropy: float
    mean_n: float
    std_n: float
    mean_x: float
    mean_p: float
    cov_xx: float
    cov_pp: float
    cov_xp: float
    leakage: float

    CSV_HEADER = "coherence,entropy,mean_N,std_N,mean_X,mean_P,V11,V22,V12,leakage"

    def csv_row(self) -> str:
        return ",".join(f"{v:.12g}" for v in (
            self.coherence, self.entropy, self.mean_n, self.std_n,
            self.mean_x, self.mean_p, self.cov_xx, self.cov_pp, self.cov_xp,
            self.leakage))


def diagnose(rho_osc) -> DiagnosticsRecord:
    """Full diagnostics bundle for an oscillator state: a density matrix or,
    without ever forming rho, a KetEnsemble.  A coherence below COHERENCE_FLOOR
    raises StateError, and a negative one above it reads 0.  The leakage is the
    population of the top LEAKAGE_LEVELS Fock levels (all below that cutoff)."""
    entropy = _entropy_of(_spectrum(rho_osc))
    pops, mean_b, mean_b2 = _ladder_moments(rho_osc)
    coh = _entropy_of(pops) - entropy
    if coh < COHERENCE_FLOOR:
        raise StateError(f"coherence {coh!r} below the numerical floor")
    mean_n, std_n = _number_stats(pops)
    means, cov = _quadratures(pops, mean_b, mean_b2)
    return DiagnosticsRecord(
        coherence=max(coh, 0.0), entropy=entropy, mean_n=mean_n, std_n=std_n,
        mean_x=float(means[0]), mean_p=float(means[1]),
        cov_xx=float(cov[0, 0]), cov_pp=float(cov[1, 1]), cov_xp=float(cov[0, 1]),
        leakage=float(pops[-LEAKAGE_LEVELS:].sum()))


# ---------------------------------------------------------------------------
# Wigner grid serialization (byte-stable for identical inputs)

def save_wigner_text(grid: WignerGrid, path) -> None:
    """Plain-text matrix with axis header lines."""
    x_row, p_row = (" ".join(["%.12g"] * len(axis)) + "\n" for axis in (grid.x, grid.p))
    with open(path, "w") as fh:
        fh.write("# wigner grid: rows are fixed p, columns fixed x\n"
                 f"# x: {x_row % tuple(grid.x.tolist())}# p: {p_row % tuple(grid.p.tolist())}"
                 f"# normalization_integral: {grid.normalization_integral:.12g}\n"
                 + "".join([x_row % tuple(w) for w in grid.values.tolist()]))


def save_wigner_csv(grid: WignerGrid, path) -> None:
    """CSV triplets (x, p, W)."""
    # x is formatted into the row template; each row then fills in p and W
    row = "".join(["%.12g,%%s,%%.12g\n" % x for x in grid.x.tolist()])
    with open(path, "w") as fh:
        fh.write("x,p,W\n" + "".join([row.replace("%s", "%.12g" % p) % tuple(w)
                                       for p, w in zip(grid.p.tolist(), grid.values.tolist())]))


def load_wigner_text(path) -> WignerGrid:
    with open(path) as fh:
        fh.readline()
        x = np.array([float(v) for v in fh.readline().split(":", 1)[1].split()])
        p = np.array([float(v) for v in fh.readline().split(":", 1)[1].split()])
        norm = float(fh.readline().split(":", 1)[1])
        values = np.loadtxt(fh)
    return WignerGrid(x, p, values.reshape(len(p), len(x)), norm)
