"""Closed forms of the paper used as test references, built from plain numpy.

Storage order follows `cohabs.hilbert`: the absorber factor first, qubit
basis (g, e), Fock index 0 the ground state.
"""

import math

import numpy as np


def lowering(dim: int, k: int = 1) -> np.ndarray:
    """b^k on `dim` levels as a dense matrix, multiplied left to right; on two
    levels b is sigma- = |g><e|."""
    b = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    out = b
    for _ in range(k - 1):
        out = out @ b
    return out


def excitation_number(k: int, absorber_dim: int, cutoff: int) -> np.ndarray:
    """N = k P_e + b^dag b (qubit) or k a^dag a + b^dag b (oscillator
    absorber), conserved by the order-k exchange, as a diagonal matrix."""
    return np.diag(np.add.outer(k * np.arange(float(absorber_dim)),
                                np.arange(float(cutoff))).ravel())


def frustration_commutator(k: int, g: float, omega: float, Omega: float,
                           cutoff: int) -> np.ndarray:
    """[H0, V] for H0 = omega b^dag b + (Omega/2) sigma_z and V = g (sigma+ b^k
    + h.c.) on qubit (x) oscillator: g (k omega - Omega)(sigma- b^dag^k -
    sigma+ b^k), exact away from the top k Fock levels."""
    x = np.kron(lowering(2).T, lowering(cutoff, k))      # sigma+ b^k
    return g * (k * omega - Omega) * (x.T - x)


def switch_amplitudes(n: int, g1: float, g2: float, t: float):
    """(alpha, beta, gamma, delta) after a linear-absorption segment followed
    by a quadratic one, both of duration t, starting from |g, n>:

        |g>(alpha |n> + beta |n+1>) + |e>(gamma |n-1> + delta |n-2>)
    """
    if n < 2:
        raise ValueError(f"switching amplitudes need n >= 2, got {n}")
    r1 = g1 * math.sqrt(n) * t
    r_down = g2 * math.sqrt(n * (n - 1)) * t
    r_up = g2 * math.sqrt(n * (n + 1)) * t
    return (math.cos(r_down) * math.cos(r1),
            -math.sin(r_up) * math.sin(r1),
            -1j * math.cos(r_up) * math.sin(r1),
            -1j * math.sin(r_down) * math.cos(r1))


def switch_ket(n: int, g1: float, g2: float, t: float, cutoff: int) -> np.ndarray:
    """The state of `switch_amplitudes` as a (2 cutoff, 1) ket column."""
    alpha, beta, gamma, delta = switch_amplitudes(n, g1, g2, t)
    ket = np.zeros((2 * cutoff, 1), complex)
    ket[n] = alpha
    ket[n + 1] = beta
    ket[cutoff + n - 1] = gamma
    ket[cutoff + n - 2] = delta
    return ket
