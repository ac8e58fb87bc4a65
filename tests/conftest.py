import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("ci", max_examples=25, deadline=None)
settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_density(rng, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_ket(rng, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_kets(rng, dim: int, k: int) -> np.ndarray:
    """(dim, k) columns of a random ensemble, normalized so that kets kets^dag
    has unit trace."""
    a = rng.normal(size=(dim, k)) + 1j * rng.normal(size=(dim, k))
    return a / np.linalg.norm(a)
