import numpy as np
import pytest


def rand_vec(rng, n, scale=1.0):
    return scale * (rng.normal(size=n) + 1j * rng.normal(size=n))


def rand_herm(rng, n, scale=1.0):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (m + m.conj().T) / 2.0


def rand_pd(rng, n, spread=1.0):
    """Random well-conditioned positive definite Hermitian matrix."""
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return spread * (m @ m.conj().T) / n + np.eye(n)


def scale_couplings(params, s):
    """The model s L: alpha1 ... alpha8 and kappa times s; alpha9, which sits
    inside P = Gamma^-1 + alpha9 psi psi^, is kept."""
    return params.with_(**{k: s * getattr(params, k) for k in (
        "alpha1", "alpha2", "alpha3", "alpha4", "alpha5", "alpha6", "alpha7", "alpha8",
        "kappa")})


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
