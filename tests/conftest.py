from dataclasses import replace

import numpy as np
import pytest

from hermiton import oracles


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
    return replace(params, **{k: s * getattr(params, k) for k in (
        "alpha1", "alpha2", "alpha3", "alpha4", "alpha5", "alpha6", "alpha7", "alpha8",
        "kappa")})


def killing_alpha8(n) -> dict:
    """Couplings with the killing preset's alpha6 + n alpha7 = 0, where the
    kinetic operator is degenerate along dilatations, and alpha8 != 0, which
    makes it invertible again for psi != 0."""
    return dict(alpha6=float(n), alpha7=-1.0, alpha8=0.3, alpha9=0.2)


def count_numeric_inverse(monkeypatch) -> list:
    """A list that gains one entry per call of the brute-force kinetic
    inverse ``oracles.omega_inverse_numeric`` while the test runs."""
    calls = []
    real = oracles.omega_inverse_numeric

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(oracles, "omega_inverse_numeric", counted)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
