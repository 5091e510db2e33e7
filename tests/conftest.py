from dataclasses import replace

import numpy as np
import pytest

from hermiton import oracles
from hermiton.models import FullState, ModelParams


def rand_vec(rng, n, scale=1.0):
    return scale * (rng.normal(size=n) + 1j * rng.normal(size=n))


def rand_herm(rng, n, scale=1.0):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (m + m.conj().T) / 2.0


def rand_pd(rng, n, spread=1.0):
    """Random well-conditioned positive definite Hermitian matrix."""
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return spread * (m @ m.conj().T) / n + np.eye(n)


def full_params(**overrides):
    """Couplings with every alpha and kappa nonzero, updated by ``overrides``."""
    base = dict(alpha1=0.4, alpha2=0.3, alpha3=0.15, alpha4=0.2, alpha5=-1.0,
                alpha6=0.9, alpha7=0.25, alpha8=0.2, alpha9=0.15, kappa=0.1)
    base.update(overrides)
    return ModelParams(**base)


def smooth_path(rng, n, m, dt):
    """A smooth random path at m nodes dt apart, and the functions of t that
    give it and its first two derivatives, by block name."""
    psi0, psi1 = rand_vec(rng, n), rand_vec(rng, n, 0.3)
    freqs = rng.uniform(0.5, 1.5, size=n)
    herm = rand_herm(rng, n, 0.25)
    gam0 = rand_pd(rng, n)
    w = 1.0 + rng.uniform(0.0, 0.5)
    times = dt * np.arange(m)
    fns = {
        "psi": lambda t: psi0 + psi1 * np.sin(freqs * t),
        "psi_dot": lambda t: psi1 * freqs * np.cos(freqs * t),
        "psi_ddot": lambda t: -psi1 * freqs ** 2 * np.sin(freqs * t),
        "gamma": lambda t: gam0 + herm * np.sin(w * t),
        "gamma_dot": lambda t: w * herm * np.cos(w * t),
        "gamma_ddot": lambda t: -w * w * herm * np.sin(w * t),
    }
    path = oracles.DiscretizedPath(times=times,
                                   psis=np.stack([fns["psi"](t) for t in times]),
                                   gammas=np.stack([fns["gamma"](t) for t in times]))
    return path, fns


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


def symplectic_smoke_case():
    """(params, state, chi) of the implicit-midpoint smoke test: a regular
    second-order flow on a frozen gamma = 1 at n = 1, started from the phase
    point psi0 = 0.9 + 0.3i, pi0 = 0.2 - 0.4i through the inverse Legendre
    map psi_dot0 = gamma^-1 conj(pi0) / alpha2 + (i alpha1 / alpha2) psi0."""
    params = ModelParams(alpha1=0.5, alpha2=0.8, alpha5=-2.0)
    gamma, psi0, pi0 = np.eye(1), np.array([0.9 + 0.3j]), np.array([0.2 - 0.4j])
    psi_dot0 = (np.linalg.inv(gamma) @ np.conj(pi0)) / params.alpha2 \
        + (1j * params.alpha1 / params.alpha2) * psi0
    state = FullState(psi=psi0, psi_dot=psi_dot0, gamma=gamma, gamma_dot=np.zeros((1, 1)))
    return params, state, np.array([[1.3]])


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
