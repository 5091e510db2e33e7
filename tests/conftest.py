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


def rate_blocks(codec, rate, acc) -> list:
    """The rates ``(rate, acc)`` of one call of a run's rate closure, block by
    block in stepped order: read back from the rate vector through the
    run's codec, with gamma_dot's rate, when gamma is resymmetrized, the raw
    acceleration ``acc`` of the same call rather than its stepped Hermitian
    part."""
    blocks = list(codec.unpack(rate).values())
    if acc is not None:
        blocks[-1] = acc
    return blocks


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
