"""Independent ground-truth generators.

Exact solutions (matrix-exponential families for the scalar-product
geodesics and for the frozen-product Schrodinger flow) and brute-force
oracles (discretized-action gradients, vectorized inversion of the kinetic
operator) used by the test suite and the ``oracle`` CLI command.  These
deliberately avoid the analytic shortcut being checked: the action gradient
never calls the residual formulas, and the numeric kinetic inverse never
uses the closed-form rank-2 solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotGHermitian, SingularOperator
from .hermitian_algebra import HERM_TOL_FACTOR, hermitian_basis, hermiticity_drift, matrix_exp
from .models import FullState, ModelParams, apply_omega, lagrangian_value

__all__ = [
    "GammaExponentialSolution",
    "exact_gamma",
    "exact_schrodinger",
    "DiscretizedPath",
    "action_gradient_fd",
    "omega_inverse_numeric",
]


@dataclass(frozen=True)
class GammaExponentialSolution:
    """Exponential solution family of the pure scalar-product geodesics.

    side == "right": gamma(t) = G exp(E t), admissible when G @ E is
    Hermitian; side == "left": gamma(t) = exp(E t) G, admissible when
    E @ G is Hermitian.  Admissibility keeps gamma(t) Hermitian for all t.
    """

    G: np.ndarray
    E: np.ndarray
    side: str = "right"

    def __post_init__(self):
        g = np.asarray(self.G, dtype=complex)
        e = np.asarray(self.E, dtype=complex)
        if self.side not in ("right", "left"):
            raise ValueError(f"side must be 'right' or 'left', got {self.side!r}")
        contracted = g @ e if self.side == "right" else e @ g
        drift = hermiticity_drift(contracted)
        if drift > HERM_TOL_FACTOR:
            raise NotGHermitian(f"generator is not admissible: contracted-form drift {drift:.3e}")
        object.__setattr__(self, "G", g)
        object.__setattr__(self, "E", e)


def exact_gamma(sol: GammaExponentialSolution, t: float) -> np.ndarray:
    """gamma(t) of the exponential geodesic family."""
    if sol.side == "right":
        return sol.G @ matrix_exp(sol.E, t)
    return matrix_exp(sol.E, t) @ sol.G


def exact_schrodinger(psi0, h, hbar: float, t: float) -> np.ndarray:
    """exp(-i H t / hbar) psi0 for a (constant) mixed Hamilton operator H."""
    psi0 = np.asarray(psi0, dtype=complex)
    h = np.asarray(h, dtype=complex)
    return matrix_exp(-1j * h / hbar, t) @ psi0


@dataclass(frozen=True)
class DiscretizedPath:
    """Uniformly sampled (psi, gamma) path for the action-gradient oracle."""

    times: np.ndarray
    psis: np.ndarray      # shape (m, n)
    gammas: np.ndarray    # shape (m, n, n)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        psis = np.asarray(self.psis, dtype=complex)
        gammas = np.asarray(self.gammas, dtype=complex)
        m = times.size
        if m < 5:
            raise ValueError("need at least 5 nodes")
        dts = np.diff(times)
        if not np.allclose(dts, dts[0], rtol=1e-12, atol=0):
            raise ValueError("path must be uniformly sampled")
        if psis.shape[0] != m or gammas.shape[0] != m:
            raise ValueError("node count mismatch")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "psis", psis)
        object.__setattr__(self, "gammas", gammas)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def n(self) -> int:
        return self.psis.shape[1]


def _node_lagrangian(path: DiscretizedPath, k: int, params: ModelParams, chi,
                     psis, gammas) -> float:
    """Trapezoid-weighted Lagrangian at node k with central-difference
    velocities (one-sided at the ends, which variation never touches)."""
    m = path.times.size
    dt = path.dt
    if k == 0:
        psid = (psis[1] - psis[0]) / dt
        gd = (gammas[1] - gammas[0]) / dt
    elif k == m - 1:
        psid = (psis[m - 1] - psis[m - 2]) / dt
        gd = (gammas[m - 1] - gammas[m - 2]) / dt
    else:
        psid = (psis[k + 1] - psis[k - 1]) / (2.0 * dt)
        gd = (gammas[k + 1] - gammas[k - 1]) / (2.0 * dt)
    weight = dt / 2.0 if k in (0, m - 1) else dt
    state = FullState(psi=psis[k], psi_dot=psid, gamma=gammas[k],
                      gamma_dot=gd, t=float(path.times[k]))
    return weight * lagrangian_value(state, params, chi)


def _local_action(path: DiscretizedPath, node: int, params: ModelParams, chi,
                  psis, gammas) -> float:
    """The part of the discretized action that depends on the data at ``node``."""
    return sum(_node_lagrangian(path, k, params, chi, psis, gammas)
               for k in (node - 1, node, node + 1))


def action_gradient_fd(path: DiscretizedPath, params: ModelParams, chi,
                       index: str, node: int, h: float = 1e-4):
    """Finite-difference Euler-Lagrange residual from the discretized action.

    Returns the estimate in the same convention as the analytic residuals
    (d/dt dL/dq_dot - dL/dq): a covariant complex vector for
    ``index == "psi"``, a contravariant Hermitian matrix for
    ``index == "gamma"``.  Converges at O(h^2) + O(dt^2) at interior nodes.
    """
    m = path.times.size
    if not 2 <= node <= m - 3:
        raise ValueError("node must keep the stencil away from the endpoints")
    n = path.n
    dt = path.dt

    def probe_psi(a: int, delta: complex) -> float:
        psis = path.psis.copy()
        psis[node, a] += delta
        return _local_action(path, node, params, chi, psis, path.gammas)

    def probe_gamma(direction: np.ndarray) -> float:
        gammas = path.gammas.copy()
        gammas[node] = gammas[node] + direction
        return _local_action(path, node, params, chi, path.psis, gammas)

    if index == "psi":
        out = np.zeros(n, dtype=complex)
        for a in range(n):
            d_re = (probe_psi(a, +h) - probe_psi(a, -h)) / (2.0 * h)
            d_im = (probe_psi(a, +1j * h) - probe_psi(a, -1j * h)) / (2.0 * h)
            # Wirtinger derivative with respect to conj(psi), then flip to
            # the d/dt dL/dq_dot - dL/dq convention and undo the dt weight.
            out[a] = -(0.5 * (d_re + 1j * d_im)) / dt
        return out

    if index == "gamma":
        out = np.zeros((n, n), dtype=complex)
        for a in range(n):
            e_aa = np.zeros((n, n), dtype=complex)
            e_aa[a, a] = 1.0
            d = (probe_gamma(h * e_aa) - probe_gamma(-h * e_aa)) / (2.0 * h)
            out[a, a] = -d / dt
        for a in range(n):
            for b in range(a + 1, n):
                sym = np.zeros((n, n), dtype=complex)
                sym[a, b] = sym[b, a] = 1.0
                skew = np.zeros((n, n), dtype=complex)
                skew[a, b] = 1j
                skew[b, a] = -1j
                d_s = (probe_gamma(h * sym) - probe_gamma(-h * sym)) / (2.0 * h)
                d_t = (probe_gamma(h * skew) - probe_gamma(-h * skew)) / (2.0 * h)
                grad_ab = 0.5 * (d_s - 1j * d_t)   # dI / d gamma_{abar b}
                out[b, a] = -grad_ab / dt
                out[a, b] = np.conj(-grad_ab / dt)
        return out

    raise ValueError(f"index must be 'psi' or 'gamma', got {index!r}")


def omega_inverse_numeric(psi, gamma, params: ModelParams) -> np.ndarray:
    """Rank-4 inverse of the kinetic operator by direct linear solve on the
    real vectorization of Hermitian matrices (independent of the closed form
    in ``models``)."""
    psi = np.asarray(psi, dtype=complex)
    n = psi.size
    basis = hermitian_basis(n)
    dim = n * n
    m = np.zeros((dim, dim), dtype=float)
    for l, b_l in enumerate(basis):
        image = apply_omega(psi, gamma, params, b_l)
        for k, b_k in enumerate(basis):
            m[k, l] = float(np.trace(image @ b_k).real)
    svals = np.linalg.svd(m, compute_uv=False)
    if svals[-1] <= 1e-12 * max(svals[0], 1e-300):
        raise SingularOperator(
            f"kinetic operator is numerically singular (sigma_min/sigma_max = "
            f"{svals[-1] / max(svals[0], 1e-300):.3e})")
    m_inv = np.linalg.inv(m)
    b_stack = np.stack(basis)
    return np.einsum("kl,kab,lcd->abcd", m_inv, b_stack, b_stack)
