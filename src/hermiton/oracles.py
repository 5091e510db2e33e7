"""Independent ground-truth generators.

The exact flow of a linear tier (:func:`exact_linear`, exp(tA) y0) and
brute-force oracles (discretized-action gradients, vectorized inversion of
the kinetic operator) used by the test suite and the ``oracle`` and
``check`` CLI commands.

The ``oracle`` command takes A from the operator the run steps: the frozen
tiers' prepared psi rate (its companion on ``second_order``), and
gamma_dot0 gamma0^{-1} acting on gamma0 on ``gamma_geodesic``.  It holds
the stepper and the recorder to the exact flow of that operator; the
equation itself is held by ``check``'s action gradient and by Tier-1 tests,
whose A is written out by hand.  The action gradient and the numeric
kinetic inverse avoid the analytic shortcut being checked: the action
gradient never calls the residual formulas, and the numeric kinetic inverse
never uses the closed-form rank-2 solve.

The action gradient evaluates the Lagrangian alone.  All its probes of one
call are stacked: one set of FullState checks, one stacked inverse of gamma
and one stacked Lagrangian call, whose members have the bits of the
one-state calls.  The finite differences are then taken in Python floats in
the order of a probe-by-probe evaluation, so the estimate keeps its bits too.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import SingularForm, SingularOperator
from .hermitian_algebra import _checked_inverse, hermitian_basis, hermitian_part, matrix_exp
from .models import (
    ModelParams,
    _Blocks,
    _lagrangian_terms,
    _real_value,
    _validated_blocks,
    apply_omega,
)

__all__ = [
    "exact_linear",
    "DiscretizedPath",
    "action_gradient_fd",
    "omega_inverse_numeric",
]


def exact_linear(a, y0, t: float) -> np.ndarray:
    """exp(t A) y0: the exact flow of y' = A y, for a vector or a matrix y0."""
    return matrix_exp(a, t) @ y0


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


def _probe_states(path: DiscretizedPath, index: str, node: int, h: float) -> tuple:
    """The blocks (psi, psi_dot, gamma, gamma_dot) at node - 1, node and
    node + 1 of every probe of :func:`action_gradient_fd`, stacked (P, 3, ...),
    with central-difference velocities: the probe's perturbation is added to
    the data at ``node`` of the five-node window node - 2 ... node + 2.

    For ``index == "psi"`` probe 4a + j moves psi_a by the j-th of h, -h,
    ih, -ih.  For ``index == "gamma"`` the units are E_aa for each a, then
    the symmetric and the skew unit of each pair a < b; probe 2u + j moves
    gamma by h or -h times unit u.
    """
    if index not in ("psi", "gamma"):
        raise ValueError(f"index must be 'psi' or 'gamma', got {index!r}")
    n = path.n
    count = 4 * n if index == "psi" else 2 * n * n
    psis = np.repeat(path.psis[None, node - 2:node + 3], count, axis=0)
    gammas = np.repeat(path.gammas[None, node - 2:node + 3], count, axis=0)
    if index == "psi":
        deltas = np.tile([h, -h, 1j * h, -1j * h], n)
        psis[np.arange(count), 2, np.repeat(np.arange(n), 4)] += deltas
    else:
        units = np.zeros((n * n, n, n), dtype=complex)
        units[np.arange(n), np.arange(n), np.arange(n)] = 1.0
        a, b = np.triu_indices(n, 1)
        sym, skew = n + 2 * np.arange(a.size), n + 2 * np.arange(a.size) + 1
        units[sym, a, b] = units[sym, b, a] = 1.0
        units[skew, a, b], units[skew, b, a] = 1j, -1j
        gammas[:, 2] += (np.array([h, -h])[None, :, None, None] * units[:, None]).reshape(-1, n, n)
    two_dt = 2.0 * path.dt
    return (psis[:, 1:4], (psis[:, 2:] - psis[:, :3]) / two_dt,
            gammas[:, 1:4], (gammas[:, 2:] - gammas[:, :3]) / two_dt)


def action_gradient_fd(path: DiscretizedPath, params: ModelParams, chi,
                       index: str, node: int, h: float = 1e-4):
    """Finite-difference Euler-Lagrange residual from the discretized action.

    Returns the estimate in the same convention as the analytic residuals
    (d/dt dL/dq_dot - dL/dq): a covariant complex vector for
    ``index == "psi"``, a contravariant Hermitian matrix for
    ``index == "gamma"``.  Converges at O(h^2) + O(dt^2) at interior nodes.

    The discretized action is the trapezoid sum of L at every node, with
    central-difference velocities; the data at ``node`` enters it at
    node - 1, node and node + 1, each weighted by dt.  Every probe (a
    component of psi or a Hermitian unit of gamma moved by +-h, and psi's
    also by +-ih) makes three states, and all of them are checked as
    FullStates and evaluated in one stacked Lagrangian call, through one
    stacked inverse of gamma.  The probes' actions and their central
    differences are then formed in Python floats, so the estimate has the
    bits of evaluating each probe on its own.
    """
    m = path.times.size
    if not 2 <= node <= m - 3:
        raise ValueError("node must keep the stencil away from the endpoints")
    n, dt = path.n, path.dt
    psi, psi_dot, gamma, gamma_dot, inv = _validated_blocks(
        *_probe_states(path, index, node, h))
    times = np.broadcast_to(path.times[node - 1:node + 2], psi.shape[:2])
    terms, magnitude = _lagrangian_terms(_Blocks(psi, psi_dot, gamma, gamma_dot, times),
                                         params, chi, ginv=hermitian_part(inv))
    values = _real_value(reduce(operator.add, [term for _, term in terms]), magnitude,
                         1e-10, "Lagrangian")
    # the part of the action that depends on the data at ``node``, per probe,
    # and the central difference of each +-pair of probes
    action = [sum(dt * value for value in row) for row in values.tolist()]
    diffs = [(plus - minus) / (2.0 * h) for plus, minus in zip(action[::2], action[1::2])]

    if index == "psi":
        # Wirtinger derivative with respect to conj(psi), then flip to the
        # d/dt dL/dq_dot - dL/dq convention and undo the dt weight.
        return np.array([-(0.5 * (d_re + 1j * d_im)) / dt
                         for d_re, d_im in zip(diffs[::2], diffs[1::2])])

    out = np.zeros((n, n), dtype=complex)
    for a in range(n):
        out[a, a] = -diffs[a] / dt
    for (a, b), d_s, d_t in zip(zip(*np.triu_indices(n, 1)), diffs[n::2], diffs[n + 1::2]):
        grad_ab = 0.5 * (d_s - 1j * d_t)   # dI / d gamma_{abar b}
        out[b, a] = -grad_ab / dt
        out[a, b] = np.conj(-grad_ab / dt)
    return out


def omega_inverse_numeric(psi, gamma, params: ModelParams) -> np.ndarray:
    """Rank-4 inverse of the kinetic operator by direct inversion of its
    real vectorization on Hermitian matrices (independent of the closed form
    in ``models``).  The (n^2, n^2) matrix takes the condition test of
    ``invert_form``; a refused one raises SingularOperator."""
    psi = np.asarray(psi, dtype=complex)
    n = psi.size
    basis = hermitian_basis(n)
    dim = n * n
    m = np.zeros((dim, dim), dtype=float)
    for l, b_l in enumerate(basis):
        image = apply_omega(psi, gamma, params, b_l)
        for k, b_k in enumerate(basis):
            m[k, l] = float(np.trace(image @ b_k).real)
    try:
        m_inv = _checked_inverse(m)
    except SingularForm as exc:
        raise SingularOperator(f"kinetic operator is numerically singular: {exc}") from None
    b_stack = np.stack(basis)
    return np.einsum("kl,kab,lcd->abcd", m_inv, b_stack, b_stack)
