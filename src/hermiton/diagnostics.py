"""Conserved-quantity monitors.

The total Lagrangian with alpha5 == 0 and no forcing is invariant under the
full linear group acting as psi -> L psi, gamma -> L^{-dag} gamma L^{-1}.
Its charges are the momentum map J = psi pi - pi_gamma gamma (Marsden &
Ratiu, Introduction to Mechanics and Symmetry, 11.4), paired with a
generator, with pi and pi_gamma the canonical momenta of ``models``' one
momentum kernel.  One-parameter subgroups split, relative to a fixed
reference product gamma0, into gamma0-Hermitian and gamma0-antihermitian
generators; with X = J gamma0^{-1} the conserved charges are Tr(V A~) and
Tr(i W A~) for the Hermitian tensors V = X + X^dag and W = -i (X - X^dag).

The monitor reads a ``Trajectory``'s stacks and returns stacks, V and W
(S, n, n) and the charges (S, G) of G generators; the drift summary reads
the trajectory's recorded energy, theta1 and hermiticity-drift columns.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularForm, SingularTransform, WrongSymmetryClass
from .hermitian_algebra import (
    HERM_TOL_FACTOR,
    _checked_inverse,
    _dagger,
    hermiticity_drift,
    invert_form,
)
from .integrate import STEPPED_BLOCKS
from .models import FullState, ModelParams, _gamma_momentum, _psi_momentum
# the monitor reads the recorded energy and theta1 columns and calls
# neither; perfbench/tracing.py (its TARGETS) rebinds these names here to
# count the calls that would
from .models import energy, theta1  # noqa: F401

__all__ = [
    "noether_tensors",
    "noether_charge",
    "gl_transform",
    "monitor",
    "drift_summary",
    "rel_drift",
    "conserved_quantities",
]


def _noether_stack(psi, psi_dot, gamma, gamma_dot, params: ModelParams,
                   g0_inv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """V and W of the stacked states psi, psi_dot (S, n) and gamma,
    gamma_dot (S, n, n), stacked (S, n, n), from one set of stacked numpy
    calls; ``g0_inv`` is ``invert_form(gamma0)``.  X = J gamma0^-1 with the
    momentum map J = psi pi - pi_gamma gamma, and V = X + X^dag,
    W = -i (X - X^dag), each exactly Hermitian."""
    pi = _psi_momentum(psi, psi_dot, gamma, params.alpha1, params.alpha2)
    pi_gamma = _gamma_momentum(psi, gamma, gamma_dot, params)
    x = (psi[:, :, None] * pi[:, None, :] - pi_gamma @ gamma) @ g0_inv
    x_dag = _dagger(x)
    return x + x_dag, -1j * (x - x_dag)


def noether_tensors(state: FullState, params: ModelParams,
                    gamma0) -> tuple[np.ndarray, np.ndarray]:
    """Conserved Hermitian tensors (V, W) relative to the reference product
    gamma0; V pairs with gamma0-Hermitian generators, W with antihermitian
    ones.

    One state; :func:`monitor` evaluates the same kernel over a trajectory's
    leading sample axis, and each of its rows has the bits of this call.
    """
    v, w = _noether_stack(state.psi[None], state.psi_dot[None], state.gamma[None],
                          state.gamma_dot[None], params, invert_form(gamma0))
    return v[0], w[0]


def _is_hermitian(a: np.ndarray, label: str = "generator") -> bool | None:
    """Symmetry class of a charge generator: True when Hermitian, False when
    antihermitian, None when zero; WrongSymmetryClass when it is neither.
    The test is the one every form takes, ``HERM_TOL_FACTOR``.  The class
    only picks the tensor a generator pairs with: ``_charges`` keeps the
    real part of Tr(V A) or Tr(W iA), in which the other class's part of A
    drops out exactly."""
    if not a.any():
        return None
    if hermiticity_drift(a) <= HERM_TOL_FACTOR:
        return True
    if hermiticity_drift(1j * a) <= HERM_TOL_FACTOR:
        return False
    raise WrongSymmetryClass(f"{label} is neither Hermitian nor antihermitian")


def _charges(v: np.ndarray, w: np.ndarray, generators) -> np.ndarray:
    """The charges (S, G) of the generators, (A, hermitian) pairs, at each
    member of the stacks v, w (S, n, n): Tr(V A) or Tr(W iA), as
    Tr(X A) = vec(X) . vec(A^T), from one product of the (S, 2 n^2) rows
    [vec V, vec W] with the (2 n^2, G) columns of the generators."""
    n2 = v.shape[-1] * v.shape[-1]
    columns = np.zeros((2, n2, len(generators)), dtype=complex)
    for k, (a, hermitian) in enumerate(generators):
        columns[0 if hermitian else 1, :, k] = (a if hermitian else 1j * a).T.ravel()
    rows = np.concatenate((v.reshape(-1, n2), w.reshape(-1, n2)), 1)
    return rows.dot(columns.reshape(2 * n2, -1)).real


def noether_charge(state: FullState, params: ModelParams, gamma0,
                   a_tilde) -> float:
    """Charge of one generator: Tr(V A~) for Hermitian A~, Tr(i W A~) for
    antihermitian A~."""
    a = np.asarray(a_tilde, dtype=complex)
    hermitian = _is_hermitian(a)
    if hermitian is None:
        return 0.0
    v, w = noether_tensors(state, params, gamma0)
    return float(_charges(v[None], w[None], [(a, hermitian)])[0, 0])


def gl_transform(state: FullState, l_matrix) -> FullState:
    """Apply psi -> L psi, gamma -> L^{-dag} gamma L^{-1} to a state.

    theta1 is exactly invariant under this action.  L takes the condition
    test of ``invert_form`` and a refused L raises SingularTransform, with
    the same verdict for s * L at any scale s.
    """
    l = np.asarray(l_matrix, dtype=complex)
    n = state.n
    if l.shape != (n, n):
        raise SingularTransform(f"transform must be {n}x{n}")
    try:
        l_inv = _checked_inverse(l)
    except SingularForm as exc:
        raise SingularTransform(f"transform is not invertible: {exc}") from None
    sandwich = l_inv.conj().T
    return FullState(
        psi=l @ state.psi,
        psi_dot=l @ state.psi_dot,
        gamma=sandwich @ state.gamma @ l_inv,
        gamma_dot=sandwich @ state.gamma_dot @ l_inv,
        t=state.t,
    )


def monitor(trajectory, params: ModelParams, gamma0=None,
            generators=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(V, W, charges) along a Trajectory: the tensors stacked (S, n, n)
    and the charges (S, G) of the G generators, in their order.

    gamma0 defaults to the initial scalar product; ``generators`` is a list
    of (label, matrix) pairs, each classified before any charge is taken.
    gamma0 is inverted once, V and W of every sample come from one set of
    stacked calls on the trajectory's stacks, and every charge from one
    product.  Each row of V and W has the bits of :func:`noether_tensors`
    on its sample, and the charges agree with :func:`noether_charge` to
    round-off (a product's bits depend on its shape through the BLAS
    kernel).
    """
    if not trajectory.times.size:
        raise ValueError("trajectory is empty")
    if gamma0 is None:
        gamma0 = trajectory.gamma[0]
    items = []
    for label, a in generators or []:
        a = np.asarray(a, dtype=complex)
        hermitian = _is_hermitian(a, f"generator {label}")
        if hermitian is None:
            raise WrongSymmetryClass(f"generator {label} is zero")
        items.append((a, hermitian))
    v, w = _noether_stack(trajectory.psi, trajectory.psi_dot, trajectory.gamma,
                          trajectory.gamma_dot, params, invert_form(gamma0))
    return v, w, _charges(v, w, items)


def rel_drift(series) -> float:
    """Drift of a sampled quantity: (max - min) / max(max |x|, 1e-6), the
    floor keeping near-zero quantities from blowing up the ratio."""
    series = np.asarray(series, dtype=float)
    scale = max(float(np.max(np.abs(series))), 1e-6)
    return float((series.max() - series.min()) / scale)


def conserved_quantities(tier: str, params: ModelParams, chi,
                         gamma_tilde=None) -> dict:
    """{quantity: drift tolerance} of what a run of ``tier`` conserves; a
    first-order psi flow on a frozen gamma keeps a gamma-Hermitian generator
    and so theta1 with any real potential, a second-order psi flow conserves
    the U(1) charge, not theta1, and the recorded energy is that of the
    one-metric L (no ``gamma_tilde``)."""
    holds = {"energy": (1e-6, not callable(chi) and gamma_tilde is None),
             "theta1": (1e-9, tier in ("schrodinger", "direct_nonlinear")),
             "charges": (1e-6, params.alpha5 == 0.0 and "gamma" in STEPPED_BLOCKS[tier])}
    return {name: tol for name, (tol, held) in holds.items()
            if held and params.forcing is None}


def drift_summary(trajectory, labels, charges) -> dict:
    """Max :func:`rel_drift` per monitored quantity of a Trajectory, with
    the (S, G) ``charges`` of :func:`monitor` under their G ``labels``.
    ``max_vw_defect``, max(|V - V^dag|, |W - W^dag|) / max(|V|, |W|), is
    0.0: V = X + X^dag and W = -i (X - X^dag) are Hermitian in every bit."""
    return {
        "energy": rel_drift(trajectory.energy),
        "theta1": rel_drift(trajectory.theta1),
        "max_herm_drift": float(trajectory.herm_drift.max()),
        "max_vw_defect": 0.0,
        "charges": {label: rel_drift(column) for label, column in zip(labels, charges.T)},
    }
