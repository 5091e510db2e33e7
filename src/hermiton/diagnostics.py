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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularForm, SingularTransform, WrongSymmetryClass
from .hermitian_algebra import _checked_inverse, _dagger, hermiticity_drift, invert_form
from .integrate import STEPPED_BLOCKS
from .models import FullState, ModelParams, _gamma_momentum, _psi_momentum, energy, theta1

__all__ = [
    "ChargeReport",
    "noether_tensors",
    "noether_charge",
    "gl_transform",
    "monitor",
    "drift_summary",
    "rel_drift",
    "conserved_quantities",
]

#: symmetry classification tolerance for charge generators
GENERATOR_TOL = 1e-10


@dataclass(frozen=True)
class ChargeReport:
    """Per-sample conserved-quantity snapshot.  ``vw_defect`` is
    max(|V - V^dag|, |W - W^dag|) / max(|V|, |W|) in Frobenius norms.
    V = X + X^dag and W = -i (X - X^dag) are Hermitian in every bit, so it
    is 0 by construction and :func:`monitor` writes 0.0 without computing
    it."""

    t: float
    V: np.ndarray
    W: np.ndarray
    charges: list
    energy: float
    theta1: float
    hermiticity_drift: float
    vw_defect: float


def _noether_stack(states, params: ModelParams,
                   g0_inv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """V and W of every state, stacked (S, n, n), from one set of stacked
    numpy calls; ``g0_inv`` is ``invert_form(gamma0)``.  X = J gamma0^-1
    with the momentum map J = psi pi - pi_gamma gamma, and V = X + X^dag,
    W = -i (X - X^dag), each exactly Hermitian."""
    psi = np.stack([s.psi for s in states])
    g = np.stack([s.gamma for s in states])
    pi = _psi_momentum(psi, np.stack([s.psi_dot for s in states]), g,
                       params.alpha1, params.alpha2)
    pi_gamma = _gamma_momentum(psi, g, np.stack([s.gamma_dot for s in states]), params)
    x = (psi[:, :, None] * pi[:, None, :] - pi_gamma @ g) @ g0_inv
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
    v, w = _noether_stack([state], params, invert_form(gamma0))
    return v[0], w[0]


def _is_hermitian(a: np.ndarray, label: str = "generator") -> bool | None:
    """Symmetry class of a charge generator: True when Hermitian, False when
    antihermitian, None when zero; WrongSymmetryClass when it is neither."""
    if not a.any():
        return None
    if hermiticity_drift(a) <= GENERATOR_TOL:
        return True
    if hermiticity_drift(1j * a) <= GENERATOR_TOL:
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
    v, w = _noether_stack([state], params, invert_form(gamma0))
    return float(_charges(v, w, [(a, hermitian)])[0, 0])


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


def monitor(trajectory, params: ModelParams, chi, gamma0=None,
            generators=None) -> list[ChargeReport]:
    """Charge reports along a trajectory of FullStates.

    gamma0 defaults to the initial scalar product; ``generators`` is a list
    of (label, matrix) pairs.  The samples are stacked on a leading axis
    (S, n, n): gamma0 is inverted once, V and W of every sample come from
    one set of stacked calls, and every charge from one product.
    Each report's V and W have the bits of :func:`noether_tensors` on its
    sample, and its charges agree with :func:`noether_charge` to round-off
    (a product's bits depend on its shape through the BLAS kernel).
    """
    states = trajectory.states
    if not states:
        raise ValueError("trajectory is empty")
    if gamma0 is None:
        gamma0 = states[0].gamma
    items = []
    for label, a in generators or []:
        a = np.asarray(a, dtype=complex)
        hermitian = _is_hermitian(a, f"generator {label}")
        if hermitian is None:
            raise WrongSymmetryClass(f"generator {label} is zero")
        items.append((label, a, hermitian))

    v, w = _noether_stack(states, params, invert_form(gamma0))
    labels = [label for label, _, _ in items]
    per_sample = _charges(v, w, [(a, hermitian) for _, a, hermitian in items]).tolist()
    return [ChargeReport(
        t=state.t, V=v_k, W=w_k, charges=list(zip(labels, values)),
        energy=diag["energy"] if "energy" in diag else energy(state, params, chi),
        theta1=diag["theta1"] if "theta1" in diag else theta1(state.psi, state.gamma),
        hermiticity_drift=diag.get("herm_drift", 0.0), vw_defect=0.0)
        for state, diag, v_k, w_k, values
        in zip(states, trajectory.diagnostics, v, w, per_sample)]


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


def drift_summary(reports: list[ChargeReport]) -> dict:
    """Max :func:`rel_drift` per monitored quantity over a report sequence."""
    summary = {
        "energy": rel_drift([r.energy for r in reports]),
        "theta1": rel_drift([r.theta1 for r in reports]),
        "max_herm_drift": float(max(r.hermiticity_drift for r in reports)),
        "max_vw_defect": float(np.max([r.vw_defect for r in reports])),
        "charges": {},
    }
    if reports and reports[0].charges:
        for idx, (label, _) in enumerate(reports[0].charges):
            summary["charges"][label] = rel_drift(
                [r.charges[idx][1] for r in reports])
    return summary
