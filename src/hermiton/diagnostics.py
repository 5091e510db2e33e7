"""Conserved-quantity monitors.

The total Lagrangian with alpha5 == 0 and no forcing is invariant under the
full linear group acting as psi -> L psi, gamma -> L^{-dag} gamma L^{-1}.
One-parameter subgroups split, relative to a fixed reference product
gamma0, into gamma0-Hermitian and gamma0-antihermitian generators; the
corresponding conserved charges are Tr(V A~) and Tr(i W A~) with the two
Hermitian tensors V and W assembled below from the canonical momenta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularTransform, WrongSymmetryClass
from .hermitian_algebra import hermiticity_drift, invert_form
from .integrate import STEPPED_BLOCKS
from .models import FullState, ModelParams, apply_omega, energy, theta1

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
    """Per-sample conserved-quantity snapshot.  ``vw_defect`` is the larger
    hermiticity drift of V and W, which :func:`monitor` takes from one
    stacked call per tensor."""

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
    numpy calls; ``g0_inv`` is ``invert_form(gamma0)``."""
    psi = np.stack([s.psi for s in states])
    psid = np.stack([s.psi_dot for s in states])
    g = np.stack([s.gamma for s in states])
    omega = apply_omega(psi, g, params, np.stack([s.gamma_dot for s in states]))
    col, row = psi[:, :, None], np.conj(psi)[:, None, :]
    c_minus = 1j * params.alpha1 - params.alpha3 * params.alpha9
    c_plus = 1j * params.alpha1 + params.alpha3 * params.alpha9

    # V and iW = i W accumulate the same products, each formed once, with
    # the association and the term order of the per-state formulas
    #   V  = a2 (M G G0^-1 + G0^-1 G M~) + c- P G G0^-1 - 2 a3 G0^-1
    #        - c+ G0^-1 G P - 2 (G0^-1 G O + O G G0^-1)
    #   iW = a2 (M G G0^-1 - G0^-1 G M~) + c- P G G0^-1 + c+ G0^-1 G P
    #        + 2 (G0^-1 G O - O G G0^-1)
    # with M = psi psid^, M~ = psid psi^, P = psi psi^ and O = Omega(gamma_dot)
    g0_inv_g = g0_inv @ g
    right = (col * np.conj(psid)[:, None, :]) @ g @ g0_inv
    left = g0_inv_g @ (psid[:, :, None] * row)
    v = params.alpha2 * (right + left)
    iw = params.alpha2 * (right - left)
    proj = col * row
    term = c_minus * (proj @ g @ g0_inv)
    v += term
    iw += term
    v -= 2.0 * params.alpha3 * g0_inv
    term = c_plus * (g0_inv_g @ proj)
    v -= term
    iw += term
    right, left = omega @ g @ g0_inv, g0_inv_g @ omega
    v -= 2.0 * (left + right)
    iw += 2.0 * (left - right)
    return v, -1j * iw


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


def _charges(v: np.ndarray, w: np.ndarray, a: np.ndarray, hermitian: bool) -> np.ndarray:
    """One generator's charge for each member of the stacks v, w (S, n, n)."""
    product = v @ a if hermitian else 1j * (w @ a)
    return np.trace(product, axis1=-2, axis2=-1).real


def noether_charge(state: FullState, params: ModelParams, gamma0,
                   a_tilde) -> float:
    """Charge of one generator: Tr(V A~) for Hermitian A~, Tr(i W A~) for
    antihermitian A~."""
    a = np.asarray(a_tilde, dtype=complex)
    hermitian = _is_hermitian(a)
    if hermitian is None:
        return 0.0
    v, w = _noether_stack([state], params, invert_form(gamma0))
    return float(_charges(v, w, a, hermitian)[0])


def gl_transform(state: FullState, l_matrix) -> FullState:
    """Apply psi -> L psi, gamma -> L^{-dag} gamma L^{-1} to a state.

    theta1 is exactly invariant under this action.
    """
    l = np.asarray(l_matrix, dtype=complex)
    n = state.n
    if l.shape != (n, n):
        raise SingularTransform(f"transform must be {n}x{n}")
    try:
        l_inv = np.linalg.inv(l)
    except np.linalg.LinAlgError as exc:
        raise SingularTransform("transform is not invertible") from exc
    if not np.all(np.isfinite(l_inv)):
        raise SingularTransform("transform inverse is not finite")
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
    of (label, matrix) pairs or bare matrices.  The samples are stacked on a
    leading axis (S, n, n): gamma0 is inverted once, V and W of every sample
    come from one set of stacked calls, and each generator's charge series
    from one stacked trace.  Each report's V, W and charges have the bits of
    :func:`noether_tensors` and :func:`noether_charge` on its sample.
    """
    states = trajectory.states
    if not states:
        raise ValueError("trajectory is empty")
    if gamma0 is None:
        gamma0 = states[0].gamma
    items = []
    for idx, gen in enumerate(generators or []):
        label, a = gen if isinstance(gen, tuple) else (f"gen{idx}", gen)
        a = np.asarray(a, dtype=complex)
        hermitian = _is_hermitian(a, f"generator {label}")
        if hermitian is None:
            raise WrongSymmetryClass(f"generator {label} is zero")
        items.append((label, a, hermitian))

    v, w = _noether_stack(states, params, invert_form(gamma0))
    vw_defect = np.maximum(hermiticity_drift(v), hermiticity_drift(w)).tolist()
    labels = [label for label, _, _ in items]
    # one generator at a time: an (S, G, n, n) product would cost memory
    charges = np.array([_charges(v, w, a, hermitian) for _, a, hermitian in items])
    per_sample = charges.reshape(len(items), len(states)).T.tolist()
    return [ChargeReport(
        t=state.t, V=v_k, W=w_k, charges=list(zip(labels, values)),
        energy=diag["energy"] if "energy" in diag else energy(state, params, chi),
        theta1=diag["theta1"] if "theta1" in diag else theta1(state.psi, state.gamma),
        hermiticity_drift=diag.get("herm_drift", 0.0), vw_defect=defect)
        for state, diag, v_k, w_k, values, defect
        in zip(states, trajectory.diagnostics, v, w, per_sample, vw_defect)]


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
        # a zero tensor has defect 0.0
        "max_vw_defect": float(np.max([r.vw_defect for r in reports])),
        "charges": {},
    }
    if reports and reports[0].charges:
        for idx, (label, _) in enumerate(reports[0].charges):
            summary["charges"][label] = rel_drift(
                [r.charges[idx][1] for r in reports])
    return summary
