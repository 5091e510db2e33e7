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
from .models import FullState, ModelParams, apply_omega, energy, theta1

__all__ = [
    "ChargeReport",
    "noether_tensors",
    "noether_charge",
    "gl_transform",
    "monitor",
    "drift_summary",
]

#: symmetry classification tolerance for charge generators
GENERATOR_TOL = 1e-10


@dataclass(frozen=True)
class ChargeReport:
    """Per-sample conserved-quantity snapshot."""

    t: float
    V: np.ndarray
    W: np.ndarray
    charges: list
    energy: float
    theta1: float
    hermiticity_drift: float


def noether_tensors(state: FullState, params: ModelParams,
                    gamma0) -> tuple[np.ndarray, np.ndarray]:
    """Conserved Hermitian tensors (V, W) relative to the reference product
    gamma0; V pairs with gamma0-Hermitian generators, W with antihermitian
    ones."""
    psi, psid = state.psi, state.psi_dot
    g, gd = state.gamma, state.gamma_dot
    g0_inv = invert_form(gamma0)
    omega = apply_omega(psi, g, params, gd)

    proj = np.outer(psi, np.conj(psi))          # psi psi^
    mixed = np.outer(psi, np.conj(psid))        # psi psid^
    mixed_rev = np.outer(psid, np.conj(psi))    # psid psi^
    c_minus = 1j * params.alpha1 - params.alpha3 * params.alpha9
    c_plus = 1j * params.alpha1 + params.alpha3 * params.alpha9

    v = params.alpha2 * (mixed @ g @ g0_inv + g0_inv @ g @ mixed_rev)
    v += c_minus * (proj @ g @ g0_inv)
    v -= 2.0 * params.alpha3 * g0_inv
    v -= c_plus * (g0_inv @ g @ proj)
    v -= 2.0 * (g0_inv @ g @ omega + omega @ g @ g0_inv)

    iw = params.alpha2 * (mixed @ g @ g0_inv - g0_inv @ g @ mixed_rev)
    iw += c_minus * (proj @ g @ g0_inv)
    iw += c_plus * (g0_inv @ g @ proj)
    iw += 2.0 * (g0_inv @ g @ omega - omega @ g @ g0_inv)
    w = -1j * iw
    return v, w


def _is_hermitian(a: np.ndarray, label: str = "generator") -> bool | None:
    """Symmetry class of a charge generator: True when Hermitian, False when
    antihermitian, None when zero; WrongSymmetryClass when it is neither."""
    norm = np.linalg.norm(a)
    if norm == 0.0:
        return None
    if np.linalg.norm(a - a.conj().T) <= GENERATOR_TOL * norm:
        return True
    if np.linalg.norm(a + a.conj().T) <= GENERATOR_TOL * norm:
        return False
    raise WrongSymmetryClass(f"{label} is neither Hermitian nor antihermitian")


def _charge(v: np.ndarray, w: np.ndarray, a: np.ndarray, hermitian: bool) -> float:
    return float((np.trace(v @ a) if hermitian else np.trace(1j * (w @ a))).real)


def noether_charge(state: FullState, params: ModelParams, gamma0,
                   a_tilde) -> float:
    """Charge of one generator: Tr(V A~) for Hermitian A~, Tr(i W A~) for
    antihermitian A~."""
    a = np.asarray(a_tilde, dtype=complex)
    hermitian = _is_hermitian(a)
    if hermitian is None:
        return 0.0
    v, w = noether_tensors(state, params, gamma0)
    return _charge(v, w, a, hermitian)


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
    of (label, matrix) pairs or bare matrices.
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

    reports = []
    for state, diag in zip(states, trajectory.diagnostics):
        v, w = noether_tensors(state, params, gamma0)
        reports.append(ChargeReport(
            t=state.t, V=v, W=w,
            charges=[(label, _charge(v, w, a, hermitian)) for label, a, hermitian in items],
            energy=diag["energy"] if "energy" in diag else energy(state, params, chi),
            theta1=diag["theta1"] if "theta1" in diag else theta1(state.psi, state.gamma),
            hermiticity_drift=diag.get("herm_drift", 0.0)))
    return reports


def drift_summary(reports: list[ChargeReport]) -> dict:
    """Max relative drift per monitored quantity over a report sequence.

    Drift is measured against max(|quantity|, 1e-6) so that near-zero
    charges do not blow up the ratio.
    """
    def rel_drift(series):
        series = np.asarray(series, dtype=float)
        scale = max(float(np.max(np.abs(series))), 1e-6)
        return float((series.max() - series.min()) / scale)

    summary = {
        "energy": rel_drift([r.energy for r in reports]),
        "theta1": rel_drift([r.theta1 for r in reports]),
        "max_herm_drift": float(max(r.hermiticity_drift for r in reports)),
        "max_vw_defect": float(max(
            max(hermiticity_drift(r.V) if np.linalg.norm(r.V) else 0.0,
                hermiticity_drift(r.W) if np.linalg.norm(r.W) else 0.0)
            for r in reports)),
        "charges": {},
    }
    if reports and reports[0].charges:
        for idx, (label, _) in enumerate(reports[0].charges):
            summary["charges"][label] = rel_drift(
                [r.charges[idx][1] for r in reports])
    return summary
