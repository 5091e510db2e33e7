"""Euler-Lagrange residuals and explicit right-hand sides for every model tier.

Residual sign convention: r = d/dt (dL/dq_dot) - dL/dq, for both the psi
sector (variation with respect to conj(psi), giving a covariant complex
vector) and the gamma sector (variation with respect to gamma entries,
giving a contravariant Hermitian matrix).  This is the convention under
which the finite-difference action-gradient oracle and the analytic
residuals agree without sign flips; equations of motion are r = 0 either
way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateKinetic, ZeroAlpha2, ZeroBeta
from .hermitian_algebra import hermitian_part, hermiticity_drift, invert_form
from .models import (
    FullState,
    ModelParams,
    _heff_raw,
    apply_omega_inverse,
    p_tensor,
    potential_gradient,
    resolve_chi,
    theta1,
)

__all__ = [
    "Residual",
    "rhs_schrodinger",
    "rhs_second_order",
    "el_residual",
    "rhs_full",
    "rhs_modified_first_order",
    "rhs_direct_nonlinear_raw",
    "rhs_gamma_geodesic",
]


@dataclass(frozen=True)
class Residual:
    """Euler-Lagrange residual pair.

    r_psi is the covariant residual of the conj(psi) variation (the psi
    variation gives its complex conjugate); r_gamma is the contravariant
    Hermitian residual of the gamma variation.
    """

    r_psi: np.ndarray
    r_gamma: np.ndarray

    def gamma_hermiticity_defect(self) -> float:
        return hermiticity_drift(self.r_gamma)


def rhs_schrodinger(psi, gamma, chi, alpha: float, gamma_coeff: float) -> np.ndarray:
    """psid for the velocity-linear model on a frozen scalar product:
    2i*alpha*Gamma*psid = gamma_coeff*chi*psi, i.e. psid = (gamma_coeff / 2i alpha) H psi."""
    psi = np.asarray(psi, dtype=complex)
    h = invert_form(gamma) @ np.asarray(chi, dtype=complex)
    return (gamma_coeff / (2.0j * alpha)) * (h @ psi)


def rhs_second_order(state: FullState, chi, params: ModelParams,
                     gamma_tilde=None) -> np.ndarray:
    """psi_ddot for the second-order model (frozen gamma).

    Solves  2i*alpha*Gamma psid - beta*K psi_ddot = gamma*chi psi + f' Gamma psi
    with K = Gamma when ``gamma_tilde`` is None, K = gamma_tilde otherwise
    (the two-metric variant); beta = alpha2 must not vanish.
    """
    beta = params.alpha2
    if beta == 0.0:
        raise ZeroBeta("second-order dynamics needs alpha2 != 0")
    psi, psid = state.psi, state.psi_dot
    g = state.gamma
    chi = resolve_chi(chi, state.t)
    grad_v = potential_gradient(psi, g, params.effective_potential)
    rhs = 2.0j * params.alpha1 * (g @ psid) - params.gamma_coeff * (chi @ psi) - grad_v
    kinetic = g if gamma_tilde is None else np.asarray(gamma_tilde, dtype=complex)
    return np.linalg.solve(kinetic, rhs) / beta


def _p_dot(psi, psid, gamma, gamma_dot, alpha9: float) -> np.ndarray:
    ginv = invert_form(gamma)
    out = -(ginv @ gamma_dot @ ginv)
    if alpha9 != 0.0:
        out = out + alpha9 * (np.outer(psid, np.conj(psi)) + np.outer(psi, np.conj(psid)))
    return out


def _apply_omega_dot(psi, psid, gamma, gamma_dot, params: ModelParams, x) -> np.ndarray:
    """Contract d(Omega)/dt with a covariant Hermitian matrix x."""
    psi = np.asarray(psi, dtype=complex)
    psid = np.asarray(psid, dtype=complex)
    x = np.asarray(x, dtype=complex)
    p = p_tensor(psi, gamma, params.alpha9)
    pdot = _p_dot(psi, psid, gamma, gamma_dot, params.alpha9)
    out = params.alpha6 * (pdot @ x @ p + p @ x @ pdot)
    out += params.alpha7 * (np.trace(pdot @ x) * p + np.trace(p @ x) * pdot)
    if params.alpha8 != 0.0:
        rank1 = np.outer(psi, np.conj(psi))
        rank1_dot = np.outer(psid, np.conj(psi)) + np.outer(psi, np.conj(psid))
        quad = np.conj(psi) @ x @ psi
        quad_dot = np.conj(psid) @ x @ psi + np.conj(psi) @ x @ psid
        out += params.alpha8 * (quad_dot * rank1 + quad * rank1_dot)
    return out


def _residuals_raw(psi, psid, gamma, gamma_dot, psi_ddot, gamma_ddot,
                   params: ModelParams, chi, t: float, ginv=None):
    """Residual pair on raw arrays (no validation, no re-symmetrization).

    An acceleration given as None counts as zero and its terms are skipped.
    Everything is expressed through a single inverse of gamma, ``ginv`` when
    the caller has one (an unguarded ``inv`` otherwise); near-singular forms
    surface as LinAlgError/NonFinite in the callers.
    """
    psi = np.asarray(psi, dtype=complex)
    psid = np.asarray(psid, dtype=complex)
    g = np.asarray(gamma, dtype=complex)
    gd = np.asarray(gamma_dot, dtype=complex)
    chi = resolve_chi(chi, t)
    a1, a2, a3 = params.alpha1, params.alpha2, params.alpha3
    a6, a7, a8, a9 = params.alpha6, params.alpha7, params.alpha8, params.alpha9
    psibar = np.conj(psi)
    psidbar = np.conj(psid)
    fprime = params.effective_potential.derivative(float((psibar @ g @ psi).real))

    if ginv is None:
        ginv = np.linalg.inv(g)
    proj = np.outer(psi, psibar)
    p = ginv + a9 * proj
    pgd = p @ gd
    tr_pgd = np.trace(pgd)

    # psi sector: d/dt dL/d(conj psid) - dL/d(conj psi)
    r_psi = (a2 * gd - 2.0j * a1 * g) @ psid
    if psi_ddot is not None:
        r_psi += a2 * (g @ psi_ddot)
    r_psi += ((fprime - params.alpha4) * g - params.alpha5 * chi
              - (a3 * a9 + 1.0j * a1) * gd) @ psi
    if a8 != 0.0:
        r_psi -= 2.0 * a8 * (psibar @ gd @ psi) * (gd @ psi)
    if a9 != 0.0:
        r_psi -= 2.0 * a9 * (a6 * (gd @ pgd) + a7 * tr_pgd * gd) @ psi
    if params.forcing is not None:
        r_psi -= np.conj(np.asarray(params.forcing(t), dtype=complex))

    # gamma sector: d/dt dL/d(gamma_dot) - dL/d(gamma), contravariant
    proj_dot = np.outer(psid, psibar) + np.outer(psi, psidbar)
    ginv_gd = ginv @ gd
    gg = ginv_gd @ ginv
    pdot = -gg + a9 * proj_dot
    pdot_gd = pdot @ gd
    r_gamma = 2.0 * (a6 * (pdot_gd @ p + pgd @ pdot)
                     + a7 * (np.trace(pdot_gd) * p + tr_pgd * pdot))
    if gamma_ddot is not None:
        acc = 2.0 * (a6 * (p @ gamma_ddot @ p) + a7 * np.trace(p @ gamma_ddot) * p)
        if a8 != 0.0:
            acc += 2.0 * a8 * (psibar @ gamma_ddot @ psi) * proj
        r_gamma += acc
    if a8 != 0.0:
        quad = psibar @ gd @ psi
        quad_dot = psidbar @ gd @ psi + psibar @ gd @ psid
        r_gamma += 2.0 * a8 * (quad_dot * proj + quad * proj_dot)

    r_gamma += (fprime - params.alpha4) * proj
    r_gamma += 2.0 * (a6 * (ginv_gd @ pgd @ ginv) + a7 * tr_pgd * gg)
    if a2 != 0.0:
        r_gamma -= a2 * np.outer(psid, psidbar)
    c = a3 * a9
    r_gamma += (c + 1.0j * a1) * np.outer(psi, psidbar)
    r_gamma += (c - 1.0j * a1) * np.outer(psid, psibar)
    return r_psi, r_gamma


def el_residual(state: FullState, accel, params: ModelParams, chi) -> Residual:
    """Euler-Lagrange residual of the total model at a state with given
    accelerations ``accel = (psi_ddot, gamma_ddot)`` (None means zero)."""
    psi_ddot, gamma_ddot = accel if accel is not None else (None, None)
    n = state.n
    if psi_ddot is None:
        psi_ddot = np.zeros(n, dtype=complex)
    if gamma_ddot is None:
        gamma_ddot = np.zeros((n, n), dtype=complex)
    r_psi, r_gamma = _residuals_raw(
        state.psi, state.psi_dot, state.gamma, state.gamma_dot,
        np.asarray(psi_ddot, dtype=complex), np.asarray(gamma_ddot, dtype=complex),
        params, chi, state.t)
    return Residual(r_psi=r_psi, r_gamma=r_gamma)


def _full_accelerations_raw(psi, psid, gamma, gamma_dot, params: ModelParams,
                            chi, t: float):
    if params.alpha2 == 0.0:
        raise ZeroAlpha2("alpha2 == 0: use rhs_modified_first_order")
    ginv = np.linalg.inv(np.asarray(gamma, dtype=complex))
    rest_psi, rest_gamma = _residuals_raw(psi, psid, gamma, gamma_dot, None, None,
                                          params, chi, t, ginv)
    psi_ddot = -(ginv @ rest_psi) / params.alpha2
    gamma_ddot = 0.5 * apply_omega_inverse(psi, gamma, params, -rest_gamma)
    return psi_ddot, gamma_ddot


def rhs_full(state: FullState, params: ModelParams, chi):
    """Accelerations (psi_ddot, gamma_ddot) of the full coupled model,
    obtained from one inverse of gamma (shared by the residuals and the psi
    sector) and the closed-form kinetic inverse for the gamma sector."""
    psi_ddot, gamma_ddot = _full_accelerations_raw(
        state.psi, state.psi_dot, state.gamma, state.gamma_dot, params, chi, state.t)
    return psi_ddot, hermitian_part(gamma_ddot)


def _modified_first_order_raw(psi, gamma, gamma_dot, params: ModelParams,
                              chi, t: float):
    if params.alpha2 != 0.0:
        raise ValueError("modified first-order system requires alpha2 == 0")
    if params.alpha1 == 0.0:
        raise DegenerateKinetic("alpha1 == 0 leaves no first-order psi dynamics")
    psi = np.asarray(psi, dtype=complex)
    g = np.asarray(gamma, dtype=complex)
    gd = np.asarray(gamma_dot, dtype=complex)
    chi_m = resolve_chi(chi, t)
    ginv = invert_form(g)

    # psi equation solved for psid: 2i*alpha1 * psid = H_eff psi - gamma^{-1} conj(F)
    heff = _heff_raw(psi, g, gd, params, chi_m, ginv)
    rhs = heff @ psi
    if params.forcing is not None:
        rhs -= ginv @ np.conj(np.asarray(params.forcing(t), dtype=complex))
    psid = rhs / (2.0j * params.alpha1)

    # gamma equation solved for gamma_ddot with the psid just obtained
    _, rest_gamma = _residuals_raw(psi, psid, g, gd, None, None, params, chi, t, ginv)
    gamma_ddot = 0.5 * apply_omega_inverse(psi, g, params, -rest_gamma)
    return psid, gamma_ddot


def rhs_modified_first_order(psi, gamma, gamma_dot, params: ModelParams, chi,
                             t: float = 0.0):
    """(psid, gamma_ddot) for the alpha2 == 0 modified first-order system.

    psid comes from the effective Hamilton operator, gamma_ddot from the
    kinetic inverse applied to the rearranged gamma-sector equation.
    """
    psid, gamma_ddot = _modified_first_order_raw(psi, gamma, gamma_dot, params, chi, t)
    return psid, hermitian_part(gamma_ddot)


def rhs_direct_nonlinear_raw(psi, gamma, params: ModelParams, chi_matrix,
                             t: float = 0.0) -> np.ndarray:
    """psid of the velocity-linear psi dynamics on a frozen scalar product,
    with the optional potential and forcing terms:

        2i*alpha1*Gamma psid = [(f'(theta1) - alpha4) Gamma - alpha5 chi] psi - conj(F).
    """
    psi = np.asarray(psi, dtype=complex)
    g = np.asarray(gamma, dtype=complex)
    chi_m = np.asarray(chi_matrix, dtype=complex)
    fprime = params.effective_potential.derivative(theta1(psi, g))
    rhs = ((fprime - params.alpha4) * g - params.alpha5 * chi_m) @ psi
    if params.forcing is not None:
        rhs = rhs - np.conj(np.asarray(params.forcing(t), dtype=complex))
    return np.linalg.solve(g, rhs) / (2.0j * params.alpha1)


def rhs_gamma_geodesic(gamma, gamma_dot, A: float, B: float) -> np.ndarray:
    """gamma_ddot = gamma_dot gamma^{-1} gamma_dot, the unique solution of
    A*Y + B*Tr(gamma^{-1} Y)*gamma = 0 about Y = gamma_ddot - that product
    whenever A != 0 and A + n*B != 0."""
    g = np.asarray(gamma, dtype=complex)
    gd = np.asarray(gamma_dot, dtype=complex)
    n = g.shape[0]
    scale = max(abs(A), abs(B), 1e-300)
    if abs(A) <= 1e-12 * scale:
        raise DegenerateKinetic("geodesic kinetic term needs A != 0")
    if abs(A + n * B) <= 1e-12 * scale:
        raise DegenerateKinetic(
            f"A + n*B = {A + n * B:.3e} vanishes: kinetic metric degenerate along dilatations")
    ginv = invert_form(g)
    return hermitian_part(gd @ ginv @ gd)
