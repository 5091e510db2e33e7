"""Euler-Lagrange residuals and explicit right-hand sides for every model tier.

Residual sign convention: r = d/dt (dL/dq_dot) - dL/dq, for both the psi
sector (variation with respect to conj(psi), giving a covariant complex
vector) and the gamma sector (variation with respect to gamma entries,
giving a contravariant Hermitian matrix).  This is the convention under
which the finite-difference action-gradient oracle and the analytic
residuals agree without sign flips; equations of motion are r = 0 either
way.

The residual has one implementation, split by sector.  ``_ResidualPieces``
computes once per configuration what both sectors use: theta1 and
f'(theta1), gamma psi, gamma_dot psi, gamma^{-1} gamma_dot,
P = gamma^{-1} + alpha9 psi psi^, P gamma_dot and its trace.  Its
``psi_residual`` builds r_psi from matrix-vector products; its
``gamma_residual`` builds r_gamma, with all of its outer products of psi and
psid as one (n x 2)(2 x 2)(2 x n) product.  :func:`el_residual` and the
``full`` kernel evaluate both parts; the ``modified_first_order`` kernel
solves the psi part, affine in psid when alpha2 == 0, for psid and then
evaluates the gamma part at that psid.  The
kernels hand gamma psi and theta1 on to the closed-form kinetic inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateKinetic, ZeroAlpha2, ZeroBeta
from .hermitian_algebra import _checked_inverse, hermitian_part, hermiticity_drift, invert_form
from .models import (
    FullState,
    ModelParams,
    _apply_omega_inverse,
    _kinetic_denominator,
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
    (the two-metric variant); beta = alpha2 must not vanish.  Only the
    state's psi, psi_dot, gamma and t are read, and they are not validated
    again: the integrator passes its stages as a lighter object with those
    attributes.
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


def _p_dot(psi, psid, ginv, gamma_dot, alpha9: float) -> np.ndarray:
    """dP/dt = -gamma^{-1} gamma_dot gamma^{-1} + alpha9 (psid psi^ + psi psid^),
    with ``ginv`` = ``invert_form(gamma)`` computed by the caller."""
    out = -(ginv @ gamma_dot @ ginv)
    if alpha9 != 0.0:
        out = out + alpha9 * (np.outer(psid, np.conj(psi)) + np.outer(psi, np.conj(psid)))
    return out


def _apply_omega_dot(psi, psid, ginv, gamma_dot, params: ModelParams, x) -> np.ndarray:
    """Contract d(Omega)/dt with a covariant Hermitian matrix x; ``ginv`` is
    ``invert_form(gamma)``, which P and dP/dt share."""
    psi = np.asarray(psi, dtype=complex)
    psid = np.asarray(psid, dtype=complex)
    x = np.asarray(x, dtype=complex)
    p = p_tensor(psi, None, params.alpha9, ginv)
    pdot = _p_dot(psi, psid, ginv, gamma_dot, params.alpha9)
    out = params.alpha6 * (pdot @ x @ p + p @ x @ pdot)
    out += params.alpha7 * (np.trace(pdot @ x) * p + np.trace(p @ x) * pdot)
    if params.alpha8 != 0.0:
        rank1 = np.outer(psi, np.conj(psi))
        rank1_dot = np.outer(psid, np.conj(psi)) + np.outer(psi, np.conj(psid))
        quad = np.conj(psi) @ x @ psi
        quad_dot = np.conj(psid) @ x @ psi + np.conj(psi) @ x @ psid
        out += params.alpha8 * (quad_dot * rank1 + quad * rank1_dot)
    return out


class _ResidualPieces:
    """The only home of the Euler-Lagrange residual, on raw arrays (no
    validation, no re-symmetrization).

    Built once per configuration (psi, gamma, gamma_dot) with the caller's
    ``ginv`` = gamma^{-1}, it holds what the two sectors share: theta1 and
    f'(theta1), gamma psi, gamma_dot psi, psi^ gamma_dot psi,
    gamma^{-1} gamma_dot, P = gamma^{-1} + alpha9 psi psi^, P gamma_dot and
    its trace.  ``psi_residual`` is the psi part and ``gamma_residual`` the
    gamma part; ``residuals`` evaluates both, which also share
    gamma_dot psid.  None of the pieces depends on psid, so the modified
    first-order tier can solve the psi residual for psid before it forms the
    gamma one.  An acceleration given as None counts as zero and its terms
    are skipped.
    """

    __slots__ = ("params", "psi", "psibar", "g", "gd", "ginv", "gpsi", "th1",
                 "fprime", "gdpsi", "quad", "ginv_gd", "p", "pgd", "tr_pgd")

    def __init__(self, psi, gamma, gamma_dot, params: ModelParams, ginv):
        self.params = params
        self.psi = psi = np.asarray(psi, dtype=complex)
        self.psibar = psibar = psi.conj()
        self.g = g = np.asarray(gamma, dtype=complex)
        self.gd = gd = np.asarray(gamma_dot, dtype=complex)
        self.ginv = ginv
        self.gpsi = gpsi = g @ psi
        self.th1 = th1 = psibar @ gpsi
        self.fprime = params.effective_potential.derivative(float(th1.real))
        self.gdpsi = gdpsi = gd @ psi
        self.quad = psibar @ gdpsi
        self.ginv_gd = ginv @ gd
        self.p = p = ginv + (params.alpha9 * psi)[:, None] * psibar
        self.pgd = pgd = p @ gd
        self.tr_pgd = pgd.trace()

    def residuals(self, psid, chi, t: float, psi_ddot=None, gamma_ddot=None):
        """(r_psi, r_gamma) at velocity psid; both parts share gamma_dot psid."""
        psid = np.asarray(psid, dtype=complex)
        gdpsid = self.gd @ psid
        return (self.psi_residual(resolve_chi(chi, t), t, psid, gdpsid, psi_ddot),
                self.gamma_residual(psid, gdpsid, gamma_ddot))

    def psi_residual(self, chi, t: float, psid=None, gdpsid=None, psi_ddot=None):
        """r_psi = d/dt dL/d(conj psid) - dL/d(conj psi); a psid given as
        None (with its gamma_dot psid) counts as zero, and so does a
        psi_ddot given as None."""
        prm = self.params
        a1, a2, a9 = prm.alpha1, prm.alpha2, prm.alpha9
        c_gd = (-(prm.alpha3 * a9 + 1.0j * a1) - 2.0 * prm.alpha8 * self.quad
                - 2.0 * a9 * prm.alpha7 * self.tr_pgd)
        r = (self.fprime - prm.alpha4) * self.gpsi + c_gd * self.gdpsi
        if prm.alpha5 != 0.0:
            r -= prm.alpha5 * (chi @ self.psi)
        if a9 != 0.0:
            r -= (2.0 * a9 * prm.alpha6) * (self.gd @ (self.pgd @ self.psi))
        if psid is not None:
            r += a2 * gdpsid - (2.0j * a1) * (self.g @ psid)
        if psi_ddot is not None:
            r += a2 * (self.g @ psi_ddot)
        if prm.forcing is not None:
            r -= np.conj(np.asarray(prm.forcing(t), dtype=complex))
        return r

    def gamma_residual(self, psid, gdpsid, gamma_ddot=None):
        """r_gamma = d/dt dL/d(gamma_dot) - dL/d(gamma) (contravariant) at
        velocity psid, with gdpsid = gamma_dot psid; a gamma_ddot given as
        None counts as zero.

        Every term that is an outer product of psi and psid (the f' - alpha4,
        alpha8, alpha2 and alpha3*alpha9 +- i*alpha1 terms, and the alpha7
        term's alpha9 part) is one product V^T C conj(V), with V the rows
        psi and psid and C the 2x2 matrix of their coefficients.
        """
        prm = self.params
        a6, a7, a8, a9 = prm.alpha6, prm.alpha7, prm.alpha8, prm.alpha9
        psibar, ginv, gd, p = self.psibar, self.ginv, self.gd, self.p
        v = np.array([self.psi, psid])
        vbar = v.conj()

        # dP/dt = -gamma^{-1} gamma_dot gamma^{-1} + alpha9 (psid psi^ + psi psid^)
        gg = self.ginv_gd @ ginv
        pdot = a9 * (v.T @ vbar[::-1]) - gg
        pdot_gd = pdot @ gd
        r = (2.0 * a6) * (pdot_gd @ p + self.pgd @ pdot + self.ginv_gd @ self.pgd @ ginv)
        if a7 != 0.0:
            r += (2.0 * a7 * pdot_gd.trace()) * p

        c_pp = self.fprime - prm.alpha4
        if a8 != 0.0:
            c_pp += 2.0 * a8 * (vbar[1] @ self.gdpsi + psibar @ gdpsid)
        if gamma_ddot is not None:
            pgdd = p @ gamma_ddot
            r += (2.0 * a6) * (pgdd @ p) + (2.0 * a7 * pgdd.trace()) * p
            if a8 != 0.0:
                c_pp += 2.0 * a8 * (psibar @ gamma_ddot @ self.psi)
        c_mix = prm.alpha3 * a9 + 2.0 * a8 * self.quad + 2.0 * a7 * a9 * self.tr_pgd
        coeffs = np.array([[c_pp, c_mix + 1.0j * prm.alpha1],
                           [c_mix - 1.0j * prm.alpha1, -prm.alpha2]])
        r += v.T @ (coeffs @ vbar)
        return r


def el_residual(state: FullState, accel, params: ModelParams, chi) -> Residual:
    """Euler-Lagrange residual of the total model at a state with given
    accelerations ``accel = (psi_ddot, gamma_ddot)`` (None means zero).

    Evaluated by ``_ResidualPieces`` through one inverse of gamma, which
    refuses a near-singular form with SingularForm.
    """
    psi_ddot, gamma_ddot = accel if accel is not None else (None, None)
    n = state.n
    if psi_ddot is None:
        psi_ddot = np.zeros(n, dtype=complex)
    if gamma_ddot is None:
        gamma_ddot = np.zeros((n, n), dtype=complex)
    ginv = _checked_inverse(state.gamma)
    pieces = _ResidualPieces(state.psi, state.gamma, state.gamma_dot, params, ginv)
    r_psi, r_gamma = pieces.residuals(
        state.psi_dot, chi, state.t,
        np.asarray(psi_ddot, dtype=complex), np.asarray(gamma_ddot, dtype=complex))
    return Residual(r_psi=r_psi, r_gamma=r_gamma)


def _full_accelerations_raw(psi, psid, gamma, gamma_dot, params: ModelParams,
                            chi, t: float):
    if params.alpha2 == 0.0:
        raise ZeroAlpha2("alpha2 == 0: use rhs_modified_first_order")
    ginv = _checked_inverse(np.asarray(gamma, dtype=complex))
    s = _ResidualPieces(psi, gamma, gamma_dot, params, ginv)
    rest_psi, rest_gamma = s.residuals(psid, chi, t)
    psi_ddot = (ginv @ rest_psi) / -params.alpha2
    gamma_ddot = _apply_omega_inverse(s.psi, s.g, params, rest_gamma, s.gpsi, s.th1, -0.5)
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
    ginv = invert_form(gamma)
    s = _ResidualPieces(psi, gamma, gamma_dot, params, ginv)

    # with alpha2 == 0 the psi residual is -2i*alpha1 * gamma psid + R, R its
    # value at psid = 0: solved for psid, psid = gamma^{-1} R / (2i*alpha1)
    rest_psi = s.psi_residual(resolve_chi(chi, t), t)
    psid = (ginv @ rest_psi) / (2.0j * params.alpha1)

    # gamma equation solved for gamma_ddot with the psid just obtained
    rest_gamma = s.gamma_residual(psid, s.gd @ psid)
    gamma_ddot = _apply_omega_inverse(s.psi, s.g, params, rest_gamma, s.gpsi, s.th1, -0.5)
    return psid, gamma_ddot


def rhs_modified_first_order(psi, gamma, gamma_dot, params: ModelParams, chi,
                             t: float = 0.0):
    """(psid, gamma_ddot) for the alpha2 == 0 modified first-order system.

    psid solves the psi-sector equation, which is affine in psid when
    alpha2 == 0 (equivalently 2i*alpha1 psid = H_eff psi - gamma^{-1} conj(F),
    see :func:`~hermiton.models.effective_hamiltonian`); gamma_ddot comes
    from the kinetic inverse applied to the rearranged gamma-sector equation.
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
    whenever A != 0 and A + n*B != 0.

    A and A + n*B are refused by the kinetic inverse's own rule, so with
    A = 2 alpha6 and B = 2 alpha7 this tier refuses exactly the couplings
    the closed-form ladder refuses (A + n*B = 0 makes the kinetic metric
    degenerate along dilatations)."""
    g = np.asarray(gamma, dtype=complex)
    gd = np.asarray(gamma_dot, dtype=complex)
    _kinetic_denominator(A, 0.0, "A")
    _kinetic_denominator(A, g.shape[0] * B, "A + n*B")
    ginv = invert_form(g)
    return hermitian_part(gd @ ginv @ gd)
