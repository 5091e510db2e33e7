"""Euler-Lagrange residuals, and the right-hand sides of every tier solved from them.

Residual sign convention: r = d/dt (dL/dq_dot) - dL/dq, for both the psi
sector (variation with respect to conj(psi), giving a covariant complex
vector) and the gamma sector (variation with respect to gamma entries,
giving a contravariant Hermitian matrix).  This is the convention under
which the finite-difference action-gradient oracle and the analytic
residuals agree without sign flips; equations of motion are r = 0 either
way.

The residual has one implementation, split by sector, and it is the only
source of the psi equation of motion.  ``_ResidualPieces`` computes once
per configuration what both sectors use: theta1 and f'(theta1), gamma psi
and, unless gamma is frozen, gamma_dot psi, gamma^{-1} gamma_dot,
P = gamma^{-1} + alpha9 psi psi^, P gamma_dot and its trace.  Every psi
tier solves ``psi_residual`` without its acceleration term, R, with one
inverse K^{-1} (K = gamma, or gamma_tilde in the alpha2 term): the
first-order tiers (alpha2 == 0) as psid = K^{-1} R0 / (2i alpha1), R0 being
R at psid = 0, the second-order ones as psi_ddot = K^{-1} R / (-alpha2).
On a frozen gamma that rate is linear in the state except for the
f'(theta1) term and the forcing, so the integrator hands the frozen-gamma
kernels a ``_PreparedPsiRate``, built once per run: K^{-1} and the linear
part, probed from ``psi_residual`` at unit vectors, so that a call costs
one matrix-vector product plus those two terms.  ``gamma_residual`` builds
r_gamma, with all of its outer products of psi and psid as one
(n x 2)(2 x 2)(2 x n) product, and the kernels hand gamma psi and theta1 on
to the closed-form kinetic inverse.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateKinetic, ZeroAlpha2
from .hermitian_algebra import _checked_inverse, hermitian_part, invert_form
from .models import (
    FullState,
    ModelParams,
    PotentialSpec,
    _apply_omega_inverse,
    _kinetic_denominator,
    p_tensor,
    resolve_chi,
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


def rhs_schrodinger(psi, gamma, chi, alpha: float, gamma_coeff: float) -> np.ndarray:
    """psid for the velocity-linear model on a frozen scalar product:
    2i*alpha*Gamma*psid = gamma_coeff*chi*psi, i.e. psid = (gamma_coeff / 2i alpha) H psi,
    the couplings alpha1 = alpha, alpha5 = -gamma_coeff of :func:`rhs_direct_nonlinear_raw`."""
    return rhs_direct_nonlinear_raw(psi, gamma,
                                    ModelParams(alpha1=alpha, alpha5=-gamma_coeff), chi)


def rhs_second_order(state: FullState, chi, params: ModelParams,
                     gamma_tilde=None, prepared=None) -> np.ndarray:
    """psi_ddot = K^{-1} R / (-alpha2) of the second-order model on a frozen
    gamma, with K = gamma or ``gamma_tilde`` (the two-metric variant).
    alpha2 must not vanish.  Only the state's psi, psi_dot, gamma and t are
    read, and not validated again: the integrator passes its stages as a
    lighter object with those attributes.  ``prepared``, when given, is the
    run's :class:`_PreparedPsiRate`, which holds K^{-1}, chi and the couplings
    (``chi``, ``params``, ``gamma_tilde`` and the state's gamma are then not
    read).
    """
    if prepared is not None:
        return prepared(state.psi, state.psi_dot, state.t)
    denom = _second_order_denominator(params)
    s = _ResidualPieces(state.psi, state.gamma, None, params)
    kinv = _checked_inverse(np.asarray(s.g if gamma_tilde is None else gamma_tilde, complex))
    rest = s.psi_residual(resolve_chi(chi, state.t), state.t, state.psi_dot)
    return (kinv @ rest) / denom


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
    gamma^{-1} gamma_dot, P = gamma^{-1} + alpha9 psi psi^, P gamma_dot, its
    trace and c_gd, the coefficient of gamma_dot psi in r_psi.
    ``psi_residual`` is the psi part and ``gamma_residual`` the gamma part;
    ``residuals`` evaluates both, which also share gamma_dot psid, and
    ``effective_hamiltonian`` is the psi part as an operator on psi.  None of
    the pieces depends on psid, so the first-order tiers can solve the psi
    residual for psid before the gamma one is formed.  An acceleration, or a
    gamma_dot (a frozen gamma: ``psi_residual`` only, ``ginv`` unread), given
    as None counts as zero and its terms are skipped.
    """

    __slots__ = ("params", "psi", "psibar", "g", "gd", "ginv", "gpsi", "th1",
                 "fprime", "gdpsi", "quad", "ginv_gd", "p", "pgd", "tr_pgd", "c_gd")

    def __init__(self, psi, gamma, gamma_dot, params: ModelParams, ginv=None):
        self.params = params
        self.psi = psi = np.asarray(psi, dtype=complex)
        self.psibar = psibar = psi.conj()
        self.g = g = np.asarray(gamma, dtype=complex)
        self.gpsi = gpsi = g @ psi
        self.th1 = th1 = psibar @ gpsi
        self.fprime = params.effective_potential.derivative(float(th1.real))
        self.gd = gd = None if gamma_dot is None else np.asarray(gamma_dot, dtype=complex)
        if gd is None:
            return
        self.ginv = ginv
        self.gdpsi = gdpsi = gd @ psi
        self.quad = psibar @ gdpsi
        self.ginv_gd = ginv @ gd
        self.p = p = ginv + (params.alpha9 * psi)[:, None] * psibar
        self.pgd = pgd = p @ gd
        self.tr_pgd = tr = pgd.trace()
        self.c_gd = (-(params.alpha3 * params.alpha9 + 1.0j * params.alpha1)
                     - 2.0 * params.alpha8 * self.quad - 2.0 * params.alpha9 * params.alpha7 * tr)

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
        frozen = self.gd is None
        r = (self.fprime - prm.alpha4) * self.gpsi
        if not frozen:
            r += self.c_gd * self.gdpsi
        if prm.alpha5 != 0.0:
            r -= prm.alpha5 * (chi @ self.psi)
        if a9 != 0.0 and not frozen:
            r -= (2.0 * a9 * prm.alpha6) * (self.gd @ (self.pgd @ self.psi))
        if psid is not None:
            r += (0.0 if frozen else a2 * gdpsid) - (2.0j * a1) * (self.g @ psid)
        if psi_ddot is not None:
            r += a2 * (self.g @ psi_ddot)
        if prm.forcing is not None:
            r -= np.conj(np.asarray(prm.forcing(t), dtype=complex))
        return r

    def effective_hamiltonian(self, chi):
        """H_eff with 2i*alpha1 psid = H_eff psi - gamma^{-1} conj(F) when
        alpha2 == 0: gamma^{-1} times r_psi at psid = 0, forcing aside."""
        prm = self.params
        heff = (self.fprime - prm.alpha4) * np.eye(self.psi.size, dtype=complex) \
            + self.c_gd * self.ginv_gd
        heff -= prm.alpha5 * (self.ginv @ chi)
        heff -= (2.0 * prm.alpha9 * prm.alpha6) * (self.ginv_gd @ self.pgd)
        return heff

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
    pieces = _ResidualPieces(state.psi, state.gamma, state.gamma_dot, params,
                             _checked_inverse(state.gamma))
    return Residual(*pieces.residuals(state.psi_dot, chi, state.t, psi_ddot, gamma_ddot))


def _full_accelerations_raw(psi, psid, gamma, gamma_dot, params: ModelParams,
                            chi, t: float, ginv=None):
    """(psi_ddot, gamma_ddot) of the full model on raw arrays; ``ginv``,
    when given, is ``_checked_inverse(gamma)`` computed by the caller."""
    if params.alpha2 == 0.0:
        raise ZeroAlpha2("alpha2 == 0: use rhs_modified_first_order")
    if ginv is None:
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


def _first_order_denominator(prm: ModelParams) -> complex:
    """2i*alpha1, by which the first-order tiers divide K^{-1} R0; alpha2 != 0
    and alpha1 == 0 are refused."""
    if prm.alpha2 != 0.0:
        raise ValueError("first-order psi dynamics requires alpha2 == 0")
    if prm.alpha1 == 0.0:
        raise DegenerateKinetic("alpha1 == 0 leaves no first-order psi dynamics")
    return 2.0j * prm.alpha1


def _second_order_denominator(prm: ModelParams) -> float:
    """-alpha2, by which the second-order tiers divide K^{-1} R; alpha2 == 0
    is refused."""
    if prm.alpha2 == 0.0:
        raise ZeroAlpha2("second-order dynamics needs alpha2 != 0")
    return -prm.alpha2


def _first_order_rate(prm: ModelParams, r0, kinv) -> np.ndarray:
    """psid = gamma^{-1} R0 / (2i*alpha1), ``kinv`` = gamma^{-1} and ``r0`` the psi
    residual at psid = 0: the psi residual -2i*alpha1 gamma psid + R0 solved for
    psid; alpha2 != 0 and alpha1 == 0 are refused."""
    return (kinv @ r0) / _first_order_denominator(prm)


class _PreparedPsiRate:
    """The psi rate of a frozen-gamma tier, prepared once per run: psid on the
    first-order tiers, psi_ddot on ``second_order``.

    K is inverted here, once, with the condition test of ``_checked_inverse``,
    and the couplings are refused as the kernels refuse them.  On a frozen
    gamma the rate is K^{-1} R / d (d = 2i alpha1 or -alpha2), and R is
    linear in x = psi, or x = (psi, psid) on ``second_order``, except for the
    f'(theta1) gamma psi term and the forcing.  With a constant chi a call is
    therefore

        A x + f'(theta1) B psi - K^{-1} conj(F(t)) / d,    B = K^{-1} gamma / d,

    with A read off ``psi_residual`` at the unit vectors, the potential and
    the forcing off, so that the psi equation keeps one implementation.  A,
    B and gamma (for theta1 = psi^ gamma psi) are stacked, so x costs one
    matrix-vector product.  A callable chi cannot be probed: the rate then
    evaluates ``psi_residual`` at chi(t) on every call.
    """

    __slots__ = ("params", "chi", "gamma", "kinv", "denom", "op", "fprime", "forcing",
                 "kinv_d")

    def __init__(self, gamma, params: ModelParams, chi, second_order: bool, kinetic=None):
        self.params, self.chi = params, chi
        self.gamma = g = np.asarray(gamma, dtype=complex)
        self.kinv = kinv = _checked_inverse(g if kinetic is None
                                            else np.asarray(kinetic, dtype=complex))
        self.denom = d = (_second_order_denominator(params) if second_order
                          else _first_order_denominator(params))
        self.op = None
        if callable(chi):
            return
        n = g.shape[0]
        m = 2 * n if second_order else n
        linear = replace(params, kappa=0.0, potential=PotentialSpec(), forcing=None)
        chi_m = resolve_chi(chi, 0.0)
        probes = [_ResidualPieces(e[:n], g, None, linear)
                  .psi_residual(chi_m, 0.0, e[n:] if second_order else None)
                  for e in np.eye(m, dtype=complex)]
        op = (kinv @ np.array(probes).T) / d
        self.fprime = None
        if params.effective_potential.kind != "none":
            pad = np.zeros((n, m - n), dtype=complex)
            op = np.array([op, np.hstack([(kinv @ g) / d, pad]), np.hstack([g, pad])])
            self.fprime = params.effective_potential.derivative
        self.op = op
        self.forcing = params.forcing
        self.kinv_d = kinv / d

    def __call__(self, psi, psid, t: float) -> np.ndarray:
        """The rate at psi (and psid on ``second_order``, None otherwise) and t."""
        if self.op is None:
            s = _ResidualPieces(psi, self.gamma, None, self.params)
            return (self.kinv @ s.psi_residual(resolve_chi(self.chi, t), t, psid)) / self.denom
        rate = self.op @ (psi if psid is None else np.concatenate((psi, psid)))
        if self.fprime is not None:
            rate, b_psi, gpsi = rate
            rate = rate + self.fprime(float(np.vdot(psi, gpsi).real)) * b_psi
        if self.forcing is not None:
            rate = rate - self.kinv_d @ np.conj(self.forcing(t))
        return rate


def _modified_first_order_raw(psi, gamma, gamma_dot, params: ModelParams,
                              chi, t: float):
    ginv = invert_form(gamma)
    s = _ResidualPieces(psi, gamma, gamma_dot, params, ginv)
    psid = _first_order_rate(params, s.psi_residual(resolve_chi(chi, t), t), ginv)

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
                             t: float = 0.0, prepared=None) -> np.ndarray:
    """psid of the velocity-linear psi dynamics on a frozen scalar product,
    with the optional potential and forcing terms, from the psi residual:

        2i*alpha1*Gamma psid = [(f'(theta1) - alpha4) Gamma - alpha5 chi] psi - conj(F).

    ``prepared``, when given, is the run's :class:`_PreparedPsiRate`, which
    holds gamma^{-1}, chi and the couplings (``gamma``, ``params`` and
    ``chi_matrix`` are then not read).
    """
    if prepared is not None:
        return prepared(psi, None, t)
    s = _ResidualPieces(psi, gamma, None, params)
    return _first_order_rate(params, s.psi_residual(chi_matrix, t), _checked_inverse(s.g))


def rhs_gamma_geodesic(gamma, gamma_dot, A: float, B: float) -> np.ndarray:
    """gamma_ddot = gamma_dot gamma^{-1} gamma_dot, the unique solution of
    A*Y + B*Tr(gamma^{-1} Y)*gamma = 0 about Y = gamma_ddot - that product
    whenever A != 0 and A + n*B != 0.

    A and A + n*B are refused by the relative rule of
    :func:`~hermiton.models._kinetic_denominator`.  With A = 2 alpha6 and
    B = 2 alpha7 this tier refuses the couplings the kinetic inverse refuses
    at alpha8 = 0 or psi = 0 (A + n*B = 0 makes the kinetic metric
    degenerate along dilatations); alpha8 psi != 0 can lift that degeneracy."""
    g = np.asarray(gamma, dtype=complex)
    gd = np.asarray(gamma_dot, dtype=complex)
    _kinetic_denominator(A, 0.0, "A")
    _kinetic_denominator(A, g.shape[0] * B, "A + n*B")
    ginv = invert_form(g)
    return hermitian_part(gd @ ginv @ gd)
