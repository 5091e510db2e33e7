"""Euler-Lagrange residuals, and the right-hand sides of every tier solved from them.

Residual sign convention: r = d/dt (dL/dq_dot) - dL/dq, for both the psi
sector (variation with respect to conj(psi), giving a covariant complex
vector) and the gamma sector (variation with respect to gamma entries,
giving a contravariant Hermitian matrix).  This is the convention under
which the finite-difference action-gradient oracle and the analytic
residuals agree without sign flips; equations of motion are r = 0 either
way.

The residual has one implementation, ``_ResidualPieces``, split by sector:
it is the definition that ``el_residual``, the checks and the tests use,
and the frozen-gamma tiers solve its psi part.  Every frozen-gamma tier
solves ``psi_residual`` without its acceleration term, R, with one inverse
K^{-1} (K = gamma, or gamma_tilde in the alpha2 term): the first-order
tiers (alpha2 == 0) as psid = K^{-1} R0 / (2i alpha1), R0 being R at
psid = 0, the second-order one as psi_ddot = K^{-1} R / (-alpha2).  On a
frozen gamma that rate is linear in the state except for the f'(theta1)
term, the forcing and a callable chi, so the integrator hands the
frozen-gamma kernels a ``_PreparedPsiRate``, built once per run: K^{-1} and
the linear part, probed from ``psi_residual`` at unit vectors, so that a
call costs one matrix-vector product plus those three terms.

The Gamma-stepping tiers (``full``, ``modified_first_order``) take their
rates from ``_PreparedGammaRate``: the same psi equation and the kinetic
inverse of the gamma residual (``models.apply_omega_inverse``), worked out
in closed form.  Because Lambda = P^{-1} cancels the gamma^{-1} sandwiches
of r_gamma, gamma_ddot is the geodesic flow gamma_dot gamma^{-1} gamma_dot
plus a multiple of gamma plus a Hermitian term of rank at most 4, and a
call costs a few n x n and n x 4 products and Python scalar arithmetic.
The tests hold it to the residual and the kinetic inverse.

``gamma_geodesic`` steps the free flow gamma_ddot = gamma_dot gamma^{-1}
gamma_dot.  Its couplings enter only through two guards,
``_refuse_geodesic_couplings``, so a run refuses them once, and a call of
``_geodesic_rate`` is one checked inverse, two ``dot`` products and the
Hermitian part.  Every tier's kernel is thus prepared once per run, and the
integrator calls the prepared bodies directly.  The public functions have
one mode: each checks its couplings on every call and runs the same body.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateKinetic, ZeroAlpha2
from .hermitian_algebra import _as_complex_matrix, _checked_inverse, hermitian_part
from .models import (
    FullState,
    ModelParams,
    PotentialSpec,
    _kinetic_denominator,
    _ladder_weights,
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
                     gamma_tilde=None) -> np.ndarray:
    """psi_ddot = K^{-1} R / (-alpha2) of the second-order model on a frozen
    gamma, with K = gamma or ``gamma_tilde`` (the two-metric variant).
    alpha2 must not vanish.  Only the state's psi, psi_dot, gamma and t are
    read, and not validated again, so any object with those attributes
    will do.  A run steps the same equation through its
    :class:`_PreparedPsiRate`.
    """
    denom = _second_order_denominator(params)
    s = _ResidualPieces(state.psi, state.gamma, None, params, psid=state.psi_dot)
    kinv = _checked_inverse(np.asarray(s.g if gamma_tilde is None else gamma_tilde, complex))
    rest = s.psi_residual(resolve_chi(chi, state.t), state.t)
    return kinv.dot(rest) / denom


def _p_dot(psi, psid, ginv, gamma_dot, alpha9: float) -> np.ndarray:
    """dP/dt = -gamma^{-1} gamma_dot gamma^{-1} + alpha9 (psid psi^ + psi psid^),
    with ``ginv`` = gamma^{-1} computed by the caller; the alpha9 term is
    one product of V^T with the reversed rows of conj(V), V = (psi, psid)."""
    v = np.array((psi, psid), dtype=complex)
    return alpha9 * v.T.dot(v.conj()[::-1]) - ginv.dot(gamma_dot).dot(ginv)


def _apply_omega_dot(psi, psid, ginv, gamma_dot, params: ModelParams, x) -> np.ndarray:
    """Contract d(Omega)/dt with a covariant Hermitian matrix x; ``ginv`` is
    ``invert_form(gamma)``, which P and dP/dt share."""
    psi = np.asarray(psi, dtype=complex)
    psid = np.asarray(psid, dtype=complex)
    x = np.asarray(x, dtype=complex)
    p = p_tensor(psi, None, params.alpha9, ginv)
    pdot = _p_dot(psi, psid, ginv, gamma_dot, params.alpha9)
    out = params.alpha6 * (pdot.dot(x).dot(p) + p.dot(x).dot(pdot))
    out += params.alpha7 * (np.trace(pdot.dot(x)) * p + np.trace(p.dot(x)) * pdot)
    if params.alpha8 != 0.0:
        rank1 = np.outer(psi, np.conj(psi))
        rank1_dot = np.outer(psid, np.conj(psi)) + np.outer(psi, np.conj(psid))
        quad = np.conj(psi).dot(x).dot(psi)
        quad_dot = np.conj(psid).dot(x).dot(psi) + np.conj(psi).dot(x).dot(psid)
        out += params.alpha8 * (quad_dot * rank1 + quad * rank1_dot)
    return out


class _ResidualPieces:
    """The Euler-Lagrange residual, on raw arrays (no validation, no
    re-symmetrization): the definition that ``el_residual`` evaluates and
    the frozen-gamma tiers solve, and against which the closed form of
    :class:`_PreparedGammaRate` is tested.

    Built once per configuration (psi, gamma, gamma_dot), with the caller's
    ``ginv`` = gamma^{-1} and optionally the velocity psid, it holds what the
    two sectors share: f'(theta1), gamma psi, gamma_dot psi,
    psi^ gamma_dot psi, gamma^{-1} gamma_dot, P = gamma^{-1} + alpha9 psi psi^,
    P gamma_dot, its trace and c_gd, the coefficient of gamma_dot psi in
    r_psi, and with psid also gamma psid and gamma_dot psid.
    ``psi_residual`` is the psi part and ``gamma_residual`` the gamma part;
    ``residuals`` evaluates both, and ``effective_hamiltonian`` is the psi
    part as an operator on psi.  An acceleration, a velocity or a gamma_dot
    (a frozen gamma: ``psi_residual`` only, ``ginv`` unread) given as None
    counts as zero and its terms are skipped.

    On a stepped gamma the products take ``ndarray.dot``, which skips the
    matmul ufunc's dispatch (about 0.4 us a call at n <= 8), the scalars are
    Python complex numbers, and a trace of a product of two Hermitian
    matrices is one ``vdot``: Tr(A B) = vdot(B, A).
    """

    __slots__ = ("params", "psi", "psid", "g", "gd", "ginv", "gpsi", "fprime", "gdpsi",
                 "quad", "ginv_gd", "p", "pgd", "tr_pgd", "c_gd", "gpsid", "gdpsid")

    def __init__(self, psi, gamma, gamma_dot, params: ModelParams, ginv=None, psid=None):
        self.params = params
        self.psi = psi = np.asarray(psi, dtype=complex)
        psibar = psi.conj()
        self.psid = psid = None if psid is None else np.asarray(psid, dtype=complex)
        self.g = g = np.asarray(gamma, dtype=complex)
        self.gd = gd = None if gamma_dot is None else np.asarray(gamma_dot, dtype=complex)
        if gd is None:
            self.gpsi = gpsi = g.dot(psi)
            self.fprime = params.effective_potential.derivative(float(psibar.dot(gpsi).real))
            return
        self.ginv = ginv
        self.gpsi, self.gdpsi = gpsi, gdpsi = g.dot(psi), gd.dot(psi)
        if psid is not None:
            self.gpsid, self.gdpsid = g.dot(psid), gd.dot(psid)
        th1 = complex(np.vdot(psi, gpsi))
        self.quad = quad = complex(np.vdot(psi, gdpsi))
        self.fprime = params.effective_potential.derivative(th1.real)
        self.ginv_gd = ginv.dot(gd)
        self.p = p = ginv + (params.alpha9 * psi)[:, None] * psibar
        self.pgd = p.dot(gd)
        self.tr_pgd = tr = complex(np.vdot(gd, p))
        self.c_gd = (-(params.alpha3 * params.alpha9 + 1.0j * params.alpha1)
                     - 2.0 * params.alpha8 * quad - 2.0 * params.alpha9 * params.alpha7 * tr)

    def residuals(self, chi, t: float, psi_ddot=None, gamma_ddot=None):
        """(r_psi, r_gamma) at the pieces' velocity."""
        return (self.psi_residual(resolve_chi(chi, t), t, psi_ddot),
                self.gamma_residual(gamma_ddot))

    def psi_residual(self, chi, t: float, psi_ddot=None):
        """r_psi = d/dt dL/d(conj psid) - dL/d(conj psi) at the pieces'
        velocity; a psi_ddot given as None counts as zero."""
        prm = self.params
        a1, a2, a9 = prm.alpha1, prm.alpha2, prm.alpha9
        frozen = self.gd is None
        r = (self.fprime - prm.alpha4) * self.gpsi
        if not frozen:
            r += self.c_gd * self.gdpsi
        if prm.alpha5 != 0.0:
            r -= prm.alpha5 * chi.dot(self.psi)
        if a9 != 0.0 and not frozen:
            r -= (2.0 * a9 * prm.alpha6) * self.gd.dot(self.pgd.dot(self.psi))
        if self.psid is not None:
            if frozen:     # 0.0 - x, not -x: the frozen tiers keep their signed zeros
                r += 0.0 - (2.0j * a1) * self.g.dot(self.psid)
            else:
                r += a2 * self.gdpsid - (2.0j * a1) * self.gpsid
        if psi_ddot is not None:
            r += a2 * self.g.dot(psi_ddot)
        if prm.forcing is not None:
            r -= np.conj(np.asarray(prm.forcing(t), dtype=complex))
        return r

    def effective_hamiltonian(self, chi):
        """H_eff with 2i*alpha1 psid = H_eff psi - gamma^{-1} conj(F) when
        alpha2 == 0: gamma^{-1} times r_psi at psid = 0, forcing aside."""
        prm = self.params
        heff = (self.fprime - prm.alpha4) * np.eye(self.psi.size, dtype=complex) \
            + self.c_gd * self.ginv_gd
        heff -= prm.alpha5 * self.ginv.dot(chi)
        heff -= (2.0 * prm.alpha9 * prm.alpha6) * self.ginv_gd.dot(self.pgd)
        return heff

    def gamma_residual(self, gamma_ddot=None):
        """r_gamma = d/dt dL/d(gamma_dot) - dL/d(gamma) (contravariant) at
        the pieces' velocity; a gamma_ddot given as None counts as zero.

        Every term that is an outer product of psi and psid (the f' - alpha4,
        alpha8, alpha2 and alpha3*alpha9 +- i*alpha1 terms, and the alpha7
        term's alpha9 part) is one product V^T C conj(V), with V the rows
        psi and psid and C the 2x2 matrix of their coefficients.  Of the
        Hermitian pair Pdot gamma_dot P + P gamma_dot Pdot the second is the
        adjoint of the first.
        """
        prm = self.params
        a6, a7, a8, a9 = prm.alpha6, prm.alpha7, prm.alpha8, prm.alpha9
        psi, psid, ginv, gd, p = self.psi, self.psid, self.ginv, self.gd, self.p
        v = np.array((psi, psid))
        vbar = v.conj()

        pdot = _p_dot(psi, psid, ginv, gd, a9)
        x = pdot.dot(gd).dot(p)
        r = (2.0 * a6) * (x + x.conj().T + self.ginv_gd.dot(self.pgd).dot(ginv))
        if a7 != 0.0:
            r += (2.0 * a7 * complex(np.vdot(gd, pdot))) * p

        c_pp = self.fprime - prm.alpha4
        if a8 != 0.0:
            # psid^ gamma_dot psi + psi^ gamma_dot psid, gamma_dot Hermitian
            c_pp += 4.0 * a8 * np.vdot(psid, self.gdpsi).real
        if gamma_ddot is not None:
            gamma_ddot = np.asarray(gamma_ddot, dtype=complex)
            r += (2.0 * a6) * p.dot(gamma_ddot).dot(p) \
                + (2.0 * a7 * complex(np.vdot(gamma_ddot, p))) * p
            if a8 != 0.0:
                c_pp += 2.0 * a8 * complex(np.vdot(psi, gamma_ddot.dot(psi)))
        c_mix = prm.alpha3 * a9 + 2.0 * a8 * self.quad + 2.0 * a7 * a9 * self.tr_pgd
        coeffs = np.array([[c_pp, c_mix + 1.0j * prm.alpha1],
                           [c_mix - 1.0j * prm.alpha1, -prm.alpha2]])
        r += v.T.dot(coeffs.dot(vbar))
        return r


def el_residual(state: FullState, accel, params: ModelParams, chi) -> Residual:
    """Euler-Lagrange residual of the total model at a state with given
    accelerations ``accel = (psi_ddot, gamma_ddot)`` (None means zero).

    Evaluated by ``_ResidualPieces`` through one inverse of gamma, which
    refuses a near-singular form with SingularForm.
    """
    psi_ddot, gamma_ddot = accel if accel is not None else (None, None)
    pieces = _ResidualPieces(state.psi, state.gamma, state.gamma_dot, params,
                             _checked_inverse(state.gamma), state.psi_dot)
    return Residual(*pieces.residuals(chi, state.t, psi_ddot, gamma_ddot))


def rhs_full(state: FullState, params: ModelParams, chi):
    """Accelerations (psi_ddot, gamma_ddot) of the full coupled model, from
    one inverse of gamma and the closed form of :class:`_PreparedGammaRate`."""
    psi_ddot, gamma_ddot = _PreparedGammaRate(params, chi, first_order=False)(
        np.array((state.psi, state.psi_dot), dtype=complex),
        np.array((state.gamma, state.gamma_dot), dtype=complex), state.t)
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
    return kinv.dot(r0) / _first_order_denominator(prm)


class _PreparedPsiRate:
    """The psi rate of a frozen-gamma tier, prepared once per run: psid on the
    first-order tiers, psi_ddot on ``second_order``.

    K is inverted here, once, with the condition test of ``_checked_inverse``,
    and the couplings are refused as the kernels refuse them.  On a frozen
    gamma the rate is K^{-1} R / d (d = 2i alpha1 or -alpha2), and R is
    linear in x = psi, or x = (psi, psid) on ``second_order``, except for the
    f'(theta1) gamma psi term, the forcing and a callable chi.  A call is
    therefore

        A x + f'(theta1) B psi - K^{-1} (alpha5 chi(t) psi + conj(F(t))) / d,

    with B = K^{-1} gamma / d and A read off ``psi_residual`` at the unit
    vectors, the potential and the forcing off, so that the psi equation
    keeps one implementation.  A constant chi is probed into A, so its term
    drops out of the sum; a callable one is left out of the probe (alpha5 =
    0 there) and resolved on each call.  A, B and gamma (for theta1 =
    psi^ gamma psi) are stacked, so x costs one matrix-vector product.
    """

    __slots__ = ("chi", "alpha5", "op", "fprime", "forcing", "kinv_d")

    def __init__(self, gamma, params: ModelParams, chi, second_order: bool, kinetic=None):
        g = np.asarray(gamma, dtype=complex)
        kinv = _checked_inverse(g if kinetic is None else np.asarray(kinetic, dtype=complex))
        d = (_second_order_denominator(params) if second_order
             else _first_order_denominator(params))
        n = g.shape[0]
        m = 2 * n if second_order else n
        self.chi = chi if callable(chi) and params.alpha5 != 0.0 else None
        self.alpha5 = params.alpha5
        linear = replace(params, kappa=0.0, potential=PotentialSpec(), forcing=None,
                         alpha5=0.0 if callable(chi) else params.alpha5)
        probes = [_ResidualPieces(e[:n], g, None, linear, psid=e[n:] if second_order else None)
                  .psi_residual(None if callable(chi) else resolve_chi(chi, 0.0), 0.0)
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
        x = psi if psid is None else np.concatenate((psi, psid))
        if self.fprime is None:
            rate = self.op.dot(x)
        else:        # the (3, n, m) stack keeps matmul, whose bits dot does not give
            rate, b_psi, gpsi = self.op @ x
            rate = rate + self.fprime(float(np.vdot(psi, gpsi).real)) * b_psi
        ext = None if self.chi is None else self.alpha5 * resolve_chi(self.chi, t).dot(psi)
        if self.forcing is not None:
            force = np.conj(self.forcing(t))
            ext = force if ext is None else ext + force
        if ext is not None:
            rate = rate - self.kinv_d.dot(ext)
        return rate


class _PreparedGammaRate:
    """The rates of a Gamma-stepping tier, prepared once per run from its
    couplings: (psi_ddot, gamma_ddot) on ``full``, (psid, gamma_ddot) on
    ``modified_first_order``, the psi residual and the kinetic inverse of the
    gamma residual (``models.apply_omega_inverse``) in closed form.  With
    A = gamma^{-1} gamma_dot, W = [psi, A psi, psid, A psid] and U = gamma W,

        gamma^{-1} r_psi = c W + c5 A^2 psi - gamma^{-1} (alpha5 chi psi + conj(F)),
        gamma_ddot = gamma_dot A + b gamma + U K U^,

    the scalars and the 4 x 4 matrix K assembled in Python from the Gram
    matrix H = W^ U, Tr A and Tr A^2 (README, "Validation of forms", derives
    it).  psi_ddot is the first line over -alpha2 on ``full``; psid is its
    part without psid over 2i alpha1 on ``modified_first_order``.

    chi is the run's form, constant or a callable of t, resolved on each
    call.  Refused here, once: alpha6 == 0, and alpha2 == 0 on ``full`` or
    alpha2 != 0 and alpha1 == 0 on ``modified_first_order``.  A call inverts
    gamma with the condition test of ``_checked_inverse`` and refuses
    1 + alpha9 theta1 and det M as ``models._ladder_pieces`` does, the
    latter through the same ``models._ladder_weights``.
    """

    __slots__ = ("params", "chi", "first_order", "denom", "fprime", "forcing", "c_a0",
                 "c_atr", "c_aq", "c_a2", "c_psid", "c_apsid", "c_chi", "half6", "r67", "m2a6")

    def __init__(self, params: ModelParams, chi, first_order: bool):
        prm = self.params = params
        self.chi = chi
        self.first_order = first_order
        a1, a2, a6, a7, a9 = prm.alpha1, prm.alpha2, prm.alpha6, prm.alpha7, prm.alpha9
        _kinetic_denominator(a6, 0.0, "alpha6")
        if first_order:
            d = _first_order_denominator(prm)
        elif a2 == 0.0:
            raise ZeroAlpha2("alpha2 == 0: use rhs_modified_first_order")
        else:
            d = -a2
        self.denom = d
        self.fprime = prm.effective_potential.derivative
        self.forcing = prm.forcing
        # the coefficient of A psi in gamma^{-1} r_psi is
        # c_a0 + c_atr Tr(A) + c_aq psi^ gamma_dot psi, each divided by d here
        self.c_a0 = -(prm.alpha3 * a9 + 1.0j * a1) / d
        self.c_atr = -2.0 * a9 * a7 / d
        self.c_aq = -2.0 * (prm.alpha8 + a9 * a9 * (a7 + a6)) / d
        self.c_a2 = -2.0 * a9 * a6 / d                   # of A^2 psi
        self.c_psid, self.c_apsid = -2.0j * a1 / d, a2 / d
        self.c_chi = prm.alpha5 / d                       # of gamma^{-1} chi psi
        self.half6, self.r67, self.m2a6 = 0.5 / a6, a7 / a6, -2.0 * a6

    def __call__(self, psi, gg, t: float, ginv=None):
        """The rates at psi (the (2, n) stack (psi, psid) on ``full``, the
        vector psi on ``modified_first_order``), the (2, n, n) stack (gamma,
        gamma_dot) and t; ``ginv``, when given, is ``_checked_inverse(gamma)``."""
        prm = self.params
        g, gd = gg[0], gg[1]
        n = g.shape[0]
        if ginv is None:
            ginv = _checked_inverse(g)
        a = ginv.dot(gd)                                   # A = gamma^{-1} gamma_dot
        ggt = gg.reshape(2 * n, n).T
        first_order = self.first_order
        if first_order:
            psi0, apsi = psi, a.dot(psi)
            theta, q = (z.real for z in psi.dot(ggt).reshape(2, n).dot(psi.conj()).tolist())
        else:
            psi0, v = psi[0], psi
            ut, w, h = _gram(v, ggt, a, n)
            apsi = w[1]
            theta, q = h[0][0].real, h[0][1].real
        fprime = self.fprime(theta)
        tr_a = sum(a.diagonal().tolist()).real

        # gamma^{-1} r_psi / d, on full with its psid terms
        c0 = (fprime - prm.alpha4) / self.denom
        c_a = self.c_a0 + self.c_atr * tr_a + self.c_aq * q
        if first_order:
            rate = c0 * psi + c_a * apsi
        else:
            rate = np.dot((c0, c_a, self.c_psid, self.c_apsid), w)
        rate += self.c_a2 * a.dot(apsi)
        ext = None
        if self.c_chi != 0.0:
            ext = self.c_chi * resolve_chi(self.chi, t).dot(psi0)
        if self.forcing is not None:
            force = np.conj(np.asarray(self.forcing(t), dtype=complex)) / self.denom
            ext = force if ext is None else ext + force
        if ext is not None:
            rate -= ginv.dot(ext)
        if first_order:
            ut, w, h = _gram(np.array((psi, rate)), ggt, a, n)
        return rate, self._gamma_ddot(g, gd.dot(a), ginv, ut, h, theta, q, fprime, tr_a, n)

    def _gamma_ddot(self, g, geodesic, ginv, ut, h, theta, q, fprime, tr_a, n):
        """gamma_dot A + b gamma + U K U^ from the rows ``ut`` of U, the Gram
        matrix ``h`` as nested lists, ``geodesic`` = gamma_dot A, and theta,
        psi^ gamma_dot psi, f'(theta) and Tr A."""
        prm = self.params
        a1, a2, a9 = prm.alpha1, prm.alpha2, prm.alpha9
        (h00, h01, h02, h03), (h10, h11, h12, _), (h20, h21, h22, _), (h30, *_) = h
        # Tr A^2, as a Python float: the scalar algebra below then stays in
        # Python scalars, each operation far cheaper than on numpy scalars
        tr_a2 = float(np.vdot(ginv, geodesic).real)

        # lam r_gamma lam = -2 alpha6 (gamma_dot A - (alpha7/alpha6) tau gamma + U K' U^)
        x = h21.real                                       # Re psid^ gamma_dot psi
        tau = 2.0 * a9 * x - tr_a2                         # Tr(gamma_dot dP/dt)
        s = 1.0 / _kinetic_denominator(1.0, a9 * theta, "1 + alpha9*theta1")
        c = a9 * s
        c_pp = fprime - prm.alpha4 + 4.0 * prm.alpha8 * x
        c_mix = prm.alpha3 * a9 + 2.0 * prm.alpha8 * q + 2.0 * prm.alpha7 * a9 * (tr_a + a9 * q)
        c01, c10 = c_mix + 1.0j * a1, c_mix - 1.0j * a1
        u = c * h02                                        # c psi^ gamma psid
        ub = u.conjugate()
        half6, r67 = self.half6, self.r67
        k00 = (r67 * tau * c - c * c * (h11.real + a9 * q * q)
               - half6 * (s * s * c_pp - s * (c01 * ub + c10 * u) - a2 * u * ub))
        k01, k10 = a9 * (u + c * q), a9 * (ub + c * q)
        k02, k20 = -half6 * (c01 * s + a2 * u), -half6 * (c10 * s + a2 * ub)
        k22 = half6 * a2
        # K' = [[k00, k01, k02,  -c],
        #       [k10, -a9, -a9,   0],
        #       [k20, -a9, k22,   0],
        #       [ -c,   0,   0,   0]];  Tr(K' H) and (H K' H)[0][0]
        tr_kh = (k00 * h00 + k01 * h10 + k10 * h01 + k02 * h20 + k20 * h02
                 - c * (h30 + h03) - a9 * (h11 + h21 + h12) + k22 * h22)
        hkh = (h00 * (k00 * h00 + k01 * h10 + k02 * h20 - c * h30)
               + h01 * (k10 * h00 - a9 * (h10 + h20)) + h02 * (k20 * h00 - a9 * h10 + k22 * h20)
               - h03 * c * h00)
        # the kinetic inverse's r1 = Tr(lam r_gamma) and r2 = psi^ M psi
        r2 = self.m2a6 * (hkh + h11.real - r67 * tau * theta)
        r1 = self.m2a6 * (tr_kh + tr_a2 - r67 * tau * n) + a9 * r2
        w11, w12, w21, w22 = _ladder_weights(prm, n, theta * s)
        t1, t2 = w11 * r1 + w12 * r2, w21 * r1 + w22 * r2

        # gamma_ddot = -(lam r_gamma lam / alpha6 - t1 lam - t2 phi phi^) / 2, so
        # b = t1 / 2 - (alpha7 / alpha6) tau = -(alpha7 / alpha6) d/dt Tr(P gamma_dot)
        kmat = np.array((k00 + 0.5 * (s * s * t2 - c * t1), k01, k02, -c,
                         k10, -a9, -a9, 0.0,
                         k20, -a9, k22, 0.0,
                         -c, 0.0, 0.0, 0.0), dtype=complex).reshape(4, 4)
        gamma_ddot = ut.T.dot(kmat.dot(ut.conj()))
        gamma_ddot += geodesic
        gamma_ddot += (0.5 * t1 - r67 * tau) * g
        return gamma_ddot


def _gram(v, ggt, a, n: int):
    """(U, W, H) at the stack v = (psi, psid): the rows of U = [gamma psi,
    gamma_dot psi, gamma psid, gamma_dot psid] from ``ggt``, the transposed
    (2n, n) stack of gamma and gamma_dot, W = [psi, A psi, psid, A psid] with
    A = ``a``, and H[j][l] = w_j^ u_l as nested lists."""
    ut = v.dot(ggt).reshape(4, n)
    w = np.concatenate((v, v.dot(a.T)), 1).reshape(4, n)
    return ut, w, w.conj().dot(ut.T).tolist()


def rhs_modified_first_order(psi, gamma, gamma_dot, params: ModelParams, chi,
                             t: float = 0.0):
    """(psid, gamma_ddot) for the alpha2 == 0 modified first-order system.

    psid solves the psi-sector equation, which is affine in psid when
    alpha2 == 0 (equivalently 2i*alpha1 psid = H_eff psi - gamma^{-1} conj(F),
    see :func:`~hermiton.models.effective_hamiltonian`); gamma_ddot is the
    closed form of :class:`_PreparedGammaRate` at that psid.
    """
    psid, gamma_ddot = _PreparedGammaRate(params, chi, first_order=True)(
        np.asarray(psi, dtype=complex), np.array((gamma, gamma_dot), dtype=complex), t)
    return psid, hermitian_part(gamma_ddot)


def rhs_direct_nonlinear_raw(psi, gamma, params: ModelParams, chi_matrix,
                             t: float = 0.0) -> np.ndarray:
    """psid of the velocity-linear psi dynamics on a frozen scalar product,
    with the optional potential and forcing terms, from the psi residual:

        2i*alpha1*Gamma psid = [(f'(theta1) - alpha4) Gamma - alpha5 chi] psi - conj(F).

    A run steps the same equation through its :class:`_PreparedPsiRate`.
    """
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
    degenerate along dilatations); alpha8 psi != 0 can lift that degeneracy.
    A run refuses them once and steps :func:`_geodesic_rate`.
    """
    gamma = _as_complex_matrix(gamma)
    gamma_dot = np.asarray(gamma_dot, dtype=complex)
    _refuse_geodesic_couplings(A, B, gamma.shape[0])
    return _geodesic_rate(gamma, gamma_dot)


def _refuse_geodesic_couplings(A: float, B: float, n: int) -> None:
    """Refuse A and A + n*B of the geodesic tier at n as degenerate."""
    _kinetic_denominator(A, 0.0, "A")
    _kinetic_denominator(A, n * B, "A + n*B")


def _geodesic_rate(g, gd) -> np.ndarray:
    """The Hermitian part of gamma_dot gamma^{-1} gamma_dot, with the bits of
    ``hermitian_part``, at the complex (n, n) arrays gamma and gamma_dot, not
    validated again: one checked inverse and two ``dot`` calls."""
    x = gd.dot(_checked_inverse(g)).dot(gd)
    x += x.conj().T
    x /= 2.0
    return x
