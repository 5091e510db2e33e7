"""Legendre transformations, Hamiltonians and the Dirac constraint analysis.

The singular (velocity-linear) sector follows the closed forms of the
constrained formalism: primary constraints, unique Lagrange multipliers,
reduced brackets and the real Darboux reduction.  The regular sector
(alpha2 != 0, dynamical gamma) gets the forward/inverse Legendre maps, the
globally defined Hamiltonian and a finite-difference canonical flow used
as a two-path oracle against the Lagrangian equations.  On a frozen gamma
the canonical coordinates of a ``second_order`` run are pi(psi, psi_dot) of
its samples; the canonical flow there is the Lagrangian one pushed through
the Legendre map.

Conjugate variables are never stored: the conjugates of psi, pi and phi
are taken where a formula needs them.  Every matrix inverted here, gamma
and the Darboux chart's Cholesky factor, takes the condition test of
``invert_form``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import (
    _apply_omega_dot,
    _first_order_rate,
    _p_dot,
    _PreparedGammaRate,
    _ResidualPieces,
    rhs_second_order,
)
from .errors import DegenerateKinetic, NotPositiveDefinite, ZeroAlpha2
from .hermitian_algebra import (
    _checked_inverse,
    complex_vector,
    hermitian_form,
    hermitian_part,
    invert_form,
    real_decompose,
)
from .models import (
    FullState,
    ModelParams,
    PotentialSpec,
    _gamma_momentum,
    _ladder_apply,
    _ladder_pieces,
    _psi_momentum,
    _real_value,
    apply_omega,
    apply_omega_inverse,
    p_tensor,
    potential_gradient,
    resolve_chi,
)

__all__ = [
    "PhasePoint",
    "ConstraintValue",
    "DarbouxChart",
    "CanonicalFlow",
    "legendre_singular",
    "primary_constraints",
    "reduced_bracket_flow",
    "dirac_flow",
    "darboux_momentum",
    "darboux_reduce",
    "legendre_regular",
    "legendre_inverse",
    "hamiltonian",
    "hamilton_flow_check",
    "lagrangian_flow_through_legendre",
]


@dataclass(frozen=True)
class PhasePoint:
    """Canonical variables (psi, pi, gamma, pi_gamma) at time t.

    pi is the covariant momentum conjugate to psi (its conjugate partner is
    implied); pi_gamma is the contravariant Hermitian momentum conjugate to
    gamma, or None for frozen-gamma models.
    """

    psi: np.ndarray
    pi: np.ndarray
    gamma: np.ndarray
    pi_gamma: Optional[np.ndarray] = None
    t: float = 0.0

    def __post_init__(self):
        psi = complex_vector(self.psi)
        pi = complex_vector(self.pi)
        gamma = hermitian_form(self.gamma)
        n = psi.size
        if psi.shape != (n,) or pi.shape != (n,) or gamma.shape != (n, n):
            raise ValueError("inconsistent dimensions in PhasePoint")
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "gamma", gamma)
        if self.pi_gamma is not None:
            pg = hermitian_form(self.pi_gamma, require_invertible=False)
            if pg.shape != gamma.shape:
                raise ValueError("pi_gamma has inconsistent shape")
            object.__setattr__(self, "pi_gamma", pg)

    @property
    def n(self) -> int:
        return self.psi.size


@dataclass(frozen=True)
class ConstraintValue:
    """Primary constraint covector phi (the conjugate copy is redundant)."""

    phi: np.ndarray

    def max_violation(self) -> float:
        return float(np.max(np.abs(self.phi)))


def legendre_singular(psi, gamma, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Momenta of the velocity-linear model: pi = i*alpha * psi^ Gamma.

    They are independent of the velocities, so the Legendre map is singular
    and its image is the primary-constraint manifold.
    """
    pi = _psi_momentum(psi, None, gamma, alpha)
    return pi, np.conj(pi)


def primary_constraints(p: PhasePoint, alpha: float) -> ConstraintValue:
    """phi = pi - i*alpha * psi^ Gamma; zero exactly on the singular image."""
    return ConstraintValue(phi=p.pi - _psi_momentum(p.psi, None, p.gamma, alpha))


def reduced_bracket_flow(psi, gamma, chi, alpha: float,
                         spec: PotentialSpec | None = None) -> np.ndarray:
    """psi velocity from the reduced bracket {psi, psi^}_M = Gamma^{-1} / 2i alpha
    applied to the on-shell Hamiltonian gamma_coeff * psi^ chi psi + V with
    gamma_coeff = 2 (the normalisation in which the bracket result is the
    plain nonlinear evolution i*hbar*psid = H psi + Gamma^{-1} dV/d(conj psi) / 2)."""
    psi = np.asarray(psi, dtype=complex)
    grad = (2.0 * np.asarray(chi, dtype=complex)).dot(psi)
    if spec is not None and spec.kind != "none":
        grad = grad + potential_gradient(psi, gamma, spec)
    return invert_form(gamma).dot(grad) / (2.0j * alpha)


def dirac_flow(psi, pi, gamma, params: ModelParams, chi,
               t: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Phase-space vector field of the constrained Hamiltonian of the
    velocity-linear model (alpha2 == 0) on a frozen scalar product.

    With R0 the psi residual at psid = 0, the multipliers of the tangency
    conditions are lambda = Gamma^{-1} R0 / (2i alpha1), the first-order
    flow's psi velocities, and the momentum rate is
    pid = -conj(R0) - i alpha1 conj(lambda) Gamma, so the primary constraint
    phi = pi - i alpha1 psi^ Gamma is exactly invariant in continuous time
    with every coupling, potential and forcing of ``params``.
    """
    s = _ResidualPieces(psi, gamma, None, params)
    r0 = s.psi_residual(resolve_chi(chi, t), t)
    lam = _first_order_rate(params, r0, _checked_inverse(s.g))
    return lam, -np.conj(r0) - _psi_momentum(lam, None, s.g, params.alpha1)


def darboux_momentum(psi, gamma, alpha: float) -> np.ndarray:
    """Constraint-manifold Darboux momentum Pi = 2 i alpha psi^ Gamma,
    twice the singular Legendre momentum restricted to the manifold."""
    return 2.0 * _psi_momentum(psi, None, gamma, alpha)


@dataclass(frozen=True)
class DarbouxChart:
    """Real reduction data of the constrained velocity-linear model.

    The restricted two-form in the real coordinates (x, y) of psi is

        sum form_xy[a,b] dx^a ^ dy^b
        + sum form_xx[a,b] dx^a ^ dx^b + sum form_yy[a,b] dy^a ^ dy^b

    (double sums over all index pairs), and the reduced Hamiltonian is

        sum ham_xx[a,b] x^a x^b + ham_yy[a,b] y^a y^b + ham_xy[a,b] x^a y^b.

    The real Legendre maps read u = legendre_ux x + legendre_uy y and
    v = legendre_vx x + legendre_vy y.  ``chart_matrix``, when present, is
    a basis change C with C^ Gamma C = I / (2 alpha), which brings the form
    to dy ^ dx.
    """

    alpha: float
    S: np.ndarray
    A: np.ndarray
    sigma: np.ndarray
    alpha_mat: np.ndarray
    form_xy: np.ndarray
    form_xx: np.ndarray
    form_yy: np.ndarray
    ham_xx: np.ndarray
    ham_yy: np.ndarray
    ham_xy: np.ndarray
    legendre_ux: np.ndarray
    legendre_uy: np.ndarray
    legendre_vx: np.ndarray
    legendre_vy: np.ndarray
    canonical: bool
    chart_matrix: Optional[np.ndarray] = None

    def form_value(self, ux, uy, vx, vy) -> float:
        """Evaluate the reduced two-form on two tangent vectors (ux, uy), (vx, vy)."""
        val = ux @ self.form_xy @ vy - vx @ self.form_xy @ uy
        val += ux @ self.form_xx @ vx - vx @ self.form_xx @ ux
        val += uy @ self.form_yy @ vy - vy @ self.form_yy @ uy
        return float(val)

    def hamiltonian_value(self, x, y) -> float:
        return float(x @ self.ham_xx @ x + y @ self.ham_yy @ y + x @ self.ham_xy @ y)


def darboux_reduce(gamma, chi, params: ModelParams,
                   require_chart: bool = False) -> DarbouxChart:
    """Real Darboux reduction of the constrained velocity-linear model.

    Splits gamma = S + iA and chi = sigma + i*alpha_mat into real parts,
    emits the restricted two-form, the reduced Hamiltonian and the real
    Legendre maps, with alpha1, alpha4 and alpha5 read from ``params``.  The
    reduced Hamiltonian is the quadratic part psi^ M psi, M = -(alpha4 Gamma
    + alpha5 chi), in psi = (x + iy) / sqrt(2); a potential and a forcing
    enter only the flow.  A canonical chart (basis change making the form
    exactly dy ^ dx) is attempted via a Cholesky factor of sign(alpha)
    gamma, whose inverse takes the condition test of ``invert_form``; if
    gamma / alpha is not positive definite the chart is refused (silently
    unless ``require_chart``).  ``canonical`` is tested relative to
    1 / (2 |alpha|) entrywise at ``tol`` = 1e-10; alpha == 0 is refused.
    """
    alpha = params.alpha1
    if alpha == 0.0:
        raise DegenerateKinetic("alpha1 == 0 leaves no first-order psi dynamics to reduce")
    gamma = hermitian_form(gamma)
    chi = hermitian_form(np.asarray(chi, dtype=complex), require_invertible=False)
    tol = 1e-10
    s, a = real_decompose(gamma)
    sigma, alpha_mat = real_decompose(chi)
    m = -params.alpha4 * gamma - params.alpha5 * chi
    n = gamma.shape[0]

    form_xy = -2.0 * alpha * s
    form_xx = -alpha * a
    form_yy = -alpha * a
    ham_xx = 0.5 * m.real
    ham_yy = 0.5 * m.real
    ham_xy = -m.imag
    legendre_ux = alpha * a
    legendre_uy = alpha * s
    legendre_vx = -alpha * s
    legendre_vy = alpha * a

    canonical = bool(np.max(np.abs((a, s - np.eye(n) / (2.0 * alpha))))
                     <= tol / (2.0 * abs(alpha)))

    # C^ gamma C = I / (2 alpha) needs gamma / alpha positive definite: C is
    # L^{-^} / sqrt(2 |alpha|) with L L^ = sign(alpha) gamma
    chart = None
    try:
        low = np.linalg.cholesky(gamma if alpha > 0.0 else -gamma)
    except np.linalg.LinAlgError:
        if require_chart:
            raise NotPositiveDefinite(
                "canonical chart requested, but Gamma / alpha1 is not positive definite")
    else:
        chart = _checked_inverse(low.conj().T) / np.sqrt(2.0 * abs(alpha))

    return DarbouxChart(
        alpha=alpha, S=s, A=a, sigma=sigma,
        alpha_mat=alpha_mat, form_xy=form_xy, form_xx=form_xx, form_yy=form_yy,
        ham_xx=ham_xx, ham_yy=ham_yy, ham_xy=ham_xy,
        legendre_ux=legendre_ux, legendre_uy=legendre_uy,
        legendre_vx=legendre_vx, legendre_vy=legendre_vy,
        canonical=canonical, chart_matrix=chart)


def legendre_regular(state: FullState, params: ModelParams) -> PhasePoint:
    """Forward Legendre map of the total model."""
    psi, g = state.psi, state.gamma
    pi = _psi_momentum(psi, state.psi_dot, g, params.alpha1, params.alpha2)
    pi_gamma = _gamma_momentum(psi, g, state.gamma_dot, params)
    return PhasePoint(psi=psi, pi=pi, gamma=g,
                      pi_gamma=hermitian_part(pi_gamma), t=state.t)


def _psi_velocity(psi, pi, ginv, params: ModelParams) -> np.ndarray:
    """psid = gamma^{-1} conj(pi) / alpha2 + (i alpha1 / alpha2) psi, the
    psi sector of the inverse Legendre map, with ``ginv`` = gamma^{-1}."""
    return ginv.dot(np.conj(pi)) / params.alpha2 + (1j * params.alpha1 / params.alpha2) * psi


def legendre_inverse(p: PhasePoint, params: ModelParams,
                     ginv=None) -> tuple[np.ndarray, np.ndarray]:
    """Velocities (psid, gamma_dot) from a phase point; exact inverse of
    :func:`legendre_regular`.  ``ginv``, when given, is
    ``invert_form(p.gamma)`` computed by the caller."""
    if params.alpha2 == 0.0:
        raise ZeroAlpha2("the psi-sector Legendre map is singular for alpha2 == 0")
    if p.pi_gamma is None:
        raise ValueError("phase point has no gamma-sector momentum")
    if ginv is None:
        ginv = invert_form(p.gamma)
    psid = _psi_velocity(p.psi, p.pi, ginv, params)
    y = p.pi_gamma - params.alpha3 * p_tensor(p.psi, p.gamma, params.alpha9, ginv)
    gamma_dot = 0.5 * apply_omega_inverse(p.psi, p.gamma, params, y)
    return psid, hermitian_part(gamma_dot)


def _hamiltonian_ext(psi, psibar, pi, pibar, gamma, pi_gamma, params: ModelParams,
                     chi_matrix, t: float, ginv=None):
    """Hamiltonian on the analytic extension: psi/pi and their bars are
    treated as independent arguments and no entry of gamma or pi_gamma is
    conjugated, so the value is analytic in every variable separately.
    Restricted to the diagonal (bars equal to conjugates, Hermitian
    matrices) it is real.  ``ginv``, when given, is the caller's raw
    inverse ``_checked_inverse(gamma)``.

    Returns the complex value and a lazy bound on the summed magnitudes of
    its terms, each evaluated on entrywise absolute values."""
    a1, a2 = params.alpha1, params.alpha2
    if a2 == 0.0:
        raise ZeroAlpha2("the regular Hamiltonian needs alpha2 != 0")
    g = np.asarray(gamma, dtype=complex)
    if ginv is None:
        ginv = _checked_inverse(g)
    theta1c = psibar.dot(g).dot(psi)
    c4 = params.alpha4 - a1 * a1 / a2
    potential = params.effective_potential.value(theta1c)

    val = pi.dot(ginv).dot(pibar) / a2
    val += (a1 / a2) * 1j * (pi.dot(psi) - psibar.dot(pibar))
    val -= c4 * theta1c + params.alpha5 * psibar.dot(chi_matrix).dot(psi)
    val += potential
    f = None
    if params.forcing is not None:
        f = np.asarray(params.forcing(t), dtype=complex)
        val -= f.dot(psi) + np.conj(f).dot(psibar)

    y = x = None
    if pi_gamma is not None:
        p_full = ginv + params.alpha9 * np.outer(psi, psibar)
        y = np.asarray(pi_gamma, dtype=complex) - params.alpha3 * p_full
        pieces = _ladder_pieces(psi, psibar, g, params, g.dot(psi), psibar.dot(g), theta1c)
        x = _ladder_apply(pieces, y, psibar.dot(pieces[0]))
        val += 0.25 * np.trace(y.dot(x))

    def magnitude() -> float:
        apsi, apsibar, api, apibar = (np.abs(v) for v in (psi, psibar, pi, pibar))
        total = (api.dot(np.abs(ginv)).dot(apibar) / abs(a2)
                 + abs(a1 / a2) * (api.dot(apsi) + apsibar.dot(apibar))
                 + apsibar.dot(abs(c4) * np.abs(g)
                               + abs(params.alpha5) * np.abs(chi_matrix)).dot(apsi)
                 + abs(potential))
        if f is not None:
            total += np.abs(f).dot(apsi + apsibar)
        if x is not None:
            total += 0.25 * np.trace(np.abs(y).dot(np.abs(x)))
        return float(total)

    return complex(val), magnitude


def hamiltonian(p: PhasePoint, params: ModelParams, chi) -> float:
    """Globally defined Hamiltonian of the regular model (alpha2 != 0).

    For frozen-gamma phase points (pi_gamma None) the gamma-sector terms
    are absent.  Equals the energy pulled back through the inverse
    Legendre map.  An imaginary part beyond 1e-9 of the terms' magnitudes
    raises ValueError, at any common scale of the terms.
    """
    chi_m = resolve_chi(chi, p.t)
    val, magnitude = _hamiltonian_ext(p.psi, np.conj(p.psi), p.pi, np.conj(p.pi),
                                      p.gamma, p.pi_gamma, params, chi_m, p.t)
    return _real_value(val, magnitude, 1e-9, "Hamiltonian")


@dataclass(frozen=True)
class CanonicalFlow:
    psi_dot: np.ndarray
    pi_dot: np.ndarray
    gamma_dot: Optional[np.ndarray]
    pi_gamma_dot: Optional[np.ndarray]


#: relative central-difference step: h = FD_STEP * max(1, |x|)
FD_STEP = 1e-6


def hamilton_flow_check(p: PhasePoint, params: ModelParams, chi) -> CanonicalFlow:
    """Canonical flow by central differences of the Hamiltonian, with step
    ``FD_STEP`` * max(1, |x|) in each entry x.

    This is an oracle, not a production integrator: every partial
    derivative is taken on the analytic extension, where single-entry
    perturbations of psi, pi, gamma and pi_gamma are legitimate.  One
    inverse of gamma serves every evaluation that leaves gamma in place; a
    moved gamma entry is inverted on its own.
    """
    chi_m = resolve_chi(chi, p.t)
    args = {"psi": p.psi, "psibar": np.conj(p.psi), "pi": p.pi, "pibar": np.conj(p.pi),
            "gamma": p.gamma, "pi_gamma": p.pi_gamma}
    ginv = _checked_inverse(p.gamma)

    def partial(name: str, index) -> complex:
        """dH/dx at the entry x = args[name][index], by a central difference."""
        h = FD_STEP * max(1.0, abs(args[name][index]))
        values = []
        for step in (h, -h):
            moved = args[name].copy()
            moved[index] += step
            values.append(_hamiltonian_ext(**{**args, name: moved}, params=params,
                                           chi_matrix=chi_m, t=p.t,
                                           ginv=None if name == "gamma" else ginv)[0])
        return (values[0] - values[1]) / (2.0 * h)

    n = p.n
    psi_dot = np.array([partial("pi", a) for a in range(n)])
    pi_dot = -np.array([partial("psi", a) for a in range(n)])
    gamma_dot = pi_gamma_dot = None
    if p.pi_gamma is not None:
        gamma_dot = np.array([[partial("pi_gamma", (b, a)) for b in range(n)]
                              for a in range(n)])
        pi_gamma_dot = -np.array([[partial("gamma", (a, b)) for a in range(n)]
                                  for b in range(n)])
    return CanonicalFlow(psi_dot=psi_dot, pi_dot=pi_dot,
                         gamma_dot=gamma_dot, pi_gamma_dot=pi_gamma_dot)


def lagrangian_flow_through_legendre(p: PhasePoint, params: ModelParams,
                                     chi) -> CanonicalFlow:
    """Lagrangian flow pushed through the differential of the Legendre map.

    Velocities come from the inverse Legendre map, accelerations from the
    explicit equations of motion, and the momentum rates from
    differentiating the forward map in time: pi_dot by the product rule on
    the bilinear momentum kernel.  With a dynamical gamma every
    step shares one raw inverse of gamma and its Hermitian part.
    """
    chi_m = resolve_chi(chi, p.t)
    psi, g = p.psi, p.gamma
    if p.pi_gamma is not None:
        raw_inv = _checked_inverse(g)
        ginv = hermitian_part(raw_inv)
        psid, gd = legendre_inverse(p, params, ginv)
        psi_ddot, gamma_ddot = _PreparedGammaRate(params, chi_m, first_order=False)(
            np.array((psi, psid), dtype=complex), np.array((g, gd), dtype=complex), p.t,
            ginv=raw_inv)
        gamma_ddot = hermitian_part(gamma_ddot)
        pi_dot = (_psi_momentum(psid, psi_ddot, g, params.alpha1, params.alpha2)
                  + _psi_momentum(psi, psid, gd, params.alpha1, params.alpha2))
        pdot = _p_dot(psi, psid, ginv, gd, params.alpha9)
        pi_gamma_dot = params.alpha3 * pdot \
            + 2.0 * _apply_omega_dot(psi, psid, ginv, gd, params, gd) \
            + 2.0 * apply_omega(psi, g, params, gamma_ddot, ginv)
        return CanonicalFlow(psi_dot=psid, pi_dot=pi_dot, gamma_dot=gd,
                             pi_gamma_dot=pi_gamma_dot)

    # frozen-gamma second-order sector
    if params.alpha2 == 0.0:
        raise ZeroAlpha2("the psi-sector Legendre map is singular for alpha2 == 0")
    psid = _psi_velocity(psi, p.pi, invert_form(g), params)
    state = FullState(psi=psi, psi_dot=psid, gamma=g, gamma_dot=np.zeros_like(g), t=p.t)
    psi_ddot = rhs_second_order(state, chi_m, params)
    pi_dot = _psi_momentum(psid, psi_ddot, g, params.alpha1, params.alpha2)
    return CanonicalFlow(psi_dot=psid, pi_dot=pi_dot, gamma_dot=None, pi_gamma_dot=None)
