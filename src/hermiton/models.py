"""The parametrised Lagrangian family for the coupled (psi, gamma) system.

The most general model implemented here reads, in matrix form,

    L = alpha1*i*(psi^ Gamma psid - psid^ Gamma psi) + alpha2 * psid^ Gamma psid
      + psi^ (alpha4*Gamma + alpha5*chi) psi
      + alpha3 * Tr(P Gd)
      + alpha6 * Tr((P Gd)^2) + alpha7 * Tr(P Gd)^2 + alpha8 * (psi^ Gd psi)^2
      + F(t) psi + conj(F(t) psi)
      - f(theta1)

with P = Gamma^{-1} + alpha9 * psi psi^, Gd = d(Gamma)/dt, theta1 = psi^ Gamma psi,
``^`` denoting conjugate transposition and f the scalar potential profile.
Setting alpha1 = hbar/2, alpha5 = -1 and everything else to zero recovers the
standard n-level Schrodinger dynamics; the legacy couplings of the linear and
geodesic submodels map as alpha1=alpha, alpha2=beta, alpha5=-gamma,
alpha6=A/2, alpha7=B/2.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateKinetic
from .hermitian_algebra import (
    complex_vector,
    hermitian_form,
    invert_form,
)

__all__ = [
    "PotentialSpec",
    "ModelParams",
    "FullState",
    "preset",
    "resolve_chi",
    "theta1",
    "p_tensor",
    "lagrangian_value",
    "omega_tensor",
    "apply_omega",
    "omega_inverse",
    "apply_omega_inverse",
    "potential_gradient",
    "energy",
    "effective_hamiltonian",
]

#: guard below which a denominator of the closed-form kinetic inverse is
#: treated as vanished
DENOM_GUARD = 1e-10


@dataclass(frozen=True)
class PotentialSpec:
    """Scalar potential profile f applied to theta1 = psi^ Gamma psi.

    kind is one of ``none``, ``quartic_pure`` (f(x) = kappa * x**2),
    ``quartic_shifted`` (f(x) = kappa * (x - shift)**2) or ``custom``.
    Custom potentials supply ``f`` and optionally ``f_prime``; a missing
    derivative is replaced by a central difference with step
    fd_step * max(1, |x|).
    """

    kind: str = "none"
    kappa: float = 0.0
    shift: float = 0.0
    f: Optional[Callable[[float], float]] = None
    f_prime: Optional[Callable[[float], float]] = None
    fd_step: float = 1e-6

    def __post_init__(self):
        if self.kind not in ("none", "quartic_pure", "quartic_shifted", "custom"):
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.kind == "custom" and self.f is None:
            raise ValueError("custom potential needs f")

    def value(self, x):
        """f(x); a complex x evaluates the analytic extension."""
        if self.kind == "none":
            return 0.0
        if self.kind == "quartic_pure":
            return self.kappa * x * x
        if self.kind == "quartic_shifted":
            return self.kappa * (x - self.shift) ** 2
        return self.f(x)

    def derivative(self, x: float) -> float:
        if self.kind == "none":
            return 0.0
        if self.kind == "quartic_pure":
            return 2.0 * self.kappa * x
        if self.kind == "quartic_shifted":
            return 2.0 * self.kappa * (x - self.shift)
        if self.f_prime is not None:
            return float(self.f_prime(x))
        h = self.fd_step * max(1.0, abs(x))
        return (self.value(x + h) - self.value(x - h)) / (2.0 * h)


@dataclass(frozen=True)
class ModelParams:
    """Coupling constants of the total Lagrangian.

    Couplings are real in production models (reality of L requires it for
    Hermitian building blocks); complex values are tolerated only for
    algebraic identity tests.  ``kappa`` is shorthand for the quartic
    profile f(x) = kappa x**2 and must not be combined with an explicit
    ``potential``.  ``forcing``, when given, is a callable t -> complex
    covector F_a(t) acting on the psi sector only.
    """

    alpha1: float = 0.0
    alpha2: float = 0.0
    alpha3: float = 0.0
    alpha4: float = 0.0
    alpha5: float = 0.0
    alpha6: float = 0.0
    alpha7: float = 0.0
    alpha8: float = 0.0
    alpha9: float = 0.0
    kappa: float = 0.0
    hbar: float = 1.0
    forcing: Optional[Callable[[float], np.ndarray]] = None
    potential: PotentialSpec = field(default_factory=PotentialSpec)

    def __post_init__(self):
        if not (self.hbar > 0.0):
            raise ValueError("hbar must be positive")
        for name in ("alpha1", "alpha2", "alpha3", "alpha4", "alpha5",
                     "alpha6", "alpha7", "alpha8", "alpha9", "kappa"):
            if not np.all(np.isfinite(complex(getattr(self, name)))):
                raise ValueError(f"coupling {name} is not finite")
        if self.kappa != 0.0 and self.potential.kind != "none":
            raise ValueError("give either kappa or an explicit potential, not both")

    @cached_property
    def effective_potential(self) -> PotentialSpec:
        if self.potential.kind != "none":
            return self.potential
        if self.kappa != 0.0:
            return PotentialSpec(kind="quartic_pure", kappa=self.kappa)
        return self.potential

    # legacy aliases of the linear / geodesic submodels
    @property
    def alpha(self) -> float:
        return self.alpha1

    @property
    def beta(self) -> float:
        return self.alpha2

    @property
    def gamma_coeff(self) -> float:
        return -self.alpha5

    @property
    def big_a(self) -> float:
        return 2.0 * self.alpha6

    @property
    def big_b(self) -> float:
        return 2.0 * self.alpha7

    @classmethod
    def from_legacy(cls, alpha=0.0, beta=0.0, gamma=0.0, A=0.0, B=0.0, **kwargs):
        return cls(alpha1=alpha, alpha2=beta, alpha5=-gamma,
                   alpha6=A / 2.0, alpha7=B / 2.0, **kwargs)

    def with_(self, **kwargs) -> "ModelParams":
        return replace(self, **kwargs)


def preset(name: str, n: int | None = None, hbar: float = 1.0, tau: float = 1.0) -> ModelParams:
    """Named coupling presets exposed to the CLI.

    ``schrodinger``: alpha1 = hbar/2, alpha5 = -1 (standard dynamics on a
    frozen scalar product).  ``kozlov-heat``: the second-order model with
    alpha = hbar, beta = -4*tau*hbar, gamma = 2 from the heat-transport
    analogy.  ``killing``: the scalar-product kinetic couplings A = 2n,
    B = -2; note A + nB = 0, so the kinetic operator is degenerate along
    dilatations and this preset cannot drive the geodesic tier.
    """
    if name == "schrodinger":
        return ModelParams(alpha1=hbar / 2.0, alpha5=-1.0, hbar=hbar)
    if name == "kozlov-heat":
        return ModelParams.from_legacy(alpha=hbar, beta=-4.0 * tau * hbar, gamma=2.0, hbar=hbar)
    if name == "killing":
        if n is None:
            raise ValueError("preset 'killing' needs the dimension n")
        return ModelParams.from_legacy(A=2.0 * n, B=-2.0, hbar=hbar)
    raise ValueError(f"unknown preset {name!r}")


def resolve_chi(chi, t: float) -> np.ndarray:
    """Evaluate a possibly time-dependent Hamiltonian form at time t."""
    if callable(chi):
        chi = chi(t)
    return np.asarray(chi, dtype=complex)


@dataclass(frozen=True)
class FullState:
    """Configuration-velocity data (psi, psid, gamma, gamma_dot) at time t."""

    psi: np.ndarray
    psi_dot: np.ndarray
    gamma: np.ndarray
    gamma_dot: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        psi = complex_vector(self.psi)
        psi_dot = complex_vector(self.psi_dot)
        gamma = hermitian_form(self.gamma)
        gamma_dot = hermitian_form(self.gamma_dot, require_invertible=False)
        n = psi.size
        if psi_dot.size != n or gamma.shape != (n, n) or gamma_dot.shape != (n, n):
            raise ValueError("inconsistent dimensions in FullState")
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "psi_dot", psi_dot)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "gamma_dot", gamma_dot)

    @property
    def n(self) -> int:
        return self.psi.size


def theta1(psi, gamma) -> float:
    """The basic invariant psi^ Gamma psi (real for Hermitian gamma)."""
    psi = np.asarray(psi, dtype=complex)
    val = np.conj(psi) @ np.asarray(gamma, dtype=complex) @ psi
    return float(val.real)


def p_tensor(psi, gamma, alpha9: float, ginv=None) -> np.ndarray:
    """P = gamma^{-1} + alpha9 * psi psi^ (contravariant Hermitian).

    psi (..., n) and gamma (..., n, n) may carry leading stack axes, which
    broadcast and give a stack of P.  ``ginv``, when given, is
    ``invert_form(gamma)`` computed by the caller.
    """
    psi = np.asarray(psi, dtype=complex)
    if ginv is None:
        ginv = invert_form(gamma)
    return ginv + alpha9 * (psi[..., :, None] * np.conj(psi)[..., None, :])


def _forcing_term(params: ModelParams, psi: np.ndarray, t: float) -> float:
    if params.forcing is None:
        return 0.0
    f = np.asarray(params.forcing(t), dtype=complex)
    return float(2.0 * np.real(f @ psi))


def lagrangian_value(state: FullState, params: ModelParams, chi) -> float:
    """Evaluate the total Lagrangian; enforces reality on the diagonal."""
    psi, psid = state.psi, state.psi_dot
    g, gd = state.gamma, state.gamma_dot
    chi = resolve_chi(chi, state.t)
    psibar = np.conj(psi)
    psidbar = np.conj(psid)

    val = params.alpha1 * 1j * (psibar @ g @ psid - psidbar @ g @ psi)
    val += params.alpha2 * (psidbar @ g @ psid)
    val += psibar @ (params.alpha4 * g + params.alpha5 * chi) @ psi

    if any((params.alpha3, params.alpha6, params.alpha7, params.alpha8)):
        p = p_tensor(psi, g, params.alpha9)
        pgd = p @ gd
        val += params.alpha3 * np.trace(pgd)
        val += params.alpha6 * np.trace(pgd @ pgd)
        val += params.alpha7 * np.trace(pgd) ** 2
        val += params.alpha8 * (psibar @ gd @ psi) ** 2

    val -= params.effective_potential.value(theta1(psi, g))
    val += _forcing_term(params, psi, state.t)

    val = complex(val)
    if abs(val.imag) > 1e-10 * max(abs(val), 1.0):
        raise ValueError(f"Lagrangian acquired an imaginary part {val.imag:.3e}")
    return val.real


def omega_tensor(psi, gamma, params: ModelParams) -> np.ndarray:
    """Rank-4 kinetic tensor of the gamma sector.

    Stored as O[d, c, b, a] with the two covariant slots contracting
    against gamma_dot entries gd[a, b] and gd[c, d]; satisfies the
    pair-exchange symmetry O[d,c,b,a] == O[b,a,d,c] by construction.
    """
    psi = np.asarray(psi, dtype=complex)
    p = p_tensor(psi, gamma, params.alpha9)
    rank1 = np.outer(psi, np.conj(psi))
    o = params.alpha6 * np.einsum("da,bc->dcba", p, p)
    o += params.alpha7 * np.einsum("ba,dc->dcba", p, p)
    o += params.alpha8 * np.einsum("da,bc->dcba", rank1, rank1)
    return o


def apply_omega(psi, gamma, params: ModelParams, x) -> np.ndarray:
    """Contract the kinetic tensor with a covariant Hermitian matrix x,
    returning the contravariant Hermitian result.

    psi (..., n), gamma and x (..., n, n) may carry leading stack axes,
    which broadcast; each member has the bits of the unstacked call.
    """
    psi = np.asarray(psi, dtype=complex)
    x = np.asarray(x, dtype=complex)
    col, row = psi[..., :, None], np.conj(psi)[..., None, :]
    p = p_tensor(psi, gamma, params.alpha9)
    px = p @ x
    out = params.alpha6 * (px @ p)
    out += (params.alpha7 * np.trace(px, axis1=-2, axis2=-1))[..., None, None] * p
    out += (params.alpha8 * ((row @ x) @ col)) * (col * row)
    return out


def _ladder_pieces(psi, psibar, gamma, params: ModelParams, gpsi, psibar_g, th1):
    """Shared pieces of the closed-form kinetic inverse.

    ``gpsi`` is gamma psi, ``psibar_g`` is psibar gamma and ``th1`` the
    complex psibar gamma psi, as the caller has them.  On the diagonal
    psibar and psibar_g are conj(psi) and conj(gamma psi); the analytic
    extension of the Hamiltonian passes them as independent arguments.
    Returns (lam, c7, lam_psi, q, s8) so that the inverse acts on a
    contravariant Y as

        (1/alpha6) lam Y lam - c7 Tr(lam Y) lam - s8 Tr(u Y) u

    with lam the inverse of P (gamma minus a rank-one update), lam_psi =
    lam psi, q = psibar lam psi, u = (1/alpha6) lam_psi psibar lam - c7 q lam
    the image of psi psibar under the alpha6/7 block inverse, and s8 the
    rank-one correction weight of the alpha8 term.
    """
    n = psi.size
    a6, a7, a8, a9 = params.alpha6, params.alpha7, params.alpha8, params.alpha9
    if abs(a6) <= DENOM_GUARD:
        raise DegenerateKinetic(f"alpha6 = {a6:.3e} vanished")
    if abs(a6 + n * a7) <= DENOM_GUARD:
        raise DegenerateKinetic(f"alpha6 + n*alpha7 = {a6 + n * a7:.3e} vanished")
    den = 1.0 + a9 * th1
    if abs(den) <= DENOM_GUARD:
        raise DegenerateKinetic(f"1 + alpha9*theta1 = {den:.3e} vanished")
    lam = gamma - (a9 / den * gpsi)[:, None] * psibar_g
    c7 = a7 / (a6 * (a6 + n * a7))

    ratio = th1 / den
    theta2 = (a6 + (n - 1) * a7) / (a6 * (a6 + n * a7)) * ratio ** 2
    den8 = 1.0 + a8 * theta2
    if abs(den8) <= DENOM_GUARD:
        raise DegenerateKinetic(f"1 + alpha8*theta2 = {den8:.3e} vanished")
    s8 = a8 / den8

    lam_psi = lam @ psi
    return lam, c7, lam_psi, psibar @ lam_psi, s8


def _ladder_apply(pieces, a6: float, y, psibar_lam, scale: float) -> np.ndarray:
    """``scale`` times the kinetic inverse of :func:`_ladder_pieces` applied
    to Y, with ``psibar_lam`` = psibar lam (conj(lam_psi) on the diagonal);
    ``scale`` is folded into the scalar coefficients.  u is not formed:
    Tr(u Y) comes from Tr(lam Y) and psibar lam Y lam_psi, and s8 Tr(u Y) u is
    split into its lam and lam_psi psibar lam parts."""
    lam, c7, lam_psi, q, s8 = pieces
    ly = lam @ y
    tr_ly = ly.trace()
    tr_uy = (psibar_lam @ y @ lam_psi) / a6 - c7 * q * tr_ly
    out = (scale / a6) * (ly @ lam) - (scale * c7 * (tr_ly - s8 * q * tr_uy)) * lam
    out -= (scale * s8 * tr_uy / a6 * lam_psi)[:, None] * psibar_lam
    return out


def _gamma_psi(psi, gamma):
    """(psi, gamma, gamma psi, psi^ gamma psi) as complex arrays."""
    psi = np.asarray(psi, dtype=complex)
    g = np.asarray(gamma, dtype=complex)
    gpsi = g @ psi
    return psi, g, gpsi, psi.conj() @ gpsi


def _apply_omega_inverse(psi, gamma, params: ModelParams, y, gpsi, th1,
                         scale: float = 1.0, fallback: bool = True) -> np.ndarray:
    """``scale * apply_omega_inverse(psi, gamma, params, y)`` on complex
    arrays, with gamma psi and theta1 supplied by the caller."""
    y = np.asarray(y, dtype=complex)
    try:
        pieces = _ladder_pieces(psi, psi.conj(), gamma, params, gpsi, gpsi.conj(), th1)
    except DegenerateKinetic:
        # omega_inverse raises again or applies the fallback
        oi = omega_inverse(psi, gamma, params, fallback)
        return scale * np.einsum("abcd,dc->ab", oi, y)
    return _ladder_apply(pieces, params.alpha6, y, pieces[2].conj(), scale)


def apply_omega_inverse(psi, gamma, params: ModelParams, y, fallback: bool = True) -> np.ndarray:
    """Solve Omega(X) = Y for covariant Hermitian X given contravariant Y.

    Uses the closed-form ladder; if a denominator vanishes and ``fallback``
    is set, delegates to the brute-force vectorized solve.
    """
    psi, g, gpsi, th1 = _gamma_psi(psi, gamma)
    return _apply_omega_inverse(psi, g, params, y, gpsi, th1, fallback=fallback)


def omega_inverse(psi, gamma, params: ModelParams, fallback: bool = True) -> np.ndarray:
    """Rank-4 inverse kinetic tensor Oi[a, b, c, d].

    Contracting against a contravariant Hermitian Y (stored Y[d, c]) as
    einsum('abcd,dc->ab') undoes :func:`apply_omega`.  Raises
    DegenerateKinetic when a denominator of the closed form vanishes and
    ``fallback`` is disabled; with the fallback enabled the brute-force
    vectorized solve is attempted first (and may still raise
    SingularOperator for genuinely degenerate couplings).
    """
    psi_c, g, gpsi, th1 = _gamma_psi(psi, gamma)
    try:
        lam, c7, lam_psi, q, s8 = _ladder_pieces(psi_c, psi_c.conj(), g, params, gpsi,
                                                 gpsi.conj(), th1)
    except DegenerateKinetic:
        if not fallback:
            raise
        from .oracles import omega_inverse_numeric

        return omega_inverse_numeric(psi, gamma, params)
    a6 = params.alpha6
    u = (lam_psi / a6)[:, None] * lam_psi.conj() - (c7 * q) * lam
    oi = (1.0 / a6) * np.einsum("ad,cb->abcd", lam, lam)
    oi -= c7 * np.einsum("ab,cd->abcd", lam, lam)
    oi -= s8 * np.einsum("ab,cd->abcd", u, u)
    return oi


def potential_gradient(psi, gamma, spec: PotentialSpec) -> np.ndarray:
    """Covariant gradient dV/d(conj psi) = f'(theta1) * Gamma psi.

    The gradient with respect to psi itself is the complex conjugate.
    """
    psi = np.asarray(psi, dtype=complex)
    g = np.asarray(gamma, dtype=complex)
    if spec.kind == "none":
        return np.zeros_like(psi)
    return spec.derivative(theta1(psi, g)) * (g @ psi)


def energy(state: FullState, params: ModelParams, chi) -> float:
    """Energy function of the total model (velocity Legendre contraction minus L)."""
    psi, psid = state.psi, state.psi_dot
    g, gd = state.gamma, state.gamma_dot
    chi = resolve_chi(chi, state.t)
    psibar = np.conj(psi)

    val = params.alpha2 * (np.conj(psid) @ g @ psid)
    val -= psibar @ (params.alpha4 * g + params.alpha5 * chi) @ psi
    if any((params.alpha6, params.alpha7, params.alpha8)):
        p = p_tensor(psi, g, params.alpha9)
        pgd = p @ gd
        val += params.alpha6 * np.trace(pgd @ pgd)
        val += params.alpha7 * np.trace(pgd) ** 2
        val += params.alpha8 * (psibar @ gd @ psi) ** 2
    val += params.effective_potential.value(theta1(psi, g))
    val -= _forcing_term(params, psi, state.t)

    val = complex(val)
    if abs(val.imag) > 1e-9 * max(abs(val), 1.0):
        raise ValueError(f"energy acquired an imaginary part {val.imag:.3e}")
    return val.real


def _heff_raw(psi, g, gd, params: ModelParams, chi_matrix, ginv=None) -> np.ndarray:
    """Effective Hamilton operator on raw arrays (chi already resolved);
    ``ginv``, when given, is ``invert_form(g)`` computed by the caller."""
    psi = np.asarray(psi, dtype=complex)
    n = psi.size
    if ginv is None:
        ginv = invert_form(g)
    h = ginv @ np.asarray(chi_matrix, dtype=complex)
    gigd = ginv @ np.asarray(gd, dtype=complex)
    p = p_tensor(psi, g, params.alpha9, ginv)
    fprime = params.effective_potential.derivative(theta1(psi, g))

    heff = -params.alpha5 * h
    heff += (fprime - params.alpha4) * np.eye(n, dtype=complex)
    heff -= (1j * params.alpha1 + params.alpha3 * params.alpha9) * gigd
    heff -= 2.0 * params.alpha8 * (np.conj(psi) @ gd @ psi) * gigd
    heff -= 2.0 * params.alpha9 * (
        params.alpha6 * (gigd @ p @ gd) + params.alpha7 * np.trace(p @ gd) * gigd
    )
    return heff


def effective_hamiltonian(state: FullState, params: ModelParams, chi) -> np.ndarray:
    """Generator of the modified first-order psi evolution (alpha2 == 0).

    Returns H_eff with 2i*alpha1 * psid = H_eff psi; under the standard
    normalisation alpha1 = hbar/2, alpha5 = -1 and a frozen gamma with no
    potential this is the plain Hamilton operator gamma^{-1} chi.
    """
    if params.alpha2 != 0.0:
        raise ValueError("effective_hamiltonian applies to the alpha2 == 0 model")
    return _heff_raw(state.psi, state.gamma, state.gamma_dot, params,
                     resolve_chi(chi, state.t))
