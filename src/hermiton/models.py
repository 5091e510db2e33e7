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
standard n-level Schrodinger dynamics.  These couplings, with one potential
profile and one forcing, are the only description of a model: the linear,
second-order and geodesic submodels are points of this family.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateKinetic
from .hermitian_algebra import (
    COND_TOL,
    _checked_inverse,
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

#: relative central-difference step: h = FD_STEP * max(1, |x|)
FD_STEP = 1e-6


@dataclass(frozen=True)
class PotentialSpec:
    """Scalar potential profile f applied to theta1 = psi^ Gamma psi.

    kind is one of ``none``, ``quartic_pure`` (f(x) = kappa * x**2),
    ``quartic_shifted`` (f(x) = kappa * (x - shift)**2) or ``custom``.
    Custom potentials supply ``f`` and optionally ``f_prime``; a missing
    derivative is replaced by a central difference with step
    ``FD_STEP`` * max(1, |x|).
    """

    kind: str = "none"
    kappa: float = 0.0
    shift: float = 0.0
    f: Optional[Callable[[float], float]] = None
    f_prime: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        if self.kind not in ("none", "quartic_pure", "quartic_shifted", "custom"):
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.kind == "custom" and self.f is None:
            raise ValueError("custom potential needs f")
        for name in ("kappa", "shift"):
            if not np.isfinite(complex(getattr(self, name))):
                raise ValueError(f"potential {name} is not finite")

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
        h = FD_STEP * max(1.0, abs(x))
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
    forcing: Optional[Callable[[float], np.ndarray]] = None
    potential: PotentialSpec = field(default_factory=PotentialSpec)

    def __post_init__(self):
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


def preset(name: str, n: int | None = None, hbar: float = 1.0, tau: float = 1.0) -> ModelParams:
    """Named coupling presets exposed to the CLI.

    ``schrodinger``: alpha1 = hbar/2, alpha5 = -1 (standard dynamics on a
    frozen scalar product).  ``kozlov-heat``: the second-order model with
    alpha1 = hbar, alpha2 = -4*tau*hbar, alpha5 = -2 from the heat-transport
    analogy.  ``killing``: the scalar-product kinetic couplings alpha6 = n,
    alpha7 = -1; note alpha6 + n alpha7 = 0, so the kinetic operator is
    degenerate along dilatations and this preset cannot drive the geodesic
    tier; with alpha8 != 0 added it drives ``full`` and
    ``modified_first_order``.  hbar must be positive.
    """
    if not hbar > 0.0:
        raise ValueError("hbar must be positive")
    if name == "schrodinger":
        return ModelParams(alpha1=hbar / 2.0, alpha5=-1.0)
    if name == "kozlov-heat":
        return ModelParams(alpha1=hbar, alpha2=-4.0 * tau * hbar, alpha5=-2.0)
    if name == "killing":
        if n is None:
            raise ValueError("preset 'killing' needs the dimension n")
        return ModelParams(alpha6=float(n), alpha7=-1.0)
    raise ValueError(f"unknown preset {name!r}")


def resolve_chi(chi, t) -> np.ndarray:
    """Evaluate a possibly time-dependent Hamiltonian form at time t; at an
    array of times a callable chi gives the stack of its values."""
    if callable(chi):
        return _at_times(chi, t)
    return np.asarray(chi, dtype=complex)


def _at_times(fn, t) -> np.ndarray:
    """fn(t) as a complex array; at an array of times, the stack of fn at
    each of them, called with Python floats as for one time."""
    if np.ndim(t) == 0:
        return np.asarray(fn(t), dtype=complex)
    t = np.asarray(t)
    values = [np.asarray(fn(tk), dtype=complex) for tk in t.ravel().tolist()]
    return np.array(values).reshape(*t.shape, *values[0].shape)


@dataclass(frozen=True)
class FullState:
    """Configuration-velocity data (psi, psid, gamma, gamma_dot) at time t."""

    psi: np.ndarray
    psi_dot: np.ndarray
    gamma: np.ndarray
    gamma_dot: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        if np.ndim(self.psi) != 1:
            raise ValueError(f"psi must be a vector, got shape {np.shape(self.psi)}")
        psi, psi_dot, gamma, gamma_dot, _ = _validated_blocks(
            self.psi, self.psi_dot, self.gamma, self.gamma_dot)
        self.__dict__.update(psi=psi, psi_dot=psi_dot, gamma=gamma, gamma_dot=gamma_dot)

    @classmethod
    def _from_validated(cls, psi, psi_dot, gamma, gamma_dot, t) -> "FullState":
        """A state of blocks that :func:`_validated_blocks` returned, built
        without checking them again."""
        state = object.__new__(cls)
        state.__dict__.update(psi=psi, psi_dot=psi_dot, gamma=gamma, gamma_dot=gamma_dot, t=t)
        return state

    @property
    def n(self) -> int:
        return self.psi.size


def _validated_blocks(psi, psi_dot, gamma, gamma_dot) -> tuple:
    """The checks of a FullState, on blocks that may carry leading stack
    axes (psi (..., n), gamma (..., n, n)): finite vectors, finite
    Hermitian forms, an invertible gamma and consistent shapes.

    Returns (psi, psi_dot, gamma, gamma_dot, raw inverse of gamma), the
    forms as their Hermitian parts and the inverse from one stacked call.
    """
    psi = complex_vector(psi)
    psi_dot = complex_vector(psi_dot)
    gamma = hermitian_form(gamma, require_invertible=False)
    ginv = _checked_inverse(gamma)
    gamma_dot = hermitian_form(gamma_dot, require_invertible=False)
    square = psi.shape + psi.shape[-1:]
    if psi_dot.shape != psi.shape or gamma.shape != square or gamma_dot.shape != square:
        raise ValueError("inconsistent dimensions in FullState")
    return psi, psi_dot, gamma, gamma_dot, ginv


def theta1(psi, gamma):
    """The basic invariant psi^ Gamma psi (real for Hermitian gamma).

    A float; psi (..., n) and gamma (..., n, n) with leading stack axes give
    the array of each member's value, with the bits of the one-state call.
    """
    psi = np.asarray(psi, dtype=complex)
    val = _quad(np.conj(psi), np.asarray(gamma, dtype=complex), psi).real
    return float(val) if val.ndim == 0 else val


def _quad(x, m, y):
    """x m y for vectors x, y (..., n) and matrices m (..., n, n), leading
    axes broadcast: a row-vector product, then a dot product, so that each
    member has the bits of ``x @ m @ y`` on one vector."""
    if x.ndim == 1 and y.ndim == 1 and m.ndim == 2:
        return x @ m @ y
    return ((x[..., None, :] @ m) @ y[..., :, None])[..., 0, 0]


def _scalar_mul(a, z) -> np.ndarray:
    """a * z for complex scalars or arrays of them, by the formula of a
    complex scalar product: (ar zr - ai zi) + i (ar zi + ai zr), each part
    rounded after every operation.  An array multiply may fuse these into
    multiply-adds, so this is what gives each stack member the bits of the
    one-state scalar arithmetic; a real a counts as a + 0i, as it does there.
    Two scalars are multiplied as numpy scalars, which use this formula.
    """
    if not (isinstance(a, np.ndarray) or isinstance(z, np.ndarray)):
        return a * z
    a = np.asarray(a, dtype=complex)
    z = np.asarray(z, dtype=complex)
    out = np.empty(np.broadcast_shapes(a.shape, z.shape), dtype=complex)
    out.real = a.real * z.real - a.imag * z.imag
    out.imag = a.real * z.imag + a.imag * z.real
    return out


def _real_value(val, magnitude, tol: float, what: str):
    """The real part of val, a sum of terms; ValueError when
    |Im val| > tol * (the summed magnitudes of the terms).

    The test is relative with no absolute floor: scaling every term by any
    s != 0 keeps the verdict.  ``magnitude()`` bounds the summed magnitudes
    from above, and so |val| from above too: it is called only for a value
    with |Im val| > tol * |val|.  A float for one value, an array for a stack.
    """
    if isinstance(val, np.ndarray):
        suspect = bool(np.any(np.abs(val.imag) > tol * np.abs(val)))
    else:
        val = complex(val)
        suspect = abs(val.imag) > tol * abs(val)
    if suspect:
        scale = magnitude()
        refused = abs(val.imag) > tol * scale
        if np.any(refused):
            k = int(np.argmax(refused))
            raise ValueError(f"{what} acquired an imaginary part {np.ravel(val.imag)[k]:.3e} "
                             f"(terms of magnitude {np.ravel(scale)[k]:.3e})")
    return val.real


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


def _forcing_term(params: ModelParams, psi: np.ndarray, t):
    """2 Re(F(t) psi), per member for stacks psi (..., n) and times t (...)."""
    if params.forcing is None:
        return 0.0
    f = _at_times(params.forcing, t)
    val = 2.0 * np.real((f[..., None, :] @ psi[..., :, None])[..., 0, 0])
    return float(val) if val.ndim == 0 else val


def _potential_value(spec: "PotentialSpec", x):
    """f(x) at theta1 x, or at each member of an array of them.  The
    quartic profile takes the array (the same float operations); another
    profile is called once per member, with a Python float."""
    if not isinstance(x, np.ndarray) or spec.kind in ("none", "quartic_pure"):
        return spec.value(x)
    return np.array([spec.value(v) for v in x.ravel().tolist()]).reshape(x.shape)


def _gamma_kinetic(psi, g, gd, params: ModelParams, ginv=None):
    """The gamma-sector kinetic pieces shared by the Lagrangian and the
    energy, for one state or a stack: (P, Tr(P gd), [alpha6 Tr((P gd)^2),
    alpha7 Tr(P gd)^2, alpha8 (psi^ gd psi)^2]).  ``ginv`` is
    ``invert_form(g)`` when the caller has it."""
    p = p_tensor(psi, g, params.alpha9, ginv)
    pgd = p @ gd
    tr = pgd.trace(axis1=-2, axis2=-1)
    quad = _quad(np.conj(psi), gd, psi)
    return p, tr, [_scalar_mul(params.alpha6, (pgd @ pgd).trace(axis1=-2, axis2=-1)),
                   _scalar_mul(params.alpha7, _scalar_mul(tr, tr)),
                   _scalar_mul(params.alpha8, _scalar_mul(quad, quad))]


def _term_magnitude(params: ModelParams, psi, psid, g, gd, p, potential_form, potential,
                    forcing, linear: bool):
    """A bound on the summed magnitudes of the terms of the energy, or with
    ``linear`` of the Lagrangian (which adds the velocity-linear alpha1 and
    alpha3 terms): each product evaluated on entrywise absolute values.
    ``p`` is P, or None when the gamma-sector kinetic terms are absent."""
    apsi, apsid, ag = np.abs(psi), np.abs(psid), np.abs(g)
    total = (abs(params.alpha2) * _quad(apsid, ag, apsid)
             + _quad(apsi, np.abs(potential_form), apsi) + np.abs(potential) + np.abs(forcing))
    if linear:
        total = total + 2.0 * abs(params.alpha1) * _quad(apsi, ag, apsid)
    if p is not None:
        apgd = np.abs(p) @ np.abs(gd)
        tr = apgd.trace(axis1=-2, axis2=-1)
        total = total + (abs(params.alpha6) * (apgd @ apgd).trace(axis1=-2, axis2=-1)
                         + abs(params.alpha7) * tr ** 2
                         + abs(params.alpha8) * _quad(apsi, np.abs(gd), apsi) ** 2)
        if linear:
            total = total + abs(params.alpha3) * tr
    return total


def _lagrangian_terms(state, params: ModelParams, chi, ginv=None, linear: bool = True):
    """L's terms in L's order of summation, as (velocity degree, value)
    pairs, and the lazy bound of :func:`_term_magnitude`; without ``linear``
    the alpha1 and alpha3 terms are left out of both.  ``state`` and
    ``ginv`` are as in :func:`energy`, whose stacks give each term per member.
    """
    psi, psid = np.asarray(state.psi, dtype=complex), np.asarray(state.psi_dot, dtype=complex)
    g, gd = np.asarray(state.gamma, dtype=complex), np.asarray(state.gamma_dot, dtype=complex)
    chi = resolve_chi(chi, state.t)
    psibar, psidbar = np.conj(psi), np.conj(psid)
    potential_form = params.alpha4 * g + params.alpha5 * chi

    terms = []
    if linear:
        terms.append((1, _scalar_mul(params.alpha1 * 1j,
                                     _quad(psibar, g, psid) - _quad(psidbar, g, psi))))
    terms.append((2, _scalar_mul(params.alpha2, _quad(psidbar, g, psid))))
    terms.append((0, _quad(psibar, potential_form, psi)))
    p = None
    if any((linear and params.alpha3, params.alpha6, params.alpha7, params.alpha8)):
        p, tr, kinetic = _gamma_kinetic(psi, g, gd, params, ginv)
        if linear:
            terms.append((1, _scalar_mul(params.alpha3, tr)))
        terms += [(2, term) for term in kinetic]
    potential = _potential_value(params.effective_potential, theta1(psi, g))
    forcing = _forcing_term(params, psi, state.t)
    terms += [(0, -potential), (0, forcing)]
    return terms, lambda: _term_magnitude(params, psi, psid, g, gd, p, potential_form,
                                          potential, forcing, linear)


def lagrangian_value(state: FullState, params: ModelParams, chi) -> float:
    """Evaluate the total Lagrangian; enforces reality on the diagonal: an
    imaginary part beyond 1e-10 of the terms' magnitudes raises ValueError."""
    terms, magnitude = _lagrangian_terms(state, params, chi)
    val = reduce(operator.add, [term for _, term in terms])
    return _real_value(val, magnitude, 1e-10, "Lagrangian")


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


def apply_omega(psi, gamma, params: ModelParams, x, ginv=None) -> np.ndarray:
    """Contract the kinetic tensor with a covariant Hermitian matrix x,
    returning the contravariant Hermitian result.

    psi (..., n), gamma and x (..., n, n) may carry leading stack axes,
    which broadcast; each member has the bits of the unstacked call.
    ``ginv``, when given, is ``invert_form(gamma)`` computed by the caller.
    """
    psi = np.asarray(psi, dtype=complex)
    x = np.asarray(x, dtype=complex)
    col, row = psi[..., :, None], np.conj(psi)[..., None, :]
    p = p_tensor(psi, gamma, params.alpha9, ginv)
    px = p @ x
    out = params.alpha6 * (px @ p)
    out += (params.alpha7 * np.trace(px, axis1=-2, axis2=-1))[..., None, None] * p
    out += (params.alpha8 * ((row @ x) @ col)) * (col * row)
    return out


def _kinetic_denominator(a, b, label: str):
    """a + b, a denominator of the kinetic inverse, refused with
    DegenerateKinetic when the two terms cancel: |a + b| <= COND_TOL (|a| + |b|).

    The test is relative, so scaling both terms by any s != 0 keeps the
    verdict (the Lagrangians L and sL share their equations of motion); a
    single term (b = 0) is refused only when it is exactly zero.
    """
    total = a + b
    if abs(total) <= COND_TOL * (abs(a) + abs(b)):
        raise DegenerateKinetic(f"{label} = {total:.3e} vanishes relative to its terms: "
                                "the kinetic operator is degenerate")
    return total


def _ladder_pieces(psi, psibar, gamma, params: ModelParams, gpsi, psibar_g, th1):
    """Shared pieces of the closed-form kinetic inverse, a rank-2 Woodbury
    solve (Golub & Van Loan, Matrix Computations, 2.1.4).

    ``gpsi`` is gamma psi, ``psibar_g`` psibar gamma and ``th1`` the complex
    psibar gamma psi.  On the diagonal psibar and psibar_g are conj(psi) and
    conj(gamma psi); the analytic extension of the Hamiltonian passes them as
    independent arguments.  With lam = P^{-1} (gamma minus a rank-one
    update), phi = lam psi, phibar = psibar lam and q = psibar phi,

        X = (lam Y lam - alpha7 t1 lam - alpha8 t2 phi phibar) / alpha6,
        M t = (Tr(lam Y), phibar Y phi),
        M = [[alpha6 + n alpha7, alpha8 q], [alpha7 q, alpha6 + alpha8 q^2]].

    Returns (lam, phi, alpha6, k), k the entries of diag(alpha7, alpha8)
    M^{-1} / alpha6 by Cramer's rule.  Refused: alpha6 == 0, 1 + alpha9 theta1
    by :func:`_kinetic_denominator`, and det M = alpha6 (alpha6 + n alpha7) +
    alpha8 q^2 (alpha6 + (n - 1) alpha7) at or below COND_TOL times the summed
    magnitudes of its four products (at alpha8 q = 0, the rule on alpha6 + n alpha7).
    """
    n = psi.size
    a6, a7, a8, a9 = params.alpha6, params.alpha7, params.alpha8, params.alpha9
    _kinetic_denominator(a6, 0.0, "alpha6")
    den = _kinetic_denominator(1.0, a9 * th1, "1 + alpha9*theta1")
    lam = gamma - (a9 / den * gpsi)[:, None] * psibar_g
    phi = lam @ psi
    q = complex(psibar @ phi)
    d67, w = a6 + n * a7, a8 * q * q
    det = a6 * d67 + w * (a6 + (n - 1) * a7)
    if abs(det) <= COND_TOL * (abs(a6) * (abs(a6) + abs(n * a7))
                               + abs(w) * (abs(a6) + abs((n - 1) * a7))):
        raise DegenerateKinetic(f"|det M| = {abs(det):.3e} vanishes relative to its terms: "
                                "the kinetic operator is degenerate")
    k7, k8 = a7 / a6, a8 / a6
    return lam, phi, a6, (k7 * ((a6 + w) / det), k7 * (-a8 * q / det),
                          k8 * (-a7 * q / det), k8 * (d67 / det))


def _ladder_apply(pieces, y, psibar_lam, scale: float) -> np.ndarray:
    """``scale`` times the kinetic inverse of :func:`_ladder_pieces` applied
    to Y, with ``psibar_lam`` = psibar lam (conj(phi) on the diagonal);
    ``scale`` is folded into the scalar coefficients."""
    lam, phi, a6, (k11, k12, k21, k22) = pieces
    ly = lam @ y
    r1, r2 = ly.trace(), psibar_lam @ y @ phi
    out = (scale / a6) * (ly @ lam) - (scale * (k11 * r1 + k12 * r2)) * lam
    out -= (scale * (k21 * r1 + k22 * r2) * phi)[:, None] * psibar_lam
    return out


def _gamma_psi(psi, gamma):
    """(psi, gamma, gamma psi, psi^ gamma psi) as complex arrays."""
    psi = np.asarray(psi, dtype=complex)
    g = np.asarray(gamma, dtype=complex)
    gpsi = g @ psi
    return psi, g, gpsi, psi.conj() @ gpsi


def _apply_omega_inverse(psi, gamma, params: ModelParams, y, gpsi, th1,
                         scale: float = 1.0) -> np.ndarray:
    """``scale * apply_omega_inverse(psi, gamma, params, y)`` on complex
    arrays, with gamma psi and theta1 supplied by the caller."""
    pieces = _ladder_pieces(psi, psi.conj(), gamma, params, gpsi, gpsi.conj(), th1)
    return _ladder_apply(pieces, np.asarray(y, dtype=complex), pieces[1].conj(), scale)


def apply_omega_inverse(psi, gamma, params: ModelParams, y) -> np.ndarray:
    """Solve Omega(X) = Y for covariant Hermitian X given contravariant Y,
    by the closed form of :func:`_ladder_pieces`; DegenerateKinetic when
    its alpha6, 1 + alpha9 theta1 or det M guard refuses the couplings."""
    psi, g, gpsi, th1 = _gamma_psi(psi, gamma)
    return _apply_omega_inverse(psi, g, params, y, gpsi, th1)


def omega_inverse(psi, gamma, params: ModelParams) -> np.ndarray:
    """Rank-4 inverse kinetic tensor Oi[a, b, c, d].

    Contracting against a contravariant Hermitian Y (stored Y[d, c]) as
    einsum('abcd,dc->ab') undoes :func:`apply_omega`; column (c, d) is the
    closed form of :func:`_ladder_pieces` applied to the unit Y[d, c] = 1,
    and DegenerateKinetic is raised where that closed form refuses.
    """
    psi, g, gpsi, th1 = _gamma_psi(psi, gamma)
    pieces = _ladder_pieces(psi, psi.conj(), g, params, gpsi, gpsi.conj(), th1)
    n = psi.size
    units = np.eye(n * n, dtype=complex).reshape(n, n, n, n)    # units[d, c]: Y[d, c] = 1
    oi = np.empty((n, n, n, n), dtype=complex)
    for c, d in np.ndindex(n, n):
        oi[:, :, c, d] = _ladder_apply(pieces, units[d, c], pieces[1].conj(), 1.0)
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


def energy(state, params: ModelParams, chi, ginv=None):
    """Energy function of the total model: the Legendre contraction
    E = sum_k (d_k - 1) L_k over L's terms L_k of velocity degree d_k.

    ``state`` is a FullState, or an object with the same attributes whose
    blocks carry leading stack axes (psi (..., n), gamma (..., n, n), times
    t (...)); a stack gives the array of its members' energies, each with
    the bits of the one-state call.  ``ginv``, when given, is
    ``invert_form(state.gamma)`` computed by the caller.  An imaginary part
    beyond 1e-9 of the terms' magnitudes raises ValueError.
    """
    terms, magnitude = _lagrangian_terms(state, params, chi, ginv, linear=False)
    val = reduce(operator.add, [term if degree == 2 else -term for degree, term in terms])
    return _real_value(val, magnitude, 1e-9, "energy")


def effective_hamiltonian(state: FullState, params: ModelParams, chi) -> np.ndarray:
    """Generator of the modified first-order psi evolution (alpha2 == 0).

    Returns H_eff with 2i*alpha1 * psid = H_eff psi; under the standard
    normalisation alpha1 = hbar/2, alpha5 = -1 and a frozen gamma with no
    potential this is the plain Hamilton operator gamma^{-1} chi.
    """
    if params.alpha2 != 0.0:
        raise ValueError("effective_hamiltonian applies to the alpha2 == 0 model")
    from .dynamics import _ResidualPieces

    pieces = _ResidualPieces(state.psi, state.gamma, state.gamma_dot, params,
                             invert_form(state.gamma))
    return pieces.effective_hamiltonian(resolve_chi(chi, state.t))
