"""Exception hierarchy for hermiton.

Every failure mode of the library maps to one of these classes so that the
CLI can translate them into stable exit codes and messages.
"""


class HermitonError(Exception):
    """Base class for all hermiton errors."""


class NotHermitian(HermitonError):
    """A matrix that must be Hermitian is not, beyond tolerance."""


class SingularForm(HermitonError):
    """A form required to be invertible is exactly singular, or its
    reciprocal condition estimate 1 / (n max|F_ij| max|(F^-1)_ij|) is not
    above ``hermitian_algebra.COND_TOL``."""


class NonFinite(HermitonError):
    """A computation produced NaN or Inf entries."""


class DegenerateKinetic(HermitonError):
    """The quadratic kinetic operator on Hermitian matrices is degenerate:
    a denominator a + b of its closed-form inverse (alpha6, alpha6 + n alpha7,
    1 + alpha9 theta1, 1 + alpha8 theta2; A and A + n B on the geodesic tier)
    cancels, |a + b| <= ``hermitian_algebra.COND_TOL`` (|a| + |b|).  The rule
    is relative, so scaling every coupling gives the same verdict."""


class ZeroBeta(HermitonError):
    """Second-order dynamics requested with vanishing acceleration coupling."""


class ZeroAlpha2(HermitonError):
    """Full second-order model requested with alpha2 == 0; use the modified
    first-order system instead."""


class NotGHermitian(HermitonError):
    """Generator of an exponential scalar-product solution is not admissible
    (the contracted form is not Hermitian)."""


class SingularOperator(HermitonError):
    """The vectorized kinetic operator cannot be inverted numerically."""


class NotPositiveDefinite(HermitonError):
    """A Hermitian form required to be positive definite is indefinite, e.g.
    when a canonical (Darboux) chart is requested for it."""


class WrongSymmetryClass(HermitonError):
    """A charge generator is neither Hermitian nor antihermitian."""


class SingularTransform(HermitonError):
    """A basis transformation matrix is not invertible."""


class StepFailure(HermitonError):
    """Time stepping failed mid-run.  Carries the reason (the message without
    its time suffix) and the last good time."""

    def __init__(self, message: str, last_good_t: float):
        super().__init__(f"{message} (last good t = {last_good_t:.6g})")
        self.reason = message
        self.last_good_t = last_good_t


class NoOracleForTier(HermitonError):
    """No exact solution is available for the requested model tier."""


class ScenarioError(HermitonError):
    """A scenario file failed validation."""
