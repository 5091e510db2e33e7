"""Exception hierarchy for hermiton.

Every failure mode of the library maps to one of these classes so that the
CLI can translate them into stable exit codes and messages.  Conditions on
the couplings are stated in the couplings alpha1 ... alpha9 of
``models.ModelParams``, the one description of a model.
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
    its closed-form inverse refuses alpha6 == 0, 1 + alpha9 theta1 and the
    2 x 2 determinant det M by relative rules (``models._ladder_pieces``,
    whose rules the closed form of the Gamma-stepping tiers applies too),
    and the geodesic tier alpha6 and alpha6 + n alpha7.  Scaling every coupling
    keeps the verdict.  Also raised for alpha1 == 0 on a first-order psi
    flow or Darboux reduction."""


class ZeroAlpha2(HermitonError):
    """Second-order psi dynamics, or a regular Legendre map or Hamiltonian,
    requested with alpha2 == 0: the acceleration coupling vanishes.  The
    full model then has the modified first-order system instead."""


class SingularOperator(HermitonError):
    """The vectorized kinetic operator is singular or fails the condition
    test of ``SingularForm``; raised only by the oracle
    ``oracles.omega_inverse_numeric``."""


class NotPositiveDefinite(HermitonError):
    """A Hermitian form required to be positive definite is indefinite, e.g.
    when a canonical (Darboux) chart is requested for it."""


class WrongSymmetryClass(HermitonError):
    """A charge generator is neither Hermitian nor antihermitian."""


class SingularTransform(HermitonError):
    """A basis transformation matrix is singular or fails the condition test
    of ``SingularForm``."""


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
