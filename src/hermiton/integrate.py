"""Time-stepping engines and trajectory recording for all model tiers.

Every tier steps a subset of the same blocks psi, psi_dot, gamma and
gamma_dot, listed in ``STEPPED_BLOCKS`` in storage order, flattened into
one real vector y: numpy's real view of the complex blocks (real and
imaginary parts interleaved), concatenated in that order.  The other blocks
stay frozen (gamma at its initial value, the rest at zero).  Each run builds
one rate closure for its tier, ``_System.rates``, which returns f(t, y)
from the tier's kernel, prepared once per run (see ``_rate_closure``): a
``dynamics._PreparedPsiRate`` on the frozen-gamma tiers,
``dynamics._geodesic_rate`` on ``gamma_geodesic`` and a
``dynamics._PreparedGammaRate`` on ``full`` and ``modified_first_order``.
``_System.deriv`` hands f to the steppers.

gamma and gamma_dot are stepped as complex matrices (2 n^2 reals each).
With ``resymmetrize_gamma=True``, ``deriv`` replaces the gamma acceleration
of f(t, y) with its Hermitian part, and the hermiticity defect of the raw
acceleration is recorded at sample times (the "pre-projection" drift).
gamma - gamma^dag = 0 is then a linear invariant, which Runge-Kutta methods
keep, so the stepped gamma and gamma_dot stay Hermitian entry for entry.
(The midpoint's Newton matrix does not commute with conjugate
transposition, but the anti-Hermitian part of a correction lies far below
the state's round-off.)  Without it f is stepped as it is, and the
hermiticity drift of the state itself is recorded.

Recording is stacked.  ``record`` only buffers a sample's (t, y).  When the
run ends, the codec unpacks the (S, N) stack of samples, and one set of
stacked calls runs the FullState checks on every sample (finite entries,
hermiticity, one stacked checked inverse of gamma) and computes energy from
that inverse, theta1 and the hermiticity drift, with the bits of the
one-state calls.  A sample that needs f(t, y) (psi_dot of a first-order
tier, or the raw acceleration of a resymmetrized gamma) gets it from one
rate call in ``finish``, sample by sample in order, and the codec unpacks
their (S, N) stack too: the recorder does not depend on the stepper's
calls.  An invalid sample raises its own error, naming it, ahead of any
later step failure.

Stepping methods (``IntegratorConfig.method``):

* ``rk4``: classical Runge-Kutta, 4 RHS evaluations per step.
* ``rk45_adaptive``: Dormand-Prince 5(4) with a PI step-size controller.
  The last stage of an accepted step is the first stage of the next one
  ("first same as last") and a rejected step keeps its first stage, so a
  run makes 6 RHS evaluations per attempted step, plus one.  Every
  attempted step counts toward ``max_steps``, and a step size below 4 ulps
  of max(|t|, |t_end|) raises StepFailure instead of creeping on.  The run
  ends at the first accepted t within max(1e-14 (t_end - t0), 4 ulps of
  max(|t0|, |t_end|)) of t_end, and records it, whatever the sample stride.
* ``implicit_midpoint``: simplified Newton on the midpoint slope, started
  from the polynomial through the slopes of the last six steps (fewer at
  the start of a run), extrapolated to the new midpoint.
  M = I - (dt/2) J is inverted once per run, with J taken by forward
  differences at (t0, y0) at a cost of N + 1 RHS calls for N = len(y),
  when the run takes at least N + 1 steps; a shorter run keeps M = I, the
  plain fixed-point iteration.  The iteration stops once the stage error
  estimated from the contraction of successive corrections, eta res with
  eta = theta / (1 - theta), is at most ``_STAGE_KAPPA`` = 0.01 of the
  stage's relative scale, or once the last correction is inside that scale
  (Hairer & Wanner, Solving ODEs II, IV.8); a step's first sweep takes
  eta from the step before.  See ``_implicit_midpoint_step``.

A fixed-step run whose step count exceeds ``max_steps`` (or overflows a
float) fails before it takes a step.  The explicit steppers take each stage
and output sum into one fresh array with the operations and their order of
the textbook expressions, so the sums keep their bits; nothing is written
into y or into a slope the caller keeps.  RK4 sums its four slopes in
place; Dormand-Prince keeps its seven slopes as the rows of one (7, N)
array, and a sum is the tableau row, as a column, times those rows, one
reduce down the stack and the scaling and y + in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    _PreparedGammaRate,
    _PreparedPsiRate,
    _geodesic_rate,
    _refuse_geodesic_couplings,
)
from .errors import DegenerateKinetic, HermitonError, NonFinite, StepFailure
from .hermitian_algebra import hermitian_part, hermiticity_drift
# no rate path calls the Hermitian codec; perfbench/tracing.py (its TARGETS)
# rebinds these names here to count the calls that would
from .hermitian_algebra import hermitian_to_real, real_to_hermitian  # noqa: F401
from .models import (
    FullState,
    ModelParams,
    _Blocks,
    _validated_blocks,
    energy,
    resolve_chi,
    theta1,
)

__all__ = ["IntegratorConfig", "Trajectory", "integrate"]

# The rate closures call each prepared kernel through one of these names, so
# that perfbench/tracing.py (its TARGETS) can span every RHS call by
# rebinding the name here: the frozen-gamma psi rates, the geodesic rate and
# the Gamma-stepping rates, called as name(prepared, blocks..., t) or, for
# the geodesic rate, name(gamma, gamma_dot).
rhs_direct_nonlinear_raw = rhs_second_order = _PreparedPsiRate.__call__
rhs_gamma_geodesic = _geodesic_rate
_full_accelerations_raw = _modified_first_order_raw = _PreparedGammaRate.__call__

#: blocks each tier steps, in storage order.  The others are frozen: gamma
#: at its initial value, every other block at zero, except that psi_dot of a
#: first-order tier is recomputed from psi at each recorded sample.
STEPPED_BLOCKS = {
    "schrodinger": ("psi",),
    "second_order": ("psi", "psi_dot"),
    "direct_nonlinear": ("psi",),
    "gamma_geodesic": ("gamma", "gamma_dot"),
    "full": ("psi", "psi_dot", "gamma", "gamma_dot"),
    "modified_first_order": ("psi", "gamma", "gamma_dot"),
}
MODEL_TIERS = tuple(STEPPED_BLOCKS)
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float
    t_end: float
    t_start: float = 0.0
    method: str = "rk4"
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    resymmetrize_gamma: bool = False
    sample_stride: int = 1
    max_steps: int = 10_000_000

    def __post_init__(self):
        if self.method not in ("rk4", "rk45_adaptive", "implicit_midpoint"):
            raise ValueError(f"unknown method {self.method!r}")
        for name in ("dt", "t_start", "t_end", "rel_tol", "abs_tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not self.t_end > self.t_start:
            raise ValueError("t_end must exceed t_start")
        if not math.isfinite(self.t_end - self.t_start):
            raise ValueError(f"t_end - t_start must be finite, got {self.t_end - self.t_start}")
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.rel_tol < _EPS:
            # below round-off, a step's error estimate is rounding noise
            raise ValueError(f"rel_tol must be at least the float64 epsilon {_EPS:.3e}, "
                             f"got {self.rel_tol:.3e}")
        if self.sample_stride < 1:
            raise ValueError("sample_stride must be >= 1")


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: list
    diagnostics: list

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if len(self.states) != times.size or len(self.diagnostics) != times.size:
            raise ValueError("state/diagnostic count must match time count")
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", times)

    @property
    def final_state(self):
        return self.states[-1]

    def series(self, key: str) -> np.ndarray:
        return np.array([d[key] for d in self.diagnostics])


class _Codec:
    """Layout of the flat real state vector y of one tier: the real view of
    the complex blocks, in stepped order.  Blocks of one shape are adjacent
    in y, so psi and psi_dot are one (2, n) array and gamma and gamma_dot
    one (2, n, n) array, as the Gamma-stepping kernels take them and the
    rate closures read them.  The codec packs the initial vector and unpacks
    the recorded (S, N) stacks of y and of f(t, y).
    """

    def __init__(self, stepped, n: int):
        self.n, self.stepped = n, stepped
        vectors = sum(block in ("psi", "psi_dot") for block in stepped)
        self.groups = []   # (span in y's complex view, blocks, shape of one block)
        offset = 0
        for count, shape in ((vectors, (n,)), (len(stepped) - vectors, (n, n))):
            if count:
                size = count * n ** len(shape)
                self.groups.append((slice(offset, offset + size), count, shape))
                offset += size

    def unpack(self, y) -> dict:
        """The stepped blocks stored in y (..., N), by name, with y's leading
        axes: read-only views of y, which must be C-contiguous."""
        lead = y.shape[:-1]
        z = y.view(complex)
        z.setflags(write=False)
        blocks = []
        for span, count, shape in self.groups:
            group = z[..., span].reshape(lead + (count,) + shape)
            blocks += [group[(..., j) + (slice(None),) * len(shape)] for j in range(count)]
        return dict(zip(self.stepped, blocks))

    def pack(self, blocks) -> np.ndarray:
        """A new vector holding the stepped blocks, given in stepped order:
        one concatenate, viewed as reals."""
        return np.concatenate(blocks, axis=None, dtype=complex).view(float)


def _rate_closure(tier: str, n: int, gamma, params: ModelParams, chi, gamma_tilde):
    """The run's rate closure ``rates(t, y)``: f(t, y), a new real vector in
    y's layout, from the tier's prepared kernel, called through its
    module-level name with the stage's blocks and t and nothing else.  Its
    gamma_dot block is the kernel's raw gamma acceleration; ``_System.deriv``
    projects it when the run resymmetrizes gamma.

    A closure reads y through shapes fixed here, as one ``view(complex)``
    of y, reshaped and marked read-only, so a kernel that writes into its
    input raises.  It packs f with one concatenate: the rate of psi on
    ``second_order`` and ``full`` is y's own psi_dot, and the rate of gamma
    is y's own gamma_dot.  A frozen first-order tier's rate is the real view
    of the kernel's new array.

    ``gamma`` is the frozen form of the tiers that do not step it; their
    kernel is a psi rate prepared here.  The geodesic tier's couplings are
    refused here, before the run steps, naming the tier, and its kernel
    takes only gamma and gamma_dot.  The Gamma-stepping kernels are a gamma
    rate prepared here and take the (2, n, n) stack (gamma, gamma_dot) and
    the (2, n) stack (psi, psi_dot) on ``full``.  chi is resolved here, once,
    when it is constant."""
    if not callable(chi):
        chi = resolve_chi(chi, 0.0)
    if tier in ("schrodinger", "direct_nonlinear"):
        psi_rate = _PreparedPsiRate(gamma, params, chi, second_order=False)

        def rates(t, y):
            psi = y.view(complex)
            psi.setflags(write=False)
            return rhs_direct_nonlinear_raw(psi_rate, psi, None, t).view(float)
    elif tier == "second_order":
        psi_rate = _PreparedPsiRate(gamma, params, chi, second_order=True, kinetic=gamma_tilde)

        def rates(t, y):
            v = y.view(complex).reshape(2, n)
            v.setflags(write=False)
            return np.concatenate((v[1], rhs_second_order(psi_rate, v[0], v[1], t))).view(float)
    elif tier == "gamma_geodesic":
        try:
            _refuse_geodesic_couplings(2.0 * params.alpha6, 2.0 * params.alpha7, n)
        except DegenerateKinetic as exc:
            raise DegenerateKinetic(f"[{tier}] {exc}") from None

        def rates(t, y):
            gg = y.view(complex).reshape(2, n, n)
            gg.setflags(write=False)
            return np.concatenate((gg[1], rhs_gamma_geodesic(gg[0], gg[1])),
                                  axis=None).view(float)
    elif tier == "full":
        gamma_rate = _PreparedGammaRate(params, chi, first_order=False)

        def rates(t, y):
            z = y.view(complex)
            z.setflags(write=False)
            v, gg = z[:2 * n].reshape(2, n), z[2 * n:].reshape(2, n, n)
            acc_psi, acc_g = _full_accelerations_raw(gamma_rate, v, gg, t)
            return np.concatenate((v[1], acc_psi, gg[1], acc_g), axis=None).view(float)
    else:
        gamma_rate = _PreparedGammaRate(params, chi, first_order=True)

        def rates(t, y):
            z = y.view(complex)
            z.setflags(write=False)
            psi, gg = z[:n], z[n:].reshape(2, n, n)
            psid, acc_g = _modified_first_order_raw(gamma_rate, psi, gg, t)
            return np.concatenate((psid, gg[1], acc_g), axis=None).view(float)
    return rates


def _sample_error(tier: str, k: int, t: float, exc: Exception) -> Exception:
    """``exc``, raised while recording sample k at time t, as an error of the
    same class whose message names the sample."""
    try:
        return type(exc)(f"[{tier}] sample {k} at t = {t:.6g}: {exc}")
    except TypeError:            # a class that takes other arguments
        return exc


class _System:
    """Flattened-vector view of one model tier, and the recorder of its
    samples.

    ``rates`` is the run's rate closure f(t, y) (see :func:`_rate_closure`)
    and ``deriv`` the steppers' right-hand side: f itself, except that on
    ``full`` and ``modified_first_order`` with ``resymmetrize_gamma`` it
    replaces f's gamma_dot block, stored last, with its Hermitian part, in
    place, the one place the key acts on stepping (``gamma_geodesic``'s rate
    is exactly Hermitian).  ``record`` only buffers a sample's (t, y);
    ``finish`` turns the buffer into (times, states, diagnostics) with one
    set of stacked calls and empties it.  A sample that needs f(t, y)
    (psi_dot of a first-order tier; the raw acceleration, for the
    pre-projection drift) gets it from one ``rates`` call in ``finish``, the
    call a stage makes, read through the codec that reads y.
    """

    def __init__(self, initial, tier: str, cfg: IntegratorConfig, params: ModelParams,
                 chi, gamma_tilde):
        n = initial.n
        self.tier, self.params, self.chi = tier, params, chi
        self.stepped = stepped = STEPPED_BLOCKS[tier]
        self.codec = _Codec(stepped, n)
        zero_v = np.zeros(n, dtype=complex)
        zero_v.setflags(write=False)         # shared by every recorded state
        self.frozen = {"psi": zero_v, "psi_dot": zero_v, "gamma": initial.gamma,
                       "gamma_dot": np.zeros((n, n), dtype=complex)}
        self.rates = _rate_closure(tier, n, initial.gamma, params, chi, gamma_tilde)
        self.first_order = "psi" in stepped and "psi_dot" not in stepped
        self.resymmetrize = cfg.resymmetrize_gamma
        self.projects = self.resymmetrize and tier in ("full", "modified_first_order")
        self.needs_rates = self.first_order or ("gamma" in stepped and self.resymmetrize)
        self.times, self.ys = [], []
        self.t0 = initial.t
        self.y0 = self.codec.pack([getattr(initial, block) for block in stepped])

    def blocks(self, y) -> dict:
        """Every block of y (..., N) by name, the frozen ones broadcast to
        y's leading axes."""
        lead = y.shape[:-1]
        b = {name: np.broadcast_to(block, (*lead, *block.shape))
             for name, block in self.frozen.items()}
        b.update(self.codec.unpack(y))
        return b

    def deriv(self, t, y):
        rate = self.rates(t, y)
        if self.projects:            # gamma_dot's rate: the last n^2 complex entries
            n = self.codec.n
            acc = rate.view(complex)[-n * n:].reshape(n, n)
            acc += acc.conj().T      # hermitian_part's (F + F^dag) / 2, bit for bit, in place
            acc /= 2.0
        return rate

    def record(self, t, y):
        self.times.append(t)
        self.ys.append(y)

    def finish(self) -> tuple:
        """(times, states, diagnostics) of the buffered samples.  An error
        names its sample, and comes after the samples before it are
        recorded, as if each had been recorded when it was taken."""
        times, ys = self.times, self.ys
        self.times, self.ys = [], []
        rates, failure = [], None
        for k in range(len(times) if self.needs_rates else 0):
            try:
                rates.append(self.rates(times[k], ys[k]))
            except Exception as exc:
                failure = _sample_error(self.tier, k, times[k], exc)
                times, ys = times[:k], ys[:k]
                break
        rates = self.codec.unpack(np.array(rates)) if rates else None
        states, diags = self._states(times, np.array(ys), rates) if times else ([], [])
        if failure is not None:
            raise failure
        return times, states, diags

    def _states(self, times, y, rates) -> tuple:
        """Validated FullStates and diagnostics of samples y (S, N) with their rates."""
        b = self.blocks(y)
        count = len(times)
        if self.first_order:
            b["psi_dot"] = rates["psi"]
        if "gamma" not in self.stepped:
            drift = [0.0] * count
        elif self.resymmetrize:
            drift = hermiticity_drift(rates["gamma_dot"])
        else:
            drift = hermiticity_drift(b["gamma"])
        gamma, gamma_dot = hermitian_part(b["gamma"]), hermitian_part(b["gamma_dot"])
        try:
            psi, psi_dot, gamma, gamma_dot, inv = _validated_blocks(b["psi"], b["psi_dot"],
                                                                    gamma, gamma_dot)
            energies = energy(_Blocks(psi, psi_dot, gamma, gamma_dot, np.array(times)),
                              self.params, self.chi, ginv=hermitian_part(inv))
        except (HermitonError, ValueError):
            # the first sample that fails, with the error its own state gives
            for k, t in enumerate(times):
                try:
                    energy(FullState(psi=b["psi"][k], psi_dot=b["psi_dot"][k],
                                     gamma=gamma[k], gamma_dot=gamma_dot[k], t=t),
                           self.params, self.chi)
                except (HermitonError, ValueError) as exc:
                    raise _sample_error(self.tier, k, t, exc) from exc
            raise
        # theta1 stays the literal 0.0 without psi: theta1(0, gamma) may be -0.0
        theta = theta1(b["psi"], gamma) if "psi" in self.stepped else [0.0] * count
        states = [FullState._from_validated(*blocks, t) for *blocks, t
                  in zip(psi, psi_dot, gamma, gamma_dot, times)]
        diags = [{"t": t, "energy": e, "theta1": th, "herm_drift": d} for t, e, th, d
                 in zip(times, np.asarray(energies).tolist(), np.asarray(theta).tolist(),
                        np.asarray(drift).tolist())]
        return states, diags


def _build_system(initial, tier: str, cfg: IntegratorConfig, params: ModelParams,
                  chi, gamma_tilde=None) -> _System:
    if tier not in MODEL_TIERS:
        raise ValueError(f"unknown model tier {tier!r}; choose from {MODEL_TIERS}")
    return _System(initial, tier, cfg, params, chi, gamma_tilde)


def _rk4_step(f, t, y, dt):
    k1 = f(t, y)
    k2 = f(t + dt / 2.0, y + (dt / 2.0) * k1)
    k3 = f(t + dt / 2.0, y + (dt / 2.0) * k2)
    k4 = f(t + dt, y + dt * k3)
    # y + (dt / 6) (k1 + 2 k2 + 2 k3 + k4), summed in place in that order
    s = k1 + 2.0 * k2
    s += 2.0 * k3
    s += k4
    s *= dt / 6.0
    return np.add(y, s, out=s)


# Dormand-Prince 5(4) tableau; the nodes are Python floats, so a stage time
# is one too
_DP_C = [0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0]
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])
#: the tableau rows of the six stage sums, then of y5 and y4, as columns:
#: the weights of the slopes stacked (i, N)
_DP_COLUMNS = [np.array(row)[:, None] for row in (*_DP_A[1:], _DP_B5, _DP_B4)]


def _dp_step(f, t, y, dt, k1=None):
    """One Dormand-Prince 5(4) step: ``(y5, y5 - y4, k1, k7)``.

    ``k1`` is f(t, y) when the caller has it (computed here otherwise) and
    is returned for a retry after a rejection.  The last stage is evaluated
    at (t + dt, y5), so ``k7`` is the next step's ``k1`` once this step is
    accepted ("first same as last"): a step costs 6 RHS evaluations, and the
    first one 7.  The slopes are the rows of one (7, N) array.
    """
    if k1 is None:
        k1 = f(t, y)
    k = np.empty((7, y.size))
    k[0] = k1
    for i in range(1, 7):
        k[i] = f(t + _DP_C[i] * dt, _dp_sum(y, dt, _DP_COLUMNS[i - 1], k[:i]))
    y5 = _dp_sum(y, dt, _DP_COLUMNS[6], k)
    y4 = _dp_sum(y, dt, _DP_COLUMNS[7], k)
    return y5, y5 - y4, k1, k[6]


def _dp_sum(y, dt, column, k) -> np.ndarray:
    """y + dt * sum(c * kk for c, kk in zip(column, k)) for the stacked
    slopes k (i, N), with the operations of that expression in its order: the
    products, then one reduce down the stack from sum's leading 0 + (which
    maps -0.0 to 0.0), then dt * and y + in place."""
    s = np.add.reduce(column * k, axis=0, initial=0.0)
    s *= dt
    return np.add(y, s, out=s)


#: the midpoint stage stops once its estimated error eta res is at most this
#: fraction of its scale
_STAGE_KAPPA = 0.01


def _implicit_midpoint_step(f, t, y, dt, k_guess=None, m_inv=None, eta=1.0, tol=1e-12,
                            max_iter=50):
    """One implicit midpoint step: ``(y_next, k, eta)`` with y_next = y + dt*k
    and k = f(t + dt/2, (y + y_next)/2), solved by simplified Newton on k:
    k <- k + M^{-1} (f(t + dt/2, y + (dt/2) k) - k), with ``m_inv`` the
    inverse of M = I - (dt/2) J from :func:`_stage_inverse`.  Without it
    M = I, the plain fixed-point iteration.

    The iteration starts from ``k_guess`` (explicit Euler, f(t, y), when it
    is None), which it updates in place and returns as k, so a caller
    passes an array that it does not keep.  Each sweep's correction moves
    y_next by res_j = dt max|dk|, and ``scale`` is ``tol`` relative to
    max(|y|, |dt k_guess|), with no absolute floor, so a run scaled by a
    power of two takes the same iterates.  From the second sweep on, the
    contraction rate is estimated as theta = res_j / res_{j-1} and the
    stage error left after the correction as eta res_j, with
    eta = theta / (1 - theta) (Hairer & Wanner, Solving ODEs II, IV.8); the
    first sweep takes ``eta`` from the caller, the previous step's estimate.  The iteration stops once
    eta res_j <= ``_STAGE_KAPPA`` scale, or once res_j <= scale, the test
    that stands alone when no contraction is seen (theta >= 1).  On the
    Newton side theta is about (dt/2)|J(y) - J(y0)|, far below 1, so the
    error stays far inside ``tol`` and adds up to no secular drift of the
    quadratic invariants the rule conserves; with M = I it is (dt/2)|J|.
    A correction larger than the one before it is halved, that iteration
    only.  A non-finite correction raises NonFinite at once; a stage that
    has not converged after ``max_iter`` sweeps raises StepFailure with the
    last correction.  The returned ``eta`` is the one of the last sweep.
    """
    t_mid, half = t + dt / 2.0, dt / 2.0
    k = f(t, y) if k_guess is None else k_guess
    scale = tol * max(float(np.abs(y).max()), dt * float(np.abs(k).max()))
    bound, prev_res = _STAGE_KAPPA * scale, math.inf
    for _ in range(max_iter):
        stage = half * k
        stage += y
        dk = f(t_mid, stage)
        dk -= k
        if m_inv is not None:
            dk = m_inv.dot(dk)
        res = dt * float(np.abs(dk).max())
        if not math.isfinite(res):
            raise NonFinite("implicit midpoint stage became non-finite")
        if prev_res < math.inf:
            theta = res / prev_res
            eta = theta / (1.0 - theta) if theta < 1.0 else math.inf
        stop = res <= scale or eta * res <= bound
        if res > prev_res and not stop:
            dk *= 0.5
        k += dk
        if stop:
            y_next = dt * k
            y_next += y
            return y_next, k, eta
        prev_res = res
    raise StepFailure(f"implicit midpoint stage iteration did not converge in {max_iter} "
                      f"sweeps (last residual {res:.3e})", last_good_t=t)


#: forward-difference step of the stage Jacobian relative to max|y0|:
#: sqrt(eps), a power of two, so a state scaled by a power of two takes the
#: same J
_FD_STEP = 2.0 ** -26


def _stage_inverse(f, t, y, dt):
    """``(M^{-1}, f(t, y))`` for simplified Newton on the midpoint stage:
    M = I - (dt/2) J, with J = df/dy at (t, y) by forward differences,
    N + 1 calls of f for N = len(y), the first of them at (t, y) itself.
    A non-finite J raises NonFinite, a singular M StepFailure.

    M is the one matrix the package inverts without the condition test of
    ``invert_form``: a stiff stage's M is badly scaled but solvable (a
    second-order run with chi = diag(+-1e300) gives an M whose estimate
    reads 3.1e-302), and M^{-1} only preconditions the stage iteration,
    whose residual decides convergence."""
    f0 = f(t, y)
    h = _FD_STEP * (float(np.max(np.abs(y))) or 1.0)
    jac = (np.array([f(t, probe) for probe in y + h * np.eye(y.size)]) - f0).T / h
    if not np.all(np.isfinite(jac)):
        raise NonFinite("implicit midpoint stage Jacobian is non-finite")
    try:
        # inverted in complex arithmetic: every run already loads the complex
        # LAPACK kernels, and the real ones would add 0.25 MB of peak memory
        m_inv = np.linalg.inv((np.eye(y.size) - (dt / 2.0) * jac).astype(complex))
    except np.linalg.LinAlgError:
        raise StepFailure("implicit midpoint Newton matrix I - (dt/2) J is singular",
                          last_good_t=t) from None
    return np.ascontiguousarray(m_inv.real), f0


#: the midpoint stage's guess is the polynomial through this many slopes
_PREDICTOR_DEPTH = 6
#: row q - 1: the weights of the last q midpoint slopes, oldest first, in
#: the polynomial through them extrapolated to the next midpoint, which lies
#: one step past the newest: (-1)^(q-1-j) C(q, j) for slope j, right-aligned
#: on the stack of the last six slopes, so the older rows take weight 0
_PREDICTOR = np.array([[0.0] * (_PREDICTOR_DEPTH - q)
                       + [(-1.0) ** (q - 1 - j) * math.comb(q, j) for j in range(q)]
                       for q in range(1, _PREDICTOR_DEPTH + 1)])


def _warm_started_midpoint(n_steps: int):
    """Implicit midpoint stepper for a run of ``n_steps`` steps.  Each stage
    iteration starts from the polynomial through the last q <= 6 midpoint
    slopes, extrapolated to the new midpoint: exact, up to rounding, when
    the slope is a polynomial of degree below q in t.  The slopes are the
    rows of one (6, N) array, newest last, and the guess is one product of
    the row of ``_PREDICTOR`` for q with them.  The first step builds the
    run's Newton matrix when N + 1 <= ``n_steps`` for N = len(y), so J
    costs at most one RHS call per step, and starts its stage from J's base
    call f(t0, y0); a shorter run iterates with M = I.  Each stage's first
    sweep takes max(eta, eps)^0.8 from the eta the step before it ended
    with (1 on the first step), so a step whose first correction is already
    inside the bound makes one rate call, and the estimate grows until a
    second sweep measures it again."""
    slopes, count, m_inv, eta = None, 0, None, 1.0

    def step(f, t, y, dt):
        nonlocal slopes, count, m_inv, eta
        if count:
            guess = _PREDICTOR[count - 1] @ slopes
        else:
            slopes = np.zeros((_PREDICTOR_DEPTH, y.size))   # rows weighed 0 hold 0
            m_inv, guess = _stage_inverse(f, t, y, dt) if y.size < n_steps else (None, None)
        y_next, k, eta = _implicit_midpoint_step(f, t, y, dt, guess, m_inv,
                                                 max(eta, _EPS) ** 0.8)
        slopes[:-1] = slopes[1:]
        slopes[-1] = k
        count = min(count + 1, _PREDICTOR_DEPTH)
        return y_next

    return step


def _step_failed(tier: str, exc: Exception, t: float) -> StepFailure:
    """The StepFailure that ends a run whose step from t raised ``exc``; a
    StepFailure raised inside the step gives its reason, so the time suffix
    appears once."""
    reason = exc.reason if isinstance(exc, StepFailure) else exc
    return StepFailure(f"[{tier}] step failed: {reason}", last_good_t=t)


def integrate(initial, tier: str, cfg: IntegratorConfig, params: ModelParams,
              chi=None, gamma_tilde=None) -> Trajectory:
    """Integrate one model tier and record a sampled trajectory.

    ``initial`` is a FullState; ``chi`` may be a Hermitian matrix or a
    callable t -> matrix.  Errors raised by the right-hand side mid-run
    surface as StepFailure with the last good time attached; an invalid
    sample raises its own error first.  A state whose time lies outside
    [t_start, t_end) of ``cfg`` is refused with ValueError before any step.
    """
    if not cfg.t_start <= initial.t < cfg.t_end:
        raise ValueError(f"initial.t = {initial.t!r} lies outside the config's span "
                         f"[t_start, t_end) = [{cfg.t_start!r}, {cfg.t_end!r})")
    if chi is None:
        n = initial.n
        chi = np.zeros((n, n), dtype=complex)
    system = _build_system(initial, tier, cfg, params, chi, gamma_tilde)
    try:
        _advance(system, tier, cfg)
    except Exception:
        system.finish()          # the samples taken before the failure come first
        raise
    times, states, diags = system.finish()
    return Trajectory(times=np.array(times), states=states, diagnostics=diags)


def _advance(system: _System, tier: str, cfg: IntegratorConfig) -> None:
    """Step from t0 to t_end with ``cfg.method``, recording the initial
    sample, every ``sample_stride``-th step and the last one."""
    t = system.t0
    y = system.y0.copy()
    system.record(t, y)

    if cfg.method in ("rk4", "implicit_midpoint"):
        # a step count that overflows a float is above any max_steps
        n_steps = (cfg.t_end - system.t0) / cfg.dt
        n_steps = max(round(n_steps), 1) if math.isfinite(n_steps) else math.inf
        if n_steps > cfg.max_steps:
            raise StepFailure(f"[{tier}] exceeded max_steps: {n_steps} fixed steps > "
                              f"{cfg.max_steps}", last_good_t=t)
        dt = (cfg.t_end - system.t0) / n_steps
        stepper = _rk4_step if cfg.method == "rk4" else _warm_started_midpoint(n_steps)
        for k in range(n_steps):
            try:
                y = stepper(system.deriv, t, y, dt)
            except (HermitonError, FloatingPointError) as exc:
                raise _step_failed(tier, exc, t) from exc
            if not np.isfinite(y).all():
                raise StepFailure(f"[{tier}] state became non-finite", last_good_t=t)
            t = system.t0 + (k + 1) * dt
            if (k + 1) % cfg.sample_stride == 0 or k == n_steps - 1:
                system.record(t, y)
        return

    # adaptive Dormand-Prince with PI step limiting; k1 is f(t, y): the last
    # stage of an accepted step, the first stage again after a rejection
    dt = cfg.dt
    err_prev = 1.0
    accepted = attempted = 0
    k1 = None
    # the first accepted t >= t_last ends the run and is recorded: t_last is
    # relative to the run's span, and at least 4 ulps short of t_end
    t_last = cfg.t_end - max(1e-14 * (cfg.t_end - system.t0),
                             4.0 * np.spacing(max(abs(system.t0), abs(cfg.t_end))))
    while t < t_last:
        if attempted == cfg.max_steps:
            raise StepFailure(f"[{tier}] exceeded max_steps: {attempted} steps attempted",
                              last_good_t=t)
        dt = min(dt, cfg.t_end - t)
        if dt < 4.0 * np.spacing(max(abs(t), abs(cfg.t_end))):
            raise StepFailure(f"[{tier}] step size underflow: dt = {dt:.3e} at t = {t:.6g} "
                              "is below 4 ulps of max(|t|, |t_end|)", last_good_t=t)
        attempted += 1
        try:
            y_new, err_vec, k1, k_last = _dp_step(system.deriv, t, y, dt, k1)
        except (HermitonError, FloatingPointError) as exc:
            raise _step_failed(tier, exc, t) from exc
        if not np.isfinite(y_new).all():
            raise StepFailure(f"[{tier}] state became non-finite", last_good_t=t)
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))
        if err <= 1.0:
            t = t + dt
            y = y_new
            k1 = k_last
            accepted += 1
            if accepted % cfg.sample_stride == 0 or t >= t_last:
                system.record(t, y)
            # PI controller (orders 5/4)
            fac = 0.9 * (err + 1e-16) ** (-0.7 / 5.0) * (err_prev + 1e-16) ** (0.4 / 5.0)
            err_prev = err
        else:
            fac = max(0.2, 0.9 * (err + 1e-16) ** (-1.0 / 5.0))
        dt *= min(5.0, max(0.2, fac))
