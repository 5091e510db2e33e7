"""Time-stepping engines and trajectory recording for all model tiers.

Every tier steps a subset of the same blocks psi, psi_dot, gamma and
gamma_dot, listed in ``STEPPED_BLOCKS`` in storage order.  The stepped
blocks are flattened into one real vector; the others stay frozen (gamma at
its initial value, the rest at zero).  Each run builds one rate closure for
its tier, ``_System.rates``: it reads the stepped blocks as views of the
vector, calls the tier's kernel through its module-level name and returns
the blocks' rates; ``deriv`` packs them with one concatenate.  The
frozen-gamma tiers hand their kernel a ``dynamics._PreparedPsiRate``, built
with the closure, so a step re-derives neither K^{-1} nor the linear part of
the psi equation; a constant chi is resolved once per run.

Recording is stacked.  ``record`` only buffers a sample's (t, y).  When the
run ends, the same codec unpacks the (S, N) stack of samples, and one
set of stacked calls runs the FullState checks on every sample (finite
entries, hermiticity, one stacked checked inverse of gamma) and computes
energy from that inverse, theta1 and the hermiticity drift.  Each sample's
state and diagnostics have the bits of the one-state calls.  A sample that
needs the rates f(t, y) takes them from the stepper's evaluation at the
same (t, y) when there is one: the next RK4 step's first stage, or the
accepted Dormand-Prince step's last stage.  An invalid sample raises its
own error, naming it, ahead of any later step failure.  Every trajectory
holds validated FullStates.

The real form of complex data is numpy's real view, real and imaginary
parts interleaved: y is the real view of the complex blocks, concatenated in
``STEPPED_BLOCKS`` order.  The gamma blocks have two layouts:

* ``resymmetrize_gamma=True``: gamma and gamma_dot are stored after the
  complex blocks in the n^2-real Hermitian parametrization of
  ``hermitian_to_real`` (diagonal reals plus off-diagonal real/imaginary
  pairs), which enforces hermiticity structurally; the
  hermiticity defect of the raw right-hand side is still recorded at
  sample times (the "pre-projection" drift).
* ``resymmetrize_gamma=False``: the full complex matrices are stepped
  (2 n^2 reals each) and the hermiticity drift of the state itself is
  recorded, unprojected.

Stepping methods (``IntegratorConfig.method``):

* ``rk4``: classical Runge-Kutta, 4 RHS evaluations per step.
* ``rk45_adaptive``: Dormand-Prince 5(4) with a PI step-size controller.
  The last stage of an accepted step is the first stage of the next one
  ("first same as last") and a rejected step keeps its first stage, so a
  run makes 6 RHS evaluations per attempted step, plus one.  Every
  attempted step counts toward ``max_steps``, and a step size below 4 ulps
  of max(|t|, |t_end|) raises StepFailure instead of creeping on.
* ``implicit_midpoint``: fixed-point iteration on the midpoint slope,
  started from the slopes of the last three steps extrapolated to the new
  midpoint, with one sweep beyond the convergence test (see
  ``_implicit_midpoint_step`` for why).

A fixed-step run whose step count exceeds ``max_steps`` fails before it
takes a step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import (
    _full_accelerations_raw,
    _PreparedPsiRate,
    _modified_first_order_raw,
    rhs_direct_nonlinear_raw,
    rhs_gamma_geodesic,
    rhs_second_order,
)
from .errors import HermitonError, NonFinite, StepFailure
from .hermitian_algebra import (
    hermitian_part,
    hermitian_to_real,
    hermiticity_drift,
    real_to_hermitian,
)
from .models import FullState, ModelParams, _validated_blocks, energy, resolve_chi, theta1

__all__ = ["IntegratorConfig", "Trajectory", "integrate"]

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
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")
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
    """Layout of the flat real state vector y of one tier.

    y is the real view of the complex blocks (vectors, and matrices in the
    complex layout) in stepped order, followed in the structural layout by
    the ``hermitian_to_real`` coordinates of each Hermitian matrix.  The
    same codec reads one vector in the rate closure and the stack of recorded
    vectors (S, N) when a run is recorded.
    """

    def __init__(self, stepped, n: int, structural: bool):
        self.n, self.stepped = n, stepped
        matrices = [block for block in stepped if block in ("gamma", "gamma_dot")]
        hermitian = matrices if structural else []
        self.views = []          # (block, span in y's complex view, shape)
        offset = 0
        for block in stepped:
            if block not in hermitian:
                shape = (n, n) if block in matrices else (n,)
                self.views.append((block, slice(offset, offset + n ** len(shape)), shape))
                offset += n ** len(shape)
        self.split = 2 * offset  # the reals of the complex blocks
        self.hermitian = [(block, slice(self.split + k * n * n, self.split + (k + 1) * n * n))
                          for k, block in enumerate(hermitian)]

    def read(self, y) -> list:
        """The stepped blocks stored in y (..., N), in stepped order, with y's
        leading axes: views of y (which must be C-contiguous) for the complex
        blocks, then the Hermitian matrices of the structural layout."""
        z = y[..., :self.split].view(complex)
        lead = y.shape[:-1]
        return ([z[..., span].reshape(lead + shape) for _, span, shape in self.views]
                + [real_to_hermitian(y[..., coords], self.n) for _, coords in self.hermitian])

    def unpack(self, y) -> dict:
        """The stepped blocks stored in y (..., N), by name; the complex blocks
        are read-only views of y."""
        blocks = self.read(y)
        for view in blocks[:len(self.views)]:
            view.setflags(write=False)
        return dict(zip(self.stepped, blocks))

    def pack(self, blocks) -> np.ndarray:
        """A new vector y holding the stepped blocks, given in stepped order:
        one concatenate of the complex blocks, viewed as reals, then the
        Hermitian coordinates."""
        split = len(self.views)
        y = (np.concatenate(blocks[:split], axis=None, dtype=complex).view(float)
             if split else np.empty(0))
        if self.hermitian:
            y = np.concatenate([y, *(hermitian_to_real(hermitian_part(block))
                                     for block in blocks[split:])])
        return y


class _Blocks(NamedTuple):
    """A state's blocks by name, unvalidated: a stage of the frozen-gamma
    tier, which ``rhs_second_order`` reads, or the recorded samples stacked
    on a leading axis, which ``energy`` reads."""

    psi: np.ndarray
    psi_dot: np.ndarray
    gamma: np.ndarray
    gamma_dot: np.ndarray
    t: object


def _rate_closure(tier: str, codec: _Codec, gamma, params: ModelParams, chi, gamma_tilde):
    """The run's rate closure ``rates(t, y)``: the time derivative of each
    block y stores, in stepped order, from the tier's kernel, called through
    its module-level name.  The gamma_dot rate is the kernel's acceleration
    before the structural layout projects it.  ``gamma`` is the frozen form
    of the tiers that do not step it; their kernel takes a prepared psi rate
    built here, and the Gamma-stepping kernels take chi resolved once when
    it is constant."""
    read = codec.read
    if not callable(chi):
        chi = resolve_chi(chi, 0.0)
    if tier in ("schrodinger", "direct_nonlinear"):
        psi_rate = _PreparedPsiRate(gamma, params, chi, second_order=False)

        def rates(t, y):
            (psi,) = read(y)
            return [rhs_direct_nonlinear_raw(psi, gamma, params, chi, t, prepared=psi_rate)]
    elif tier == "second_order":
        psi_rate = _PreparedPsiRate(gamma, params, chi, second_order=True, kinetic=gamma_tilde)

        def rates(t, y):
            psi, psid = read(y)
            return [psid, rhs_second_order(_Blocks(psi, psid, gamma, None, t), chi, params,
                                           prepared=psi_rate)]
    elif tier == "gamma_geodesic":
        a, b = 2.0 * params.alpha6, 2.0 * params.alpha7

        def rates(t, y):
            g, gd = read(y)
            return [gd, rhs_gamma_geodesic(g, gd, a, b)]
    elif tier == "full":
        def rates(t, y):
            psi, psid, g, gd = read(y)
            acc_psi, acc_g = _full_accelerations_raw(psi, psid, g, gd, params, chi, t)
            return [psid, acc_psi, gd, acc_g]
    else:
        def rates(t, y):
            psi, g, gd = read(y)
            psid, acc_g = _modified_first_order_raw(psi, g, gd, params, chi, t)
            return [psid, gd, acc_g]
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

    ``rates`` is the run's rate closure (see :func:`_rate_closure`) and
    ``deriv`` packs its rates into the vector the steppers take.  ``record``
    only buffers a sample's (t, y).  ``finish`` turns the buffer into (times,
    states, diagnostics) with one set of stacked calls and empties it.  A
    sample that needs the rates f(t, y) (psi_dot of a first-order tier, the
    pre-projection drift of a structural gamma) takes them from a ``deriv``
    call at bitwise the same (t, y) when the stepper makes one (the next RK4
    step's first stage, an accepted Dormand-Prince step's last stage);
    ``finish`` evaluates the others with ``rates``.
    """

    def __init__(self, initial, tier: str, cfg: IntegratorConfig, params: ModelParams,
                 chi, gamma_tilde):
        n = initial.n
        self.tier, self.params, self.chi = tier, params, chi
        self.stepped = stepped = STEPPED_BLOCKS[tier]
        self.codec = _Codec(stepped, n, cfg.resymmetrize_gamma)
        zero_v = np.zeros(n, dtype=complex)
        zero_v.setflags(write=False)         # shared by every recorded state
        self.frozen = {"psi": zero_v, "psi_dot": zero_v, "gamma": initial.gamma,
                       "gamma_dot": np.zeros((n, n), dtype=complex)}
        self.rates = _rate_closure(tier, self.codec, initial.gamma, params, chi, gamma_tilde)
        self.first_order = "psi" in stepped and "psi_dot" not in stepped
        self.structural = cfg.resymmetrize_gamma
        self.needs_rates = self.first_order or ("gamma" in stepped and self.structural)
        self.latest = (None, None, None)     # (t, y, rates) of the latest deriv call
        self.times, self.ys, self.taken = [], [], []
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
        rates = self.rates(t, y)
        if self.needs_rates:
            self.latest = (t, y, rates)
            self._take_rates(t, y, rates)
        return self.codec.pack(rates)

    def record(self, t, y):
        self.times.append(t)
        self.ys.append(y)
        if self.needs_rates:
            self.taken.append(None)
            self._take_rates(*self.latest)

    def _take_rates(self, t, y, rates):
        # the waiting sample takes rates evaluated at bitwise its (t, y)
        if (self.taken and self.taken[-1] is None and t == self.times[-1]
                and (y is self.ys[-1] or np.array_equal(y, self.ys[-1]))):
            self.taken[-1] = rates

    def finish(self) -> tuple:
        """(times, states, diagnostics) of the buffered samples.  An error
        names its sample, and comes after the samples before it are
        recorded, as if each had been recorded when it was taken."""
        times, ys, rates = self.times, self.ys, self.taken
        self.times, self.ys, self.taken = [], [], []
        failure = None
        for k in range(len(times) if self.needs_rates else 0):
            if rates[k] is None:
                try:
                    rates[k] = self.rates(times[k], ys[k])
                except Exception as exc:
                    failure = _sample_error(self.tier, k, times[k], exc)
                    times, ys = times[:k], ys[:k]
                    break
        states, diags = self._states(times, np.array(ys), rates) if times else ([], [])
        if failure is not None:
            raise failure
        return times, states, diags

    def _states(self, times, y, rates) -> tuple:
        """Validated FullStates and diagnostics of the samples y (S, N)."""
        b = self.blocks(y)
        count = len(times)
        if self.first_order:             # psi is stored first
            b["psi_dot"] = np.array([r[0] for r in rates[:count]])
        if "gamma" not in self.stepped:
            drift = [0.0] * count
        elif self.structural:            # gamma_dot is stored last
            drift = hermiticity_drift(np.array([r[-1] for r in rates[:count]]))
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
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# Dormand-Prince 5(4) tableau
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
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


def _dp_step(f, t, y, dt, k1=None):
    """One Dormand-Prince 5(4) step: ``(y5, y5 - y4, k1, k7)``.

    ``k1`` is f(t, y) when the caller has it (computed here otherwise) and
    is returned for a retry after a rejection.  The last stage is evaluated
    at (t + dt, y5), so ``k7`` is the next step's ``k1`` once this step is
    accepted ("first same as last"): a step costs 6 RHS evaluations, and the
    first one 7.
    """
    k = [f(t, y) if k1 is None else k1]
    for i in range(1, 7):
        yi = y + dt * sum(a * kk for a, kk in zip(_DP_A[i], k))
        k.append(f(t + _DP_C[i] * dt, yi))
    y5 = y + dt * sum(b * kk for b, kk in zip(_DP_B5, k))
    y4 = y + dt * sum(b * kk for b, kk in zip(_DP_B4, k))
    return y5, y5 - y4, k[0], k[6]


def _implicit_midpoint_step(f, t, y, dt, k_guess=None, tol=1e-12, max_iter=50):
    """One implicit midpoint step: ``(y_next, k)`` with y_next = y + dt*k and
    k = f(t + dt/2, (y + y_next)/2), solved by fixed-point iteration on k.

    The iteration starts from ``k_guess`` (explicit Euler, f(t, y), when it
    is None).  Once successive iterates agree to ``tol`` one more sweep is
    taken and returned: stopping right at the tolerance leaves a stage error
    of about ``tol`` in every step, which adds up to a secular drift of the
    quadratic invariants the rule otherwise conserves.  A non-finite stage
    raises NonFinite at once; a stage that has not converged after
    ``max_iter`` sweeps raises StepFailure with the last residual.
    """
    t_mid = t + dt / 2.0
    y_next = y + dt * (f(t, y) if k_guess is None else k_guess)
    prev_res = np.inf
    damping = 1.0
    for _ in range(max_iter):
        target = y + dt * f(t_mid, 0.5 * (y + y_next))
        res = float(np.max(np.abs(target - y_next)))
        if not math.isfinite(res):
            raise NonFinite("implicit midpoint stage became non-finite")
        if res <= tol * (1.0 + float(np.max(np.abs(y)))):
            k = f(t_mid, 0.5 * (y + target))
            return y + dt * k, k
        if res > prev_res:
            damping = 0.5        # damped iteration once the map stops contracting
        y_next = damping * target + (1.0 - damping) * y_next
        prev_res = res
    raise StepFailure(f"implicit midpoint stage iteration did not converge in {max_iter} "
                      f"sweeps (last residual {res:.3e})", last_good_t=t)


def _warm_started_midpoint():
    """Implicit midpoint stepper that starts each stage iteration from the
    slopes of the steps before it, extrapolated to the new midpoint
    (quadratic from three slopes, linear from two, constant from one)."""
    slopes = []

    def step(f, t, y, dt):
        if len(slopes) == 3:
            guess = 3.0 * (slopes[2] - slopes[1]) + slopes[0]
        elif len(slopes) == 2:
            guess = 2.0 * slopes[1] - slopes[0]
        else:
            guess = slopes[0] if slopes else None
        y_next, k = _implicit_midpoint_step(f, t, y, dt, guess)
        del slopes[:-2]
        slopes.append(k)
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
    sample raises its own error first.
    """
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
        n_steps = int(round((cfg.t_end - system.t0) / cfg.dt))
        n_steps = max(n_steps, 1)
        if n_steps > cfg.max_steps:
            raise StepFailure(f"[{tier}] exceeded max_steps: {n_steps} fixed steps > "
                              f"{cfg.max_steps}", last_good_t=t)
        dt = (cfg.t_end - system.t0) / n_steps
        stepper = _rk4_step if cfg.method == "rk4" else _warm_started_midpoint()
        for k in range(n_steps):
            try:
                y = stepper(system.deriv, t, y, dt)
            except (HermitonError, np.linalg.LinAlgError, FloatingPointError) as exc:
                raise _step_failed(tier, exc, t) from exc
            if not np.all(np.isfinite(y)):
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
    while t < cfg.t_end - 1e-14 * max(1.0, abs(cfg.t_end)):
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
        except (HermitonError, np.linalg.LinAlgError, FloatingPointError) as exc:
            raise _step_failed(tier, exc, t) from exc
        if not np.all(np.isfinite(y_new)):
            raise StepFailure(f"[{tier}] state became non-finite", last_good_t=t)
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))
        if err <= 1.0:
            t = t + dt
            y = y_new
            k1 = k_last
            accepted += 1
            if accepted % cfg.sample_stride == 0 or t >= cfg.t_end - 1e-14:
                system.record(t, y)
            # PI controller (orders 5/4)
            fac = 0.9 * (err + 1e-16) ** (-0.7 / 5.0) * (err_prev + 1e-16) ** (0.4 / 5.0)
            err_prev = err
        else:
            fac = max(0.2, 0.9 * (err + 1e-16) ** (-1.0 / 5.0))
        dt *= min(5.0, max(0.2, fac))
