import dataclasses
import itertools

import numpy as np
import pytest

import hermiton.dynamics as dynamics_module
import hermiton.integrate as integrate_module
from hermiton.dynamics import (
    _PreparedGammaRate,
    el_residual,
    rhs_direct_nonlinear_raw,
    rhs_gamma_geodesic,
    rhs_second_order,
)
from hermiton.errors import HermitonError, NonFinite, SingularForm, StepFailure
from hermiton.hermitian_algebra import hermitian_part, hermiticity_drift
from hermiton.integrate import IntegratorConfig, Trajectory, integrate
from hermiton.models import (
    FullState,
    ModelParams,
    PotentialSpec,
    _Blocks,
    energy,
    resolve_chi,
    theta1,
)
from hermiton.oracles import GammaExponentialSolution, exact_gamma, exact_schrodinger

from conftest import (
    rand_herm,
    rand_pd,
    rand_vec,
    scale_couplings,
    symplectic_smoke_case,
)


def schrodinger_setup(rng, n=2):
    params = ModelParams(alpha1=0.5, alpha5=-1.0)
    gamma = rand_pd(rng, n)
    chi = rand_herm(rng, n)
    psi0 = rand_vec(rng, n)
    state = FullState(psi=psi0, psi_dot=np.zeros(n), gamma=gamma,
                      gamma_dot=np.zeros((n, n)))
    return params, gamma, chi, psi0, state


class TestFixedStep:
    def test_frozen_schrodinger_matches_exponential(self, rng):
        params, gamma, chi, psi0, state = schrodinger_setup(rng)
        cfg = IntegratorConfig(dt=1e-3, t_end=1.0, sample_stride=100)
        traj = integrate(state, "schrodinger", cfg, params, chi)
        exact = exact_schrodinger(psi0, np.linalg.solve(gamma, chi), 1.0, 1.0)
        assert np.max(np.abs(traj.final_state.psi - exact)) < 1e-9

    def test_gamma_geodesic_matches_exponential(self, rng):
        n = 2
        g = rand_pd(rng, n)
        e = np.linalg.solve(g, rand_herm(rng, n, 0.5))
        sol = GammaExponentialSolution(G=g, E=e)
        params = ModelParams(alpha6=1.0, alpha7=0.2)
        state = FullState(psi=np.zeros(n), psi_dot=np.zeros(n),
                          gamma=g, gamma_dot=g @ e)
        cfg = IntegratorConfig(dt=1e-3, t_end=1.0, sample_stride=200)
        traj = integrate(state, "gamma_geodesic", cfg, params)
        assert np.max(np.abs(traj.final_state.gamma - exact_gamma(sol, 1.0))) < 1e-7

    def test_constant_trajectory(self, rng):
        n = 2
        state = FullState(psi=rand_vec(rng, n), psi_dot=np.zeros(n),
                          gamma=rand_pd(rng, n), gamma_dot=np.zeros((n, n)))
        params = ModelParams(alpha1=1.0, alpha2=0.5, alpha6=1.0, alpha7=0.1)
        cfg = IntegratorConfig(dt=1e-2, t_end=0.5)
        traj = integrate(state, "full", cfg, params, np.zeros((n, n)))
        assert np.max(np.abs(traj.final_state.psi - state.psi)) < 1e-13
        assert np.max(np.abs(traj.final_state.gamma - state.gamma)) < 1e-13

    def test_trajectory_invariants(self, rng):
        params, gamma, chi, psi0, state = schrodinger_setup(rng)
        cfg = IntegratorConfig(dt=1e-2, t_end=0.2, sample_stride=5)
        traj = integrate(state, "schrodinger", cfg, params, chi)
        assert np.all(np.diff(traj.times) > 0)
        assert len(traj.states) == traj.times.size == len(traj.diagnostics)
        for key in ("energy", "theta1", "herm_drift"):
            assert key in traj.diagnostics[0]

    def test_trajectory_count_validation(self):
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.0, 1.0]), states=[None], diagnostics=[{}])
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.0, 0.0]), states=[None, None],
                       diagnostics=[{}, {}])


class TestAdaptive:
    def test_rk45_matches_exact(self, rng):
        params, gamma, chi, psi0, state = schrodinger_setup(rng)
        cfg = IntegratorConfig(dt=1e-2, t_end=1.0, method="rk45_adaptive",
                               rel_tol=1e-10, abs_tol=1e-12)
        traj = integrate(state, "schrodinger", cfg, params, chi)
        exact = exact_schrodinger(psi0, np.linalg.solve(gamma, chi), 1.0, 1.0)
        assert traj.times[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(traj.final_state.psi - exact)) < 1e-7

    def test_rk45_adapts_step(self, rng):
        params, gamma, chi, psi0, state = schrodinger_setup(rng)
        loose = IntegratorConfig(dt=1e-3, t_end=1.0, method="rk45_adaptive",
                                 rel_tol=1e-5, abs_tol=1e-7)
        tight = IntegratorConfig(dt=1e-3, t_end=1.0, method="rk45_adaptive",
                                 rel_tol=1e-11, abs_tol=1e-13)
        n_loose = integrate(state, "schrodinger", loose, params, chi).times.size
        n_tight = integrate(state, "schrodinger", tight, params, chi).times.size
        assert n_tight > n_loose

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("t_end", [0.5, 100.0])
    def test_step_that_ends_the_run_is_recorded(self, rng, t_end, stride):
        # one accepted step (chi = 0, so psi stands still) stops 5e-15
        # max(1, t_end) short of t_end, within the end-of-run tolerance
        # 1e-14 t_end (at it for t_end = 0.5): it ends the run, so it is the
        # last sample whatever the stride
        params, _, _, psi0, state = schrodinger_setup(rng)
        dt = t_end - 5e-15 * max(1.0, t_end)
        cfg = IntegratorConfig(dt=dt, t_end=t_end, method="rk45_adaptive",
                               sample_stride=stride)
        traj = integrate(state, "schrodinger", cfg, params, np.zeros((2, 2)))
        assert traj.times.tolist() == [0.0, dt]
        assert np.array_equal(traj.final_state.psi, psi0)

    def test_run_shorter_than_1e_14_steps_to_its_end(self, rng):
        # the end-of-run tolerance is relative to the run's span: a span of
        # 5e-15 is stepped to t_end and recorded there, not left at t0
        params, gamma, chi, psi0, state = schrodinger_setup(rng)
        cfg = IntegratorConfig(dt=5e-16, t_end=5e-15, method="rk45_adaptive")
        traj = integrate(state, "schrodinger", cfg, params, chi)
        assert len(traj.times) > 1
        assert traj.times[-1] == pytest.approx(5e-15, rel=1e-13)
        exact = exact_schrodinger(psi0, np.linalg.solve(gamma, chi), 1.0, 5e-15)
        assert np.max(np.abs(traj.final_state.psi - exact)) < 1e-15


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("tier", integrate_module.MODEL_TIERS)
def test_codec_round_trip_and_read_only_views(rng, tier, n):
    # a y the codec writes packs back from its blocks bitwise, the (S, N)
    # stack unpacks as its rows do, and every block is a read-only view of y
    stepped = integrate_module.STEPPED_BLOCKS[tier]
    codec = integrate_module._Codec(stepped, n)
    stack = np.array([codec.pack([rand_herm(rng, n) if block in ("gamma", "gamma_dot")
                                  else rand_vec(rng, n) for block in stepped])
                      for _ in range(3)])
    stacked = codec.unpack(stack)
    for k, y in enumerate(stack):
        blocks = codec.unpack(y)
        assert codec.pack([blocks[block] for block in stepped]).tobytes() == y.tobytes()
        for block in stepped:
            assert stacked[block][k].tobytes() == blocks[block].tobytes()
            for got, base in ((blocks[block], y), (stacked[block], stack)):
                assert not got.flags.writeable and np.shares_memory(got, base)


class TestResymmetrize:
    def test_structural_and_full_agree(self, rng):
        coupled = ModelParams(alpha1=0.5, alpha2=0.4, alpha5=-1.0, alpha6=1.0,
                              alpha7=0.1, alpha9=0.05)
        cases = (("gamma_geodesic", ModelParams(alpha6=1.0, alpha7=0.2)),
                 ("full", coupled),
                 ("modified_first_order", dataclasses.replace(coupled, alpha2=0.0)))
        base = dict(dt=1e-3, t_end=0.5, sample_stride=100)
        for tier, params in cases:
            for n in (2, 5):        # odd n exercises the off-diagonal coordinate order
                g = rand_pd(rng, n)
                e = np.linalg.solve(g, rand_herm(rng, n, 0.5))
                state = FullState(psi=rand_vec(rng, n, 0.5), psi_dot=rand_vec(rng, n, 0.5),
                                  gamma=g, gamma_dot=g @ e)
                chi = rand_herm(rng, n)
                t_full = integrate(state, tier, IntegratorConfig(**base), params, chi)
                t_struct = integrate(state, tier,
                                     IntegratorConfig(**base, resymmetrize_gamma=True),
                                     params, chi)
                gap = max(np.max(np.abs(t_full.final_state.gamma - t_struct.final_state.gamma)),
                          np.max(np.abs(t_full.final_state.psi - t_struct.final_state.psi)))
                assert gap < 1e-12, (tier, n, gap)

    def test_drift_recorded_both_modes(self, rng):
        n = 2
        g = rand_pd(rng, n)
        e = np.linalg.solve(g, rand_herm(rng, n, 0.5))
        params = ModelParams(alpha6=1.0, alpha7=0.2)
        state = FullState(psi=np.zeros(n), psi_dot=np.zeros(n),
                          gamma=g, gamma_dot=g @ e)
        for structural in (False, True):
            cfg = IntegratorConfig(dt=1e-2, t_end=0.2,
                                   resymmetrize_gamma=structural)
            traj = integrate(state, "gamma_geodesic", cfg, params)
            drifts = traj.series("herm_drift")
            assert np.all(drifts >= 0.0) and drifts.max() < 1e-9


class TestFailures:
    def test_degenerate_kinetic_becomes_step_failure(self, rng):
        n = 2
        state = FullState(psi=rand_vec(rng, n), psi_dot=rand_vec(rng, n),
                          gamma=rand_pd(rng, n), gamma_dot=rand_herm(rng, n))
        params = ModelParams(alpha1=0.4, alpha2=0.3, alpha6=2.0, alpha7=-1.0)
        cfg = IntegratorConfig(dt=1e-2, t_end=0.1)
        with pytest.raises(StepFailure) as err:
            integrate(state, "full", cfg, params, np.zeros((n, n)))
        assert err.value.last_good_t == pytest.approx(0.0)
        assert "full" in str(err.value)

    @pytest.mark.parametrize("method", ["rk4", "rk45_adaptive", "implicit_midpoint"])
    def test_non_finite_second_order_stage(self, method):
        # the stages of the frozen-gamma tier are not validated: a stage that
        # overflows must still end the run with a StepFailure.  The midpoint
        # run takes 5 steps, fewer than N + 1 = 9, so it iterates with M = I
        n = 2
        params = ModelParams(alpha1=0.7, alpha2=0.5, alpha5=-2.0)
        state = FullState(psi=np.ones(n), psi_dot=np.zeros(n), gamma=np.eye(n),
                          gamma_dot=np.zeros((n, n)))
        cfg = IntegratorConfig(dt=0.1, t_end=0.5 if method == "implicit_midpoint" else 1.0,
                               method=method)
        with np.errstate(all="ignore"), pytest.raises(StepFailure,
                                                      match="non-finite") as err:
            integrate(state, "second_order", cfg, params, np.diag([1e300, -1e300]))
        assert err.value.last_good_t == 0.0

    def test_newton_side_of_the_non_finite_stage(self):
        # 10 steps >= N + 1 = 9: the Newton side.  With chi = diag(+-1e300)
        # the A-stable rule with an accurate J stays bounded; at 1e308 the
        # Jacobian's base call overflows and J is non-finite
        n = 2
        params = ModelParams(alpha1=0.7, alpha2=0.5, alpha5=-2.0)
        state = FullState(psi=np.ones(n), psi_dot=np.zeros(n), gamma=np.eye(n),
                          gamma_dot=np.zeros((n, n)))
        cfg = IntegratorConfig(dt=0.1, t_end=1.0, method="implicit_midpoint")
        with np.errstate(all="ignore"):
            traj = integrate(state, "second_order", cfg, params, np.diag([1e300, -1e300]))
            assert np.max(np.abs(traj.final_state.psi)) <= 1.0 + 1e-12
            with pytest.raises(StepFailure, match=r"^\[second_order\] step failed: implicit "
                                                  r"midpoint stage Jacobian is non-finite") as err:
                integrate(state, "second_order", cfg, params, np.diag([1e308, -1e308]))
        assert err.value.last_good_t == 0.0

    def test_singular_newton_matrix_is_step_failure(self):
        # f = 2y at dt = 1: the forward differences of the power-of-two step
        # are exact, J = 2 I and M = I - (dt/2) J = 0
        with pytest.raises(StepFailure, match=r"Newton matrix I - \(dt/2\) J is singular"):
            integrate_module._stage_inverse(lambda t, y: 2.0 * y, 0.0, np.ones(3), 1.0)

    def test_unknown_tier(self, rng):
        state = FullState(psi=np.ones(1), psi_dot=np.zeros(1),
                          gamma=np.eye(1), gamma_dot=np.zeros((1, 1)))
        with pytest.raises(ValueError):
            integrate(state, "nope", IntegratorConfig(dt=0.1, t_end=1.0),
                      ModelParams())


class TestStepLimits:
    @pytest.mark.parametrize("method", ["rk4", "implicit_midpoint"])
    def test_fixed_step_count_above_max_steps_fails_before_stepping(self, rng, monkeypatch,
                                                                    method):
        params, gamma, chi, psi0, state = schrodinger_setup(rng)
        calls = count_rates(monkeypatch)
        cfg = IntegratorConfig(dt=0.01, t_end=1.0, method=method, max_steps=10)
        with pytest.raises(StepFailure, match="exceeded max_steps") as err:
            integrate(state, "schrodinger", cfg, params, chi)
        assert err.value.last_good_t == 0.0
        assert calls[0] <= 1              # at most the initial sample's rates
        at_limit = IntegratorConfig(dt=0.01, t_end=1.0, method=method, max_steps=100)
        assert integrate(state, "schrodinger", at_limit, params, chi).times.size == 101

    @pytest.mark.parametrize("method", ["rk4", "implicit_midpoint"])
    def test_fixed_step_count_beyond_floats_exceeds_max_steps(self, rng, monkeypatch,
                                                              method):
        # span / dt overflows to inf: above any max_steps, not an OverflowError
        params, gamma, chi, psi0, state = schrodinger_setup(rng)
        calls = count_rates(monkeypatch)
        cfg = IntegratorConfig(dt=5e-324, t_end=1.0, method=method)
        with pytest.raises(StepFailure, match="exceeded max_steps: inf fixed steps") as err:
            integrate(state, "schrodinger", cfg, params, chi)
        assert err.value.last_good_t == 0.0
        assert calls[0] <= 1

    def test_adaptive_counts_rejected_steps_toward_max_steps(self, rng, monkeypatch):
        params, gamma, chi, psi0, state = schrodinger_setup(rng)
        cfg = IntegratorConfig(dt=0.5, t_end=1.0, method="rk45_adaptive",
                               rel_tol=1e-10, abs_tol=1e-12, sample_stride=1)
        attempts = count_dp_attempts(monkeypatch)
        traj = integrate(state, "schrodinger", cfg, params, chi)
        n_attempts = len(attempts)
        n_accepted = len({t for t, _ in attempts})
        assert n_attempts > n_accepted    # the first step from dt = 0.5 is rejected
        assert traj.times.size == n_accepted + 1
        # exactly n_attempts steps fit: rejected steps count, samples do not
        assert integrate(state, "schrodinger",
                         dataclasses.replace(cfg, max_steps=n_attempts),
                         params, chi).times[-1] == pytest.approx(1.0)
        with pytest.raises(StepFailure, match="exceeded max_steps"):
            integrate(state, "schrodinger",
                      dataclasses.replace(cfg, max_steps=n_attempts - 1), params, chi)

    def test_step_size_underflow_fails_fast(self, rng, monkeypatch):
        # the step the tolerances ask for is below 4 ulps of t: at t ~ 2^40
        # an ulp is 2^-12, and a rotation at frequency ~100 needs dt ~ 1e-4
        # at rel_tol 1e-10 (without the guard the run would go on with steps
        # that t + dt rounds)
        params = ModelParams(alpha1=0.5, alpha5=-1.0)
        chi = np.diag([100.0, -100.0])
        t0 = 2.0 ** 40
        state = FullState(psi=np.array([1.0, 0.0]), psi_dot=np.zeros(2),
                          gamma=rand_pd(rng, 2), gamma_dot=np.zeros((2, 2)), t=t0)
        cfg = IntegratorConfig(dt=0.01, t_start=t0, t_end=t0 + 1.0, method="rk45_adaptive",
                               rel_tol=1e-10, abs_tol=1e-12)
        attempts = count_dp_attempts(monkeypatch)
        with pytest.raises(StepFailure, match="step size underflow"):
            integrate(state, "schrodinger", cfg, params, chi)
        assert 0 < len(attempts) < 100


@pytest.mark.parametrize("field, value, message", [
    ("dt", 0.0, "dt must be positive"),
    ("t_end", 0.0, "t_end must exceed t_start"),
    ("rel_tol", float("nan"), "rel_tol must be finite"),
    ("abs_tol", 0.0, "tolerances must be positive"),
    ("sample_stride", 0, "sample_stride must be >= 1"),
    # a tolerance below round-off: the error norm of every step would be
    # measured against rounding noise
    ("rel_tol", 1e-300, "rel_tol must be at least the float64 epsilon"),
])
def test_integrator_config_refuses(field, value, message):
    fields = dict(dt=0.01, t_end=1.0)
    fields[field] = value
    with pytest.raises(ValueError, match=message):
        IntegratorConfig(**fields)


def test_integrator_config_refuses_an_infinite_span():
    # both ends finite, their difference not: a run would have no finite steps
    with pytest.raises(ValueError, match="t_end - t_start must be finite, got inf"):
        IntegratorConfig(dt=0.01, t_start=-1e308, t_end=1e308)
    assert IntegratorConfig(dt=0.01, t_start=-1e307, t_end=1e307).t_end == 1e307


def count_rates(monkeypatch) -> list:
    """Count the RHS evaluations of every tier (calls of each run's rate
    closure, ``_System.rates``) in the runs built after this call."""
    calls = [0]
    build = integrate_module._build_system

    def spied(*args, **kwargs):
        system = build(*args, **kwargs)
        rates = system.rates

        def counted(*args, **kwargs):
            calls[0] += 1
            return rates(*args, **kwargs)

        system.rates = counted
        return system

    monkeypatch.setattr(integrate_module, "_build_system", spied)
    return calls


def count_dp_attempts(monkeypatch) -> list:
    """Record (t, dt) of every attempted Dormand-Prince step."""
    attempts = []
    dp_step = integrate_module._dp_step

    def recorded(f, t, y, dt, *args):
        attempts.append((t, dt))
        return dp_step(f, t, y, dt, *args)

    monkeypatch.setattr(integrate_module, "_dp_step", recorded)
    return attempts


def reference_dp(system, cfg):
    """Adaptive Dormand-Prince without first-same-as-last: every attempted
    step evaluates its first stage afresh.  Same controller as ``integrate``;
    returns every accepted (t, y)."""
    t, y = system.t0, system.y0.copy()
    out = [(t, y)]
    dt, err_prev = cfg.dt, 1.0
    while t < cfg.t_end - 1e-14 * max(1.0, abs(cfg.t_end)):
        dt = min(dt, cfg.t_end - t)
        y_new, err_vec, _, _ = integrate_module._dp_step(system.deriv, t, y, dt)
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))
        if err <= 1.0:
            t, y = t + dt, y_new
            out.append((t, y))
            fac = 0.9 * (err + 1e-16) ** (-0.7 / 5.0) * (err_prev + 1e-16) ** (0.4 / 5.0)
            err_prev = err
        else:
            fac = max(0.2, 0.9 * (err + 1e-16) ** (-1.0 / 5.0))
        dt *= min(5.0, max(0.2, fac))
    return out


class TestRhsCounts:
    # second_order records without evaluating the RHS, so every counted
    # call belongs to a step
    @staticmethod
    def second_order_setup(rng, n=3):
        params = ModelParams(alpha1=0.7, alpha2=0.5, alpha5=-2.0)
        state = FullState(psi=rand_vec(rng, n), psi_dot=rand_vec(rng, n, 0.3),
                          gamma=rand_pd(rng, n), gamma_dot=np.zeros((n, n)))
        return params, state, rand_herm(rng, n)

    def test_rk4_four_per_step(self, rng, monkeypatch):
        params, state, chi = self.second_order_setup(rng)
        calls = count_rates(monkeypatch)
        integrate(state, "second_order", IntegratorConfig(dt=0.02, t_end=1.0),
                  params, chi)
        assert calls[0] == 4 * 50

    def test_dp_six_per_attempted_step_plus_one(self, rng, monkeypatch):
        params, state, chi = self.second_order_setup(rng)
        cfg = IntegratorConfig(dt=0.5, t_end=2.0, method="rk45_adaptive",
                               rel_tol=1e-9, abs_tol=1e-11, sample_stride=1)
        system = integrate_module._build_system(state, "second_order", cfg, params, chi)
        reference = reference_dp(system, cfg)
        calls = count_rates(monkeypatch)
        attempts = count_dp_attempts(monkeypatch)
        traj = integrate(state, "second_order", cfg, params, chi)
        assert len(attempts) > len(traj.times) - 1      # the case has rejections
        assert calls[0] == 6 * len(attempts) + 1
        assert np.array_equal(traj.times, [t for t, _ in reference])
        for got, (_, y) in zip(traj.states, reference):
            blocks = system.codec.unpack(y)
            assert np.array_equal(got.psi, blocks["psi"])
            assert np.array_equal(got.psi_dot, blocks["psi_dot"])

    def test_implicit_midpoint_at_most_five_quarters_per_step_plus_jacobian(self,
                                                                            monkeypatch):
        # the problem of test_canonical::test_implicit_midpoint_symplectic_smoke,
        # second_order at n = 1: N = 4 reals, so J costs N + 1 = 5 calls.  The
        # guess from the last six slopes lets most stages stop after one
        # sweep: 1.214 calls per step (1.429 from the last three)
        params, state, chi = symplectic_smoke_case()
        n_steps = 2 * 10 ** 4
        cfg = IntegratorConfig(dt=0.01, t_end=n_steps * 0.01, method="implicit_midpoint",
                               sample_stride=500)
        calls = count_rates(monkeypatch)
        integrate(state, "second_order", cfg, params, chi)
        assert calls[0] <= 1.25 * n_steps + 4 + 1

    @pytest.mark.parametrize("tier, n, expected", [("modified_first_order", 1, 76),
                                                   ("schrodinger", 4, 97)])
    def test_midpoint_calls_at_the_ensemble_settings(self, rng, monkeypatch, tier, n,
                                                     expected):
        # dt 0.01, 60 steps, 4 samples: J's N + 1 calls, the stage sweeps and
        # one call per first-order sample.  A stage starts from the polynomial
        # through its last six slopes (131 and 178 calls from the last three)
        # and stops on its estimated error eta res, so a step whose
        # contraction is already small takes no sweep to confirm it: 79 and
        # 118 calls with the plain res <= scale test alone
        state, params, chi = tier_case(tier, n, rng)
        cfg = IntegratorConfig(dt=0.01, t_end=0.6, method="implicit_midpoint",
                               sample_stride=20)
        calls = count_rates(monkeypatch)
        traj = integrate(state, tier, cfg, params, chi)
        assert len(traj.times) == 4
        assert calls[0] == expected

    @pytest.mark.parametrize("tier", ["schrodinger", "second_order", "full"])
    @pytest.mark.parametrize("n", [1, 3])
    def test_newton_jacobian_costs_n_plus_one_calls(self, rng, monkeypatch, tier, n):
        # the calls before the first stage: J at N + 1 <= steps, none below
        params = ModelParams(alpha1=0.7, alpha2=0.0 if tier == "schrodinger" else 0.5,
                             alpha5=-2.0, alpha6=1.0, alpha7=0.1)
        state = FullState(psi=rand_vec(rng, n), psi_dot=rand_vec(rng, n, 0.3),
                          gamma=rand_pd(rng, n), gamma_dot=rand_herm(rng, n, 0.1))
        chi = rand_herm(rng, n)
        size = integrate_module._build_system(
            state, tier, IntegratorConfig(dt=0.01, t_end=1.0), params, chi).y0.size
        calls, before_stage = count_rates(monkeypatch), []
        stage = integrate_module._implicit_midpoint_step

        def first_stage(*args, **kwargs):
            before_stage.append(calls[0])
            return stage(*args, **kwargs)

        monkeypatch.setattr(integrate_module, "_implicit_midpoint_step", first_stage)
        for n_steps, jacobian_calls in ((size + 1, size + 1), (size, 0)):
            before_stage.clear()
            calls[0] = 0
            cfg = IntegratorConfig(dt=0.01, t_end=n_steps * 0.01, method="implicit_midpoint")
            integrate(state, tier, cfg, params, chi)
            assert len(before_stage) == n_steps
            assert before_stage[0] == jacobian_calls


def test_implicit_midpoint_non_convergence_is_step_failure():
    # y' = 100 y at dt = 1: the stage map expands by 50 per sweep, stays finite
    with pytest.raises(StepFailure, match=r"did not converge in 3 sweeps \(last residual "):
        integrate_module._implicit_midpoint_step(lambda t, y: 100.0 * y, 0.0, np.ones(2),
                                                 1.0, max_iter=3)


@pytest.mark.parametrize("eta, sweeps", [(1.0, 2), (np.finfo(float).eps ** 0.8, 1)])
def test_midpoint_stage_stops_on_the_carried_eta(eta, sweeps):
    # y' = A y with the exact Newton matrix: the first correction solves the
    # stage up to rounding.  A small eta carried from the step before stops
    # the iteration there; eta = 1, no estimate yet, takes a second sweep,
    # whose correction is the stage error
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    dt, calls = 0.1, []

    def f(t, y):
        calls.append(t)
        return a @ y

    m_inv = np.linalg.inv(np.eye(2) - (dt / 2.0) * a)
    y = np.array([1.0, 0.0])
    y_next, k, eta_out = integrate_module._implicit_midpoint_step(f, 0.0, y, dt, a @ y,
                                                                  m_inv, eta)
    assert len(calls) == sweeps
    exact = np.linalg.solve(np.eye(2) - (dt / 2.0) * a, (np.eye(2) + (dt / 2.0) * a) @ y)
    assert np.max(np.abs(y_next - exact)) <= 1e-15
    assert eta_out == eta if sweeps == 1 else eta_out < 1e-3


def test_midpoint_guess_is_exact_on_a_quintic_slope(monkeypatch):
    # f(t, y) = p(t) for a quintic p: every stage's slope is p(t + dt/2), and
    # the polynomial through the last six of them is p itself.  From the
    # seventh step on the guess is p(t + dt/2) up to rounding and the stage
    # stops after one sweep; a guess from three slopes misses by about
    # |p'''| dt^3 = 1e-5
    p = np.polynomial.Polynomial([0.3, -1.2, 0.8, 2.0, -1.5, 0.7])
    dt, n_steps, calls, guesses = 0.01, 30, [], []
    stage = integrate_module._implicit_midpoint_step

    def spied(f, t, y, dt, k_guess, *args):
        guesses.append(k_guess.copy())     # the stage updates its guess in place
        return stage(f, t, y, dt, k_guess, *args)

    def f(t, y):
        calls.append(t)
        return np.full(y.shape, p(t))

    monkeypatch.setattr(integrate_module, "_implicit_midpoint_step", spied)
    step = integrate_module._warm_started_midpoint(n_steps)
    y = np.zeros(3)
    for j in range(n_steps):
        before = len(calls)
        y = step(f, j * dt, y, dt)
        if j >= 6:
            assert len(calls) - before == 1, j
            assert np.max(np.abs(guesses[j] - p(j * dt + dt / 2.0))) <= 1e-14, j


@pytest.mark.parametrize("tier, n", [("schrodinger", 4), ("direct_nonlinear", 2),
                                     ("second_order", 1), ("gamma_geodesic", 4),
                                     ("full", 2), ("modified_first_order", 1)])
def test_midpoint_stage_stop_keeps_the_samples(rng, monkeypatch, tier, n):
    # the (tier, n) pairs of the benchmark's midpoint runs at its dt and
    # t_end: a stage that stops at _STAGE_KAPPA = 0.01 of its scale, often
    # after one sweep, moves no sample by more than 1e-13 of its largest
    # entry from a stage that stops at 1e-5 (2.1e-14 measured; 6.8e-14 with
    # the guess from the last three slopes)
    state, params, chi = tier_case(tier, n, rng)
    cfg = IntegratorConfig(dt=0.01, t_end=0.6, method="implicit_midpoint")

    def samples():
        return np.array([np.concatenate([s.psi, s.psi_dot, s.gamma, s.gamma_dot], axis=None)
                         for s in integrate(state, tier, cfg, params, chi).states])

    stopped = samples()
    monkeypatch.setattr(integrate_module, "_STAGE_KAPPA", integrate_module._STAGE_KAPPA * 1e-3)
    strict = samples()
    assert len(strict) == 61
    assert np.all(np.max(np.abs(stopped - strict), axis=1)
                  <= 1e-13 * np.max(np.abs(strict), axis=1))


@pytest.mark.parametrize("n_steps", [4, 50])
def test_midpoint_run_is_scale_invariant(rng, n_steps):
    # the stage test is relative with no absolute floor: psi scaled by a power
    # of two, on the M = I side (4 steps < N + 1 = 5) and the Newton side
    params, _, chi, _, state = schrodinger_setup(rng)
    cfg = IntegratorConfig(dt=0.01, t_end=n_steps * 0.01, method="implicit_midpoint")
    reference = np.array([s.psi for s in integrate(state, "schrodinger", cfg, params,
                                                   chi).states])
    for scale in (2.0 ** -40, 1.0, 2.0 ** 40):
        scaled = dataclasses.replace(state, psi=scale * state.psi)
        psi = np.array([s.psi for s in integrate(scaled, "schrodinger", cfg, params,
                                                 chi).states]) / scale
        assert np.max(np.abs(psi - reference)) <= 1e-12 * np.max(np.abs(reference))


def test_initial_time_after_the_span_is_refused(rng):
    # before, the run took one backward step and failed in Trajectory
    params, _, chi, _, state = schrodinger_setup(rng)
    late = dataclasses.replace(state, t=5.0)
    with pytest.raises(ValueError, match=r"initial\.t = 5\.0 .*\[t_start, t_end\) = "
                                         r"\[0\.0, 1\.0\)"):
        integrate(late, "schrodinger", IntegratorConfig(dt=0.1, t_end=1.0), params, chi)


def test_initial_time_before_the_span_is_refused(rng, monkeypatch):
    # before, the adaptive run failed with a misleading step size underflow
    params, _, chi, _, state = schrodinger_setup(rng)
    early = dataclasses.replace(state, t=-1e308)
    cfg = IntegratorConfig(dt=0.1, t_start=-1e307, t_end=1e307, method="rk45_adaptive")
    calls = count_rates(monkeypatch)
    with pytest.raises(ValueError, match=r"initial\.t = -1e\+308 .*"
                                         r"\[-1e\+307, 1e\+307\)"):
        integrate(early, "schrodinger", cfg, params, chi)
    assert calls[0] == 0


def test_stage_failure_names_tier_and_last_good_time_once(rng, monkeypatch):
    # a StepFailure raised inside the step is wrapped with the tier prefix,
    # and its "(last good t = ...)" suffix is not repeated
    params, _, chi, _, state = schrodinger_setup(rng)
    stage = integrate_module._implicit_midpoint_step
    monkeypatch.setattr(integrate_module, "_implicit_midpoint_step",
                        lambda *args: stage(*args, max_iter=1))
    cfg = IntegratorConfig(dt=0.1, t_end=1.0, method="implicit_midpoint")
    with pytest.raises(StepFailure, match=r"^\[schrodinger\] step failed: implicit midpoint "
                                          r"stage iteration did not converge") as err:
        integrate(state, "schrodinger", cfg, params, chi)
    assert str(err.value).count("(last good t = ") == 1
    assert str(err.value).endswith("(last good t = 0)")


def convergence_order(initial, tier: str, cfg: IntegratorConfig,
                      params: ModelParams, chi=None, dt_list=None,
                      gamma_tilde=None) -> float:
    """Richardson order estimate from >= 3 step sizes in geometric progression.

    Returns NaN when the solution differences are too small to resolve an
    order (e.g. a constant trajectory).
    """
    if dt_list is None or len(dt_list) < 3:
        raise ValueError("need at least 3 dt values")
    dt_list = list(dt_list)
    ratios = [dt_list[i] / dt_list[i + 1] for i in range(len(dt_list) - 1)]
    if not np.allclose(ratios, ratios[0], rtol=1e-12):
        raise ValueError("dt values must form a geometric progression")

    finals = []
    for dt in dt_list:
        run_cfg = dataclasses.replace(cfg, dt=dt, sample_stride=10 ** 9)
        traj = integrate(initial, tier, run_cfg, params, chi, gamma_tilde)
        finals.append(_final_vector(traj))

    diffs = [float(np.linalg.norm(finals[i] - finals[i + 1]))
             for i in range(len(finals) - 1)]
    floor = 1e-13 * max(1.0, float(np.linalg.norm(finals[-1])))
    if any(d <= floor for d in diffs):
        return float("nan")
    orders = [np.log(diffs[i] / diffs[i + 1]) / np.log(ratios[0])
              for i in range(len(diffs) - 1)]
    return float(np.mean(orders))


def _final_vector(traj: Trajectory) -> np.ndarray:
    state = traj.final_state
    return np.concatenate([state.psi, state.psi_dot, state.gamma, state.gamma_dot],
                          axis=None, dtype=complex)


class TestConvergenceOrder:
    def test_rk4_is_fourth_order(self, rng):
        params, gamma, chi, psi0, state = schrodinger_setup(rng, n=3)
        cfg = IntegratorConfig(dt=1e-2, t_end=0.5)
        order = convergence_order(state, "schrodinger", cfg, params, chi,
                                  dt_list=[2e-2, 1e-2, 5e-3, 2.5e-3])
        assert order == pytest.approx(4.0, abs=0.3)

    def test_midpoint_is_second_order(self, rng):
        params, gamma, chi, psi0, state = schrodinger_setup(rng, n=3)
        cfg = IntegratorConfig(dt=1e-2, t_end=0.5, method="implicit_midpoint")
        order = convergence_order(state, "schrodinger", cfg, params, chi,
                                  dt_list=[2e-2, 1e-2, 5e-3, 2.5e-3])
        assert order == pytest.approx(2.0, abs=0.3)

    def test_constant_solution_indeterminate(self, rng):
        n = 2
        state = FullState(psi=rand_vec(rng, n), psi_dot=np.zeros(n),
                          gamma=rand_pd(rng, n), gamma_dot=np.zeros((n, n)))
        cfg = IntegratorConfig(dt=1e-2, t_end=0.5)
        order = convergence_order(state, "schrodinger", cfg,
                                  ModelParams(alpha1=1.0, alpha5=-1.0),
                                  np.zeros((n, n)),
                                  dt_list=[2e-2, 1e-2, 5e-3])
        assert np.isnan(order)

    def test_runs_keep_every_config_field(self, rng):
        # only dt and the sample stride change between the runs
        params, gamma, chi, psi0, state = schrodinger_setup(rng)
        cfg = IntegratorConfig(dt=1e-2, t_end=0.5, max_steps=30)
        with pytest.raises(StepFailure, match="exceeded max_steps"):
            convergence_order(state, "schrodinger", cfg, params, chi,
                              dt_list=[2e-2, 1e-2, 5e-3])

    def test_needs_geometric_progression(self, rng):
        params, gamma, chi, psi0, state = schrodinger_setup(rng)
        cfg = IntegratorConfig(dt=1e-2, t_end=0.5)
        with pytest.raises(ValueError):
            convergence_order(state, "schrodinger", cfg, params, chi,
                              dt_list=[1e-2, 5e-3, 3e-3])


def test_modified_first_order_tier_runs(rng):
    n = 2
    params = ModelParams(alpha1=0.5, alpha3=0.1, alpha5=-1.0, alpha6=1.0,
                         alpha7=0.2, alpha8=0.1, alpha9=0.1, kappa=0.05)
    state = FullState(psi=rand_vec(rng, n), psi_dot=np.zeros(n),
                      gamma=rand_pd(rng, n), gamma_dot=rand_herm(rng, n, 0.2))
    chi = rand_herm(rng, n)
    cfg = IntegratorConfig(dt=1e-3, t_end=0.3, sample_stride=50)
    traj = integrate(state, "modified_first_order", cfg, params, chi)
    energies = traj.series("energy")
    assert (energies.max() - energies.min()) < 1e-8 * max(1.0, abs(energies[0]))


@pytest.mark.parametrize("tier, params", [
    ("schrodinger", ModelParams(alpha1=0.5, alpha5=-1.0)),
    ("gamma_geodesic", ModelParams(alpha6=1.0, alpha7=0.2)),
    ("full", ModelParams(alpha1=0.4, alpha2=0.3, alpha3=0.1, alpha6=0.9, alpha7=0.1,
                         alpha8=0.05, alpha9=0.05)),
    ("modified_first_order", ModelParams(alpha1=0.5, alpha3=0.1, alpha5=-1.0, alpha6=1.0,
                                         alpha7=0.2, alpha8=0.05, alpha9=0.05)),
])
def test_gamma_tiers_step_at_n32(rng, tier, params):
    n = 32
    state = FullState(psi=rand_vec(rng, n, 0.2), psi_dot=np.zeros(n), gamma=rand_pd(rng, n),
                      gamma_dot=rand_herm(rng, n, 0.05))
    traj = integrate(state, tier, IntegratorConfig(dt=1e-3, t_end=3e-3), params,
                     rand_herm(rng, n))
    assert np.allclose(traj.times, [0.0, 1e-3, 2e-3, 3e-3], rtol=0, atol=1e-15)
    assert np.all(np.isfinite(traj.final_state.gamma))


@pytest.mark.parametrize("method", ["rk4", "rk45_adaptive", "implicit_midpoint"])
@pytest.mark.parametrize("structural", [False, True])
def test_full_tier_invariant_under_coupling_scaling(rng, method, structural):
    # s L has the equations of motion of L: at s = 2**-40 every recorded
    # state keeps its bits and every energy is exactly s times
    n, s = 3, 2.0 ** -40
    params = ModelParams(alpha1=0.4, alpha2=0.3, alpha3=0.15, alpha4=0.2, alpha5=-1.0,
                         alpha6=0.9, alpha7=0.25, alpha8=0.2, alpha9=0.15, kappa=0.1)
    state = FullState(psi=rand_vec(rng, n, 0.5), psi_dot=rand_vec(rng, n, 0.3),
                      gamma=rand_pd(rng, n), gamma_dot=rand_herm(rng, n, 0.2))
    chi = rand_herm(rng, n)
    cfg = IntegratorConfig(dt=2e-2, t_end=0.2, method=method, sample_stride=2,
                           resymmetrize_gamma=structural)
    ref = integrate(state, "full", cfg, params, chi)
    got = integrate(state, "full", cfg, scale_couplings(params, s), chi)
    assert np.array_equal(got.times, ref.times)
    for a, b in zip(got.states, ref.states):
        for block in ("psi", "psi_dot", "gamma", "gamma_dot"):
            assert np.array_equal(getattr(a, block), getattr(b, block))
    assert np.array_equal(got.series("energy"), s * ref.series("energy"))


def test_second_order_tier_with_gamma_tilde(rng):
    n = 2
    params = ModelParams(alpha1=0.7, alpha2=0.5, alpha5=-2.0)
    gamma = rand_pd(rng, n)
    gamma_tilde = rand_pd(rng, n)
    chi = rand_herm(rng, n)
    state = FullState(psi=rand_vec(rng, n), psi_dot=rand_vec(rng, n, 0.3),
                      gamma=gamma, gamma_dot=np.zeros((n, n)))
    cfg = IntegratorConfig(dt=1e-3, t_end=0.5, sample_stride=100)
    traj = integrate(state, "second_order", cfg, params, chi, gamma_tilde=gamma_tilde)
    assert traj.times[-1] == pytest.approx(0.5)
    # gamma_tilde is refused by the conditioning test that refuses gamma
    with pytest.raises(SingularForm):
        integrate(state, "second_order", cfg, params, chi,
                  gamma_tilde=np.diag([1.0, 1e-13]))


def test_time_dependent_chi_callback(rng):
    # chi(t) support: a slowly rotating Hamiltonian form still integrates
    n = 2
    params = ModelParams(alpha1=0.5, alpha5=-1.0)
    gamma = np.eye(n)
    base = rand_herm(rng, n)

    def chi(t):
        return np.cos(0.3 * t) * base

    state = FullState(psi=rand_vec(rng, n), psi_dot=np.zeros(n),
                      gamma=gamma, gamma_dot=np.zeros((n, n)))
    cfg = IntegratorConfig(dt=1e-3, t_end=0.5, sample_stride=100)
    traj = integrate(state, "schrodinger", cfg, params, chi)
    th = traj.series("theta1")
    assert (th.max() - th.min()) < 1e-10  # hermitian generator keeps the norm


_EL_TIERS = {
    "schrodinger": dict(alpha1=0.5, alpha5=-1.0),
    "direct_nonlinear": dict(alpha1=0.5, alpha5=-1.0),
    "second_order": dict(alpha1=0.5, alpha2=0.7, alpha5=-1.0),
    "gamma_geodesic": dict(alpha6=1.0, alpha7=0.2),
    "full": dict(alpha1=0.4, alpha2=0.3, alpha3=0.15, alpha5=-1.0, alpha6=0.9,
                 alpha7=0.25, alpha8=0.2, alpha9=0.15),
    "modified_first_order": dict(alpha1=0.4, alpha3=0.15, alpha5=-1.0, alpha6=0.9,
                                 alpha7=0.25, alpha8=0.2, alpha9=0.15),
}


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("case", ["alpha4", "potential", "constant_forcing",
                                  "harmonic_forcing", "gamma_tilde"])
@pytest.mark.parametrize("tier", list(_EL_TIERS))
def test_tier_rates_solve_the_el_residual(rng, tier, case, n):
    # every tier's rates, fed back into el_residual, leave no residual in the
    # sectors it steps: psi, gamma or both (the geodesic tier at psi = 0)
    gamma, chi = rand_pd(rng, n), rand_herm(rng, n)
    drive = rand_vec(rng, n, 0.3)
    extra = {"alpha4": dict(alpha4=0.3),
             "potential": dict(potential=PotentialSpec(kind="quartic_shifted", kappa=0.3,
                                                       shift=0.5)),
             "constant_forcing": dict(forcing=lambda t: drive),
             "harmonic_forcing": dict(forcing=lambda t: np.cos(1.3 * t) * drive),
             "gamma_tilde": {}}[case]
    params = ModelParams(**_EL_TIERS[tier], **extra)
    stepped = integrate_module.STEPPED_BLOCKS[tier]
    gamma_dot = rand_herm(rng, n, 0.2) if "gamma" in stepped else np.zeros((n, n))
    moving = 1.0 if "psi" in stepped else 0.0
    state = FullState(psi=rand_vec(rng, n, 0.6 * moving), psi_dot=rand_vec(rng, n, 0.3 * moving),
                      gamma=gamma, gamma_dot=gamma_dot, t=0.3)
    cfg = IntegratorConfig(dt=0.1, t_start=0.3, t_end=1.0)
    system = integrate_module._build_system(state, tier, cfg, params, chi,
                                            gamma if case == "gamma_tilde" else None)
    rates = system.codec.unpack(system.rates(state.t, system.y0))
    if "psi_dot" in stepped:
        accel = (rates["psi_dot"], rates.get("gamma_dot"))
    elif "psi" in stepped:
        state = dataclasses.replace(state, psi_dot=rates["psi"])
        accel = (None, rates.get("gamma_dot"))
    else:
        accel = (None, rates["gamma_dot"])
    residual = el_residual(state, accel, params, chi)
    if "psi" in stepped:
        assert np.linalg.norm(residual.r_psi) <= 1e-12 * np.linalg.norm(gamma @ state.psi)
    if "gamma" in stepped:
        assert (np.linalg.norm(residual.r_gamma)
                <= 1e-12 * np.linalg.norm(np.linalg.inv(gamma)))


def packed_rates(rates) -> np.ndarray:
    """The rate vector of the rate blocks ``rates``, given in stepped order,
    packed block by block: one concatenate, viewed as reals."""
    return np.concatenate(rates, axis=None, dtype=complex).view(float)


def _unprepared_rates(tier, blocks, gamma, params, chi, gamma_tilde, t) -> list:
    """The rates of ``_System.rates`` from the kernels' unprepared paths, which
    invert K and resolve chi on every call; the Gamma-stepping rates are
    prepared for this call."""
    b = blocks
    chi_t = resolve_chi(chi, t)
    if tier in ("schrodinger", "direct_nonlinear"):
        return [rhs_direct_nonlinear_raw(b["psi"], gamma, params, chi_t, t)]
    if tier == "second_order":
        stage = _Blocks(b["psi"], b["psi_dot"], gamma, None, t)
        return [b["psi_dot"], rhs_second_order(stage, chi, params, gamma_tilde)]
    if tier == "gamma_geodesic":
        return [b["gamma_dot"], rhs_gamma_geodesic(b["gamma"], b["gamma_dot"],
                                                   2.0 * params.alpha6, 2.0 * params.alpha7)]
    gg = np.array((b["gamma"], b["gamma_dot"]))
    if tier == "full":
        acc_psi, acc_g = _PreparedGammaRate(params, chi_t, first_order=False)(
            np.array((b["psi"], b["psi_dot"])), gg, t)
        return [b["psi_dot"], acc_psi, b["gamma_dot"], acc_g]
    psid, acc_g = _PreparedGammaRate(params, chi_t, first_order=True)(b["psi"], gg, t)
    return [psid, b["gamma_dot"], acc_g]


_FROZEN_TIERS = ("schrodinger", "direct_nonlinear", "second_order")
_PARITY_CASES = ("plain", "alpha4", "potential", "constant_forcing", "harmonic_forcing",
                 "gamma_tilde", "callable_chi")


@pytest.mark.parametrize("tier, case, structural", [
    (tier, case, structural)
    for tier in integrate_module.MODEL_TIERS
    for case in (_PARITY_CASES if tier != "gamma_geodesic" else ("plain",))
    if case != "gamma_tilde" or tier == "second_order"
    for structural in ((False,) if tier in _FROZEN_TIERS else (False, True))])
def test_rate_closure_matches_the_unprepared_kernels(rng, tier, case, structural):
    # the run's rate closure against the kernels' unprepared paths at random
    # states: within 1e-14 of max|ref| where the frozen tiers apply the probed
    # operator, bitwise where the Gamma-stepping kernels are called as before.
    # Its rate vector has the bits of its blocks packed one by one, and the
    # stepped rate, deriv's, has its bits with gamma_dot's block replaced by
    # its Hermitian part when full or modified_first_order resymmetrizes
    stepped = integrate_module.STEPPED_BLOCKS[tier]
    for n in (1, 2, 3, 5, 8):
        drive, base, turn = rand_vec(rng, n, 0.3), rand_herm(rng, n), rand_herm(rng, n, 0.3)
        extra = {"alpha4": dict(alpha4=0.3),
                 "potential": dict(potential=PotentialSpec(kind="quartic_shifted", kappa=0.3,
                                                           shift=0.5)),
                 "constant_forcing": dict(forcing=lambda t: drive),
                 "harmonic_forcing": dict(forcing=lambda t: np.cos(1.3 * t) * drive),
                 }.get(case, {})
        params = ModelParams(**_EL_TIERS.get(tier, dict(alpha6=1.0, alpha7=0.2)), **extra)
        chi = (lambda t: base + np.sin(t) * turn) if case == "callable_chi" else base
        gamma_tilde = rand_pd(rng, n) if case == "gamma_tilde" else None
        state = FullState(psi=rand_vec(rng, n), psi_dot=rand_vec(rng, n, 0.3),
                          gamma=rand_pd(rng, n), gamma_dot=np.zeros((n, n)))
        cfg = IntegratorConfig(dt=0.1, t_end=1.0, resymmetrize_gamma=structural)
        system = integrate_module._build_system(state, tier, cfg, params, chi, gamma_tilde)
        for _ in range(3):
            t = float(rng.uniform(0.0, 2.0))
            y = system.codec.pack([rand_pd(rng, n) if block == "gamma"
                                   else rand_herm(rng, n, 0.3) if block == "gamma_dot"
                                   else rand_vec(rng, n) for block in stepped])
            rate = system.rates(t, y)
            got = list(system.codec.unpack(rate).values())
            assert rate.tobytes() == packed_rates(got).tobytes()
            stepped_rate = (packed_rates([*got[:-1], hermitian_part(got[-1])])
                            if structural and tier != "gamma_geodesic" else rate)
            assert system.deriv(t, y).tobytes() == stepped_rate.tobytes()
            if "gamma" in stepped:     # gamma's rate is y's own gamma_dot
                assert (system.codec.unpack(rate)["gamma"].tobytes()
                        == system.codec.unpack(y)["gamma_dot"].tobytes())
            want = _unprepared_rates(tier, system.codec.unpack(y), state.gamma, params, chi,
                                     gamma_tilde, t)
            assert len(got) == len(want) == len(stepped)
            for g, w in zip(got, want):
                assert g.shape == w.shape
                if tier in _FROZEN_TIERS:
                    assert np.max(np.abs(g - w)) <= 1e-14 * np.max(np.abs(w))
                else:
                    assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("constant_chi", [True, False])
@pytest.mark.parametrize("tier", ["schrodinger", "direct_nonlinear", "second_order"])
def test_frozen_tier_factorizes_before_it_steps(rng, monkeypatch, tier, constant_chi):
    # the form multiplying the psi rate is inverted once per run, so no
    # numpy.linalg factorization runs inside deriv; the psi rate is prepared
    # too, so deriv builds no _ResidualPieces, and it resolves chi only when
    # chi is a callable
    inside, calls = [False], []
    for name in ("inv", "solve", "lstsq", "pinv", "det", "eigh", "cholesky", "qr", "svd"):
        def counted(*args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            if inside[0]:
                calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    for module in (dynamics_module, integrate_module):
        def resolved(*args, _fn=module.resolve_chi, **kwargs):
            if inside[0]:
                calls.append("resolve_chi")
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, "resolve_chi", resolved)

    class Pieces(dynamics_module._ResidualPieces):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            if inside[0]:
                calls.append("_ResidualPieces")
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(dynamics_module, "_ResidualPieces", Pieces)
    deriv = integrate_module._System.deriv

    def spied(self, t, y):
        inside[0] = True
        try:
            return deriv(self, t, y)
        finally:
            inside[0] = False

    monkeypatch.setattr(integrate_module._System, "deriv", spied)
    initial, params, chi = tier_case(tier, 3, rng)
    if constant_chi and callable(chi):
        chi = chi(0.7)
    elif not constant_chi and not callable(chi):
        chi = lambda t, base=chi: np.cos(t) * base           # noqa: E731
    gamma_tilde = rand_pd(rng, 3) if tier == "second_order" else None
    traj = integrate(initial, tier, IntegratorConfig(dt=0.01, t_end=0.05), params, chi,
                     gamma_tilde)
    assert len(traj.times) == 6
    if constant_chi:
        assert calls == []
    else:
        assert set(calls) == {"resolve_chi"}


#: each tier's kernel, by its name in the integrate module
_KERNELS = {"schrodinger": "rhs_direct_nonlinear_raw",
            "direct_nonlinear": "rhs_direct_nonlinear_raw",
            "second_order": "rhs_second_order",
            "gamma_geodesic": "rhs_gamma_geodesic",
            "full": "_full_accelerations_raw",
            "modified_first_order": "_modified_first_order_raw"}


@pytest.mark.parametrize("structural", [False, True])
@pytest.mark.parametrize("tier", integrate_module.MODEL_TIERS)
def test_build_system_calls_no_kernel(rng, monkeypatch, tier, structural):
    # the run's set-up (the prepared psi rate's probe included) evaluates no
    # right-hand side through the kernels' names: every call of one is a step's
    # or a sample's, as the benchmark's RHS counts assume
    calls = []
    for name in set(_KERNELS.values()):
        def counted(*args, _fn=getattr(integrate_module, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(integrate_module, name, counted)
    initial, params, chi = tier_case(tier, 3, rng)
    cfg = IntegratorConfig(dt=0.01, t_end=0.02, resymmetrize_gamma=structural)
    for chi_case in (chi, resolve_chi(chi, 0.3)):
        system = integrate_module._build_system(initial, tier, cfg, params, chi_case,
                                                rand_pd(rng, 3) if tier == "second_order"
                                                else None)
        assert calls == []
        system.rates(system.t0, system.y0)
        assert calls == [_KERNELS[tier]]
        del calls[:]


#: the arguments of each kernel that hold the stage's blocks: the prepared
#: rates take (prepared, blocks..., t), the geodesic rate (gamma, gamma_dot)
_STAGE_INPUTS = {"rhs_direct_nonlinear_raw": lambda args: args[1:2],
                 "rhs_second_order": lambda args: args[1:3],
                 "rhs_gamma_geodesic": lambda args: args[:2],
                 "_full_accelerations_raw": lambda args: args[1:3],
                 "_modified_first_order_raw": lambda args: args[1:3]}


@pytest.mark.parametrize("structural", [False, True])
@pytest.mark.parametrize("tier", integrate_module.MODEL_TIERS)
def test_kernel_that_writes_into_its_input_raises(rng, monkeypatch, tier, structural):
    # every block a kernel reads from y is a read-only view of y: a kernel
    # that writes into any one of them raises, and y keeps its bits
    name = _KERNELS[tier]
    kernel = getattr(integrate_module, name)
    initial, params, chi = tier_case(tier, 3, rng)
    cfg = IntegratorConfig(dt=0.01, t_end=0.02, resymmetrize_gamma=structural)
    system = integrate_module._build_system(initial, tier, cfg, params, chi)
    y = system.y0 + 0.01 * rng.normal(size=system.y0.size)
    y_copy = y.copy()
    for target in range(1 if name == "rhs_direct_nonlinear_raw" else 2):
        def writing(*args, _target=target, **kwargs):
            _STAGE_INPUTS[name](args)[_target][...] = 0.0
            return kernel(*args, **kwargs)

        monkeypatch.setattr(integrate_module, name, writing)
        with pytest.raises(ValueError, match="read-only"):
            system.deriv(system.t0, y)
        assert y.tobytes() == y_copy.tobytes()


def reference_record(system, tier, cfg, params, chi, t, y):
    """A sample recorded one at a time, as before samples were stacked: its
    own rates, FullState, energy, theta1 and drift."""
    stepped = integrate_module.STEPPED_BLOCKS[tier]
    b = system.blocks(y)
    first_order = "psi" in stepped and "psi_dot" not in stepped
    steps_gamma = "gamma" in stepped
    rates = None
    if first_order or (steps_gamma and cfg.resymmetrize_gamma):
        rates = system.codec.unpack(system.rates(t, y))
    if first_order:
        b["psi_dot"] = rates["psi"]
    if not steps_gamma:
        drift = 0.0
    elif cfg.resymmetrize_gamma:
        drift = hermiticity_drift(rates["gamma_dot"])
    else:
        drift = hermiticity_drift(b["gamma"])
    state = FullState(psi=b["psi"], psi_dot=b["psi_dot"], gamma=hermitian_part(b["gamma"]),
                      gamma_dot=hermitian_part(b["gamma_dot"]), t=t)
    theta = theta1(b["psi"], state.gamma) if "psi" in stepped else 0.0
    return state, {"t": t, "energy": energy(state, params, chi), "theta1": theta,
                   "herm_drift": drift}


def recorded_samples(monkeypatch) -> list:
    """(system, t, copy of y) of every sample the runs record."""
    samples = []
    build = integrate_module._build_system

    def spied(*args, **kwargs):
        system = build(*args, **kwargs)
        record = system.record

        def spy(t, y):
            samples.append((system, t, y.copy()))
            record(t, y)

        system.record = spy
        return system

    monkeypatch.setattr(integrate_module, "_build_system", spied)
    return samples


def tier_case(tier, n, rng):
    """(initial state, params, chi) of a short run of ``tier`` at dimension
    n; the first-order tiers carry a time-dependent chi, forcing and a
    potential evaluated per sample."""
    gamma, chi = rand_pd(rng, n), rand_herm(rng, n)
    psi, psid, gd = rand_vec(rng, n, 0.6), rand_vec(rng, n, 0.3), rand_herm(rng, n, 0.2)
    drive = rand_herm(rng, n, 0.3)
    params = {
        "schrodinger": ModelParams(alpha1=0.5, alpha5=-1.0),
        "direct_nonlinear": ModelParams(
            alpha1=0.5, alpha5=-1.0,
            potential=PotentialSpec(kind="quartic_shifted", kappa=0.3, shift=0.5),
            forcing=lambda t: 0.1 * np.cos(t) * np.ones(n)),
        "second_order": ModelParams(
            alpha1=0.7, alpha2=0.5, alpha5=-2.0,
            potential=PotentialSpec(kind="custom", f=lambda x: 0.1 * x ** 3,
                                    f_prime=lambda x: 0.3 * x ** 2)),
        "gamma_geodesic": ModelParams(alpha6=1.0, alpha7=0.2),
        "full": ModelParams(alpha1=0.4, alpha2=0.3, alpha3=0.15, alpha4=0.2,
                            alpha6=0.9, alpha7=0.25, alpha8=0.2, alpha9=0.15, kappa=0.1),
        "modified_first_order": ModelParams(alpha1=0.5, alpha3=0.1, alpha5=-1.0, alpha6=1.0,
                                            alpha7=0.2, alpha8=0.1, alpha9=0.1, kappa=0.05),
    }[tier]
    if tier in ("schrodinger", "direct_nonlinear"):
        base = chi
        chi = lambda t: base + np.sin(t) * drive           # noqa: E731
    if tier == "gamma_geodesic":
        psi = psid = np.zeros(n)
    elif tier in ("schrodinger", "direct_nonlinear", "second_order"):
        gd = np.zeros((n, n))
    return FullState(psi=psi, psi_dot=psid, gamma=gamma, gamma_dot=gd), params, chi


@pytest.mark.parametrize("method", ["rk4", "rk45_adaptive", "implicit_midpoint"])
@pytest.mark.parametrize("structural", [False, True])
@pytest.mark.parametrize("tier", integrate_module.MODEL_TIERS)
def test_stacked_record_matches_per_sample_record_bitwise(rng, monkeypatch, tier,
                                                          structural, method):
    samples = recorded_samples(monkeypatch)
    for n in (1, 2, 4, 8):
        initial, params, chi = tier_case(tier, n, rng)
        cfg = IntegratorConfig(dt=0.02, t_end=0.1, method=method, rel_tol=1e-6,
                               abs_tol=1e-8, resymmetrize_gamma=structural)
        del samples[:]
        traj = integrate(initial, tier, cfg, params, chi)
        assert traj.times.tobytes() == np.array([t for _, t, _ in samples]).tobytes()
        assert len(traj.states) == len(samples) > 2
        for state, diag, (system, t, y) in zip(traj.states, traj.diagnostics, samples):
            ref_state, ref_diag = reference_record(system, tier, cfg, params, chi, t, y)
            assert type(state) is FullState and state.t == ref_state.t
            for block in ("psi", "psi_dot", "gamma", "gamma_dot"):
                got, want = getattr(state, block), getattr(ref_state, block)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert diag.keys() == ref_diag.keys()
            for key, value in ref_diag.items():
                assert type(diag[key]) is float
                assert np.float64(diag[key]).tobytes() == np.float64(value).tobytes()


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("method", ["rk4", "rk45_adaptive", "implicit_midpoint"])
@pytest.mark.parametrize("tier", ["gamma_geodesic", "full", "modified_first_order"])
def test_resymmetrized_gamma_stays_hermitian_bitwise(rng, monkeypatch, tier, method, n):
    # gamma - gamma^dag = 0 is a linear invariant, which Runge-Kutta methods
    # keep: with the acceleration's Hermitian part stepped, the
    # stepped gamma and gamma_dot equal their conjugate transposes entry by
    # entry after every step (sample_stride 1).  The midpoint runs take J,
    # N + 1 <= 200 steps
    samples = recorded_samples(monkeypatch)
    initial, params, chi = tier_case(tier, n, rng)
    cfg = IntegratorConfig(dt=0.005, t_end=1.0, method=method, resymmetrize_gamma=True)
    integrate(initial, tier, cfg, params, chi)
    assert len(samples) > 10
    for system, _, y in samples:
        blocks = system.codec.unpack(y)
        for block in ("gamma", "gamma_dot"):
            assert np.array_equal(blocks[block], blocks[block].conj().T), (block, y)


class TestStackedRecord:
    def test_first_order_samples_take_one_rate_call_each(self, rng, monkeypatch):
        # the steppers' calls, plus one call per recorded sample when the
        # run is recorded
        params, _, chi, _, state = schrodinger_setup(rng)
        calls = count_rates(monkeypatch)
        traj = integrate(state, "schrodinger", IntegratorConfig(dt=0.02, t_end=1.0),
                         params, chi)
        assert traj.times.size == 51 and calls[0] == 4 * 50 + 51
        calls[0] = 0
        attempts = count_dp_attempts(monkeypatch)
        cfg = IntegratorConfig(dt=0.5, t_end=2.0, method="rk45_adaptive", rel_tol=1e-9,
                               abs_tol=1e-11)
        traj = integrate(state, "schrodinger", cfg, params, chi)
        assert len(attempts) > traj.times.size - 1          # the case has rejections
        assert calls[0] == 6 * len(attempts) + 1 + traj.times.size

    def test_structural_gamma_samples_take_one_rate_call_each(self, rng, monkeypatch):
        n = 2
        state = FullState(psi=np.zeros(n), psi_dot=np.zeros(n), gamma=rand_pd(rng, n),
                          gamma_dot=rand_herm(rng, n, 0.3))
        calls = count_rates(monkeypatch)
        traj = integrate(state, "gamma_geodesic",
                         IntegratorConfig(dt=0.02, t_end=0.4, resymmetrize_gamma=True),
                         ModelParams(alpha6=1.0, alpha7=0.2))
        assert traj.times.size == 21 and calls[0] == 4 * 20 + 21

    @pytest.mark.parametrize("block, index", [("psi", 1), ("gamma", 2)])
    def test_non_finite_sample_names_the_sample(self, rng, block, index):
        n = 2
        state = FullState(psi=rand_vec(rng, n), psi_dot=rand_vec(rng, n),
                          gamma=rand_pd(rng, n), gamma_dot=rand_herm(rng, n))
        params = ModelParams(alpha1=0.4, alpha2=0.3, alpha6=0.9, alpha7=0.1)
        system = integrate_module._build_system(
            state, "full", IntegratorConfig(dt=0.1, t_end=1.0), params, np.zeros((n, n)))
        blocks = system.codec.unpack(system.y0)
        bad_block = blocks[block].copy()
        bad_block.flat[index] = np.nan
        bad = system.codec.pack([bad_block if name == block else value
                                 for name, value in blocks.items()])
        for t, y in ((0.0, system.y0), (0.1, system.y0), (0.2, bad), (0.3, bad)):
            system.record(t, y)
        what = "state vector" if block == "psi" else "form"
        with pytest.raises(NonFinite, match=rf"^\[full\] sample 2 at t = 0.2: {what} has "
                                            "non-finite entries$"):
            system.finish()

    def test_sample_error_comes_before_a_later_step_failure(self, rng, monkeypatch):
        # the samples are recorded when the run ends, but an invalid sample
        # still raises its own error ahead of a step that fails after it
        n = 2
        state = FullState(psi=rand_vec(rng, n), psi_dot=rand_vec(rng, n),
                          gamma=rand_pd(rng, n), gamma_dot=rand_herm(rng, n, 0.1))
        params = ModelParams(alpha1=0.4, alpha2=0.3, alpha6=0.9, alpha7=0.1)
        real_energy, real_step = integrate_module.energy, integrate_module._rk4_step

        def energy_failing_at_sample_2(state, *args, **kwargs):
            if np.any(np.asarray(state.t) == 0.02):
                raise ValueError("energy refused")
            return real_energy(state, *args, **kwargs)

        def step_failing_late(f, t, y, dt):
            if t > 0.035:
                raise HermitonError("stage refused")
            return real_step(f, t, y, dt)

        monkeypatch.setattr(integrate_module, "energy", energy_failing_at_sample_2)
        monkeypatch.setattr(integrate_module, "_rk4_step", step_failing_late)
        cfg = IntegratorConfig(dt=0.01, t_end=0.1)
        with pytest.raises(ValueError, match=r"^\[full\] sample 2 at t = 0.02: energy refused$"):
            integrate(state, "full", cfg, params, np.zeros((n, n)))
        monkeypatch.setattr(integrate_module, "energy", real_energy)
        with pytest.raises(StepFailure, match="stage refused"):
            integrate(state, "full", cfg, params, np.zeros((n, n)))


def textbook_rk4(f, t, y, dt):
    """Classical Runge-Kutta, written out as one expression."""
    k1 = f(t, y)
    k2 = f(t + dt / 2.0, y + (dt / 2.0) * k1)
    k3 = f(t + dt / 2.0, y + (dt / 2.0) * k2)
    k4 = f(t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def textbook_dp(f, t, y, dt, k1=None):
    """Dormand-Prince 5(4) with first same as last, every sum a Python sum."""
    a, c = integrate_module._DP_A, integrate_module._DP_C
    k = [f(t, y) if k1 is None else k1]
    for i in range(1, 7):
        k.append(f(t + c[i] * dt, y + dt * sum(aa * kk for aa, kk in zip(a[i], k))))
    y5 = y + dt * sum(b * kk for b, kk in zip(integrate_module._DP_B5, k))
    y4 = y + dt * sum(b * kk for b, kk in zip(integrate_module._DP_B4, k))
    return y5, y5 - y4, k[0], k[6]


def special_entries(rng, size, binades=20):
    """Random reals over 2 ``binades`` binades, from 2^-binades to 2^binades,
    with signed zeros, signed infinities and NaNs of both signs among them."""
    x = rng.normal(size=size) * 2.0 ** rng.integers(-binades, binades, size=size)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan])
    pick = rng.random(size) < 0.15
    x[pick] = rng.choice(specials, size=int(pick.sum()))
    return x


def scripted_rates(rng, size, calls, binades=20):
    """f(t, y) that records a copy of its arguments and returns the next of
    ``calls`` prepared slopes of ``special_entries``, which it keeps with a
    copy of each."""
    slopes = [special_entries(rng, size, binades) for _ in range(calls)]
    log, given = [], []

    def f(t, y):
        log.append((t, y.tobytes()))
        k = slopes[len(given)]
        given.append((k, k.copy()))
        return k
    return f, log, given


def unchanged(pairs) -> bool:
    return all(a.tobytes() == b.tobytes() for a, b in pairs)


@pytest.mark.parametrize("size", [2, 8, 38, 288])
def test_stage_sums_have_the_textbook_bits(rng, size):
    # the in-place stage sums against the textbook expressions, on entries
    # with signed zeros, infinities and NaNs: every stage argument and every
    # output has the same bits, and no array a caller holds is written.  A
    # stepped vector holds the real view of at least one complex number, so
    # size >= 2: an in-place add of one-element arrays takes the sign of a NaN
    # from its other operand when both are NaN.  Slopes over 2^-53 to 2^53,
    # about 1e-16 to 1e16, make a sum taken in another order change bits
    with np.errstate(invalid="ignore", over="ignore"):
        check_stage_sums(rng, size)


def check_stage_sums(rng, size):
    for seed, binades in itertools.product(range(20), (20, 53)):
        y, dt, t = special_entries(rng, size), float(rng.uniform(1e-3, 0.5)), float(seed)
        y_copy = y.copy()
        runs = []
        for step in (integrate_module._rk4_step, textbook_rk4):
            f, log, given = scripted_rates(np.random.default_rng(seed), size, 4, binades)
            runs.append((step(f, t, y, dt).tobytes(), log))
            assert unchanged(given) and unchanged([(y, y_copy)])
        assert runs[0] == runs[1]
        for k1 in (None, special_entries(rng, size, binades)):
            k1_copy = None if k1 is None else k1.copy()
            runs = []
            for step in (integrate_module._dp_step, textbook_dp):
                f, log, given = scripted_rates(np.random.default_rng(seed), size, 7, binades)
                out = step(f, t, y, dt, k1)
                runs.append(([a.tobytes() for a in out], log))
                assert unchanged(given) and unchanged([(y, y_copy)])
                if k1 is not None:
                    assert out[2] is k1 and unchanged([(k1, k1_copy)])
            assert runs[0] == runs[1]


@pytest.mark.parametrize("method", ["rk4", "rk45_adaptive", "implicit_midpoint"])
@pytest.mark.parametrize("tier", ["schrodinger", "gamma_geodesic", "full"])
def test_recorded_samples_are_not_written_after_they_are_taken(rng, monkeypatch, tier, method):
    # every vector the recorder buffers keeps the bits it had when recorded
    taken = []
    real_record = integrate_module._System.record

    def record(self, t, y):
        taken.append((y, y.copy()))
        return real_record(self, t, y)

    monkeypatch.setattr(integrate_module._System, "record", record)
    initial, params, chi = tier_case(tier, 2, rng)
    integrate(initial, tier, IntegratorConfig(dt=0.01, t_end=0.05, method=method), params, chi)
    assert len(taken) >= 2 and unchanged(taken)
