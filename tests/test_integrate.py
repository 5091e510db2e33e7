import dataclasses

import numpy as np
import pytest

import hermiton.dynamics as dynamics_module
import hermiton.integrate as integrate_module
from hermiton.dynamics import (
    _full_accelerations_raw,
    _modified_first_order_raw,
    el_residual,
    rhs_direct_nonlinear_raw,
    rhs_gamma_geodesic,
    rhs_second_order,
)
from hermiton.errors import HermitonError, NonFinite, SingularForm, StepFailure
from hermiton.hermitian_algebra import hermitian_part, hermiticity_drift
from hermiton.integrate import IntegratorConfig, Trajectory, integrate
from hermiton.models import FullState, ModelParams, PotentialSpec, energy, resolve_chi, theta1
from hermiton.oracles import GammaExponentialSolution, exact_gamma, exact_schrodinger

from conftest import rand_herm, rand_pd, rand_vec, scale_couplings, symplectic_smoke_case


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


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("structural", [False, True])
@pytest.mark.parametrize("tier", integrate_module.MODEL_TIERS)
def test_codec_round_trip_and_read_only_views(rng, tier, structural, n):
    # a y the codec writes packs back from its blocks bitwise, the (S, N)
    # stack unpacks as its rows do, and the complex blocks are views of y
    stepped = integrate_module.STEPPED_BLOCKS[tier]
    codec = integrate_module._Codec(stepped, n, structural)
    matrices = ("gamma", "gamma_dot")
    stack = np.array([codec.pack([rand_herm(rng, n) if block in matrices
                                  else rand_vec(rng, n) for block in stepped])
                      for _ in range(3)])
    stacked = codec.unpack(stack)
    for k, y in enumerate(stack):
        blocks = codec.unpack(y)
        assert codec.pack([blocks[block] for block in stepped]).tobytes() == y.tobytes()
        for block in stepped:
            assert stacked[block][k].tobytes() == blocks[block].tobytes()
            if not (structural and block in matrices):
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
        # overflows must still end the run with a StepFailure
        n = 2
        params = ModelParams(alpha1=0.7, alpha2=0.5, alpha5=-2.0)
        state = FullState(psi=np.ones(n), psi_dot=np.zeros(n), gamma=np.eye(n),
                          gamma_dot=np.zeros((n, n)))
        cfg = IntegratorConfig(dt=0.1, t_end=1.0, method=method)
        with np.errstate(all="ignore"), pytest.raises(StepFailure,
                                                      match="non-finite") as err:
            integrate(state, "second_order", cfg, params, np.diag([1e300, -1e300]))
        assert err.value.last_good_t == 0.0

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
        # tolerances below round-off: the error estimate of the zero
        # components of psi is measured against abs_tol alone, so steps are
        # rejected until dt underflows (without the guard the run crawls from
        # t ~ 1e-270 up through every exponent, with dt ~ 1e-2 t: 39 175
        # attempted steps before it reaches t_end)
        params = ModelParams(alpha1=0.5, alpha5=-1.0)
        chi = np.diag([1.0, -1.0])
        state = FullState(psi=np.array([1.0, 0.0]), psi_dot=np.zeros(2),
                          gamma=rand_pd(rng, 2), gamma_dot=np.zeros((2, 2)))
        cfg = IntegratorConfig(dt=0.01, t_end=1.0, method="rk45_adaptive",
                               rel_tol=1e-300, abs_tol=1e-300)
        attempts = count_dp_attempts(monkeypatch)
        with np.errstate(over="ignore"), pytest.raises(StepFailure,
                                                       match="step size underflow"):
            integrate(state, "schrodinger", cfg, params, chi)
        assert len(attempts) < 100


def count_rates(monkeypatch) -> list:
    """Count the RHS evaluations of every tier (calls of each run's rate
    closure, ``_System.rates``) in the runs built after this call."""
    calls = [0]
    build = integrate_module._build_system

    def spied(*args, **kwargs):
        system = build(*args, **kwargs)
        rates = system.rates

        def counted(t, y):
            calls[0] += 1
            return rates(t, y)

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

    def test_implicit_midpoint_at_most_five_per_step(self, monkeypatch):
        # the problem of test_canonical::test_implicit_midpoint_symplectic_smoke
        params, state, chi = symplectic_smoke_case()
        n_steps = 2 * 10 ** 4
        cfg = IntegratorConfig(dt=0.01, t_end=n_steps * 0.01, method="implicit_midpoint",
                               sample_stride=500)
        calls = count_rates(monkeypatch)
        integrate(state, "second_order", cfg, params, chi)
        # 5 per step once three earlier slopes feed the predictor; the first
        # three steps may take up to 3 more each
        assert calls[0] <= 5 * n_steps + 9


def test_implicit_midpoint_non_convergence_is_step_failure():
    # y' = 100 y at dt = 1: the stage map expands by 50 per sweep, stays finite
    with pytest.raises(StepFailure, match=r"did not converge in 3 sweeps \(last residual "):
        integrate_module._implicit_midpoint_step(lambda t, y: 100.0 * y, 0.0, np.ones(2),
                                                 1.0, max_iter=3)


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
    # every psi tier's rates, fed back into el_residual, leave no psi residual
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
    state = FullState(psi=rand_vec(rng, n, 0.6), psi_dot=rand_vec(rng, n, 0.3), gamma=gamma,
                      gamma_dot=gamma_dot, t=0.3)
    cfg = IntegratorConfig(dt=0.1, t_start=0.3, t_end=1.0)
    system = integrate_module._build_system(state, tier, cfg, params, chi,
                                            gamma if case == "gamma_tilde" else None)
    rates = dict(zip(stepped, system.rates(state.t, system.y0)))
    if "psi_dot" in stepped:
        accel = (rates["psi_dot"], rates.get("gamma_dot"))
    else:
        state = dataclasses.replace(state, psi_dot=rates["psi"])
        accel = (None, rates.get("gamma_dot"))
    r_psi = el_residual(state, accel, params, chi).r_psi
    assert np.linalg.norm(r_psi) <= 1e-12 * np.linalg.norm(gamma @ state.psi)


def _unprepared_rates(tier, blocks, gamma, params, chi, gamma_tilde, t) -> list:
    """The rates of ``_System.rates`` from the kernels' unprepared paths, which
    invert K and resolve chi on every call."""
    b = blocks
    chi_t = resolve_chi(chi, t)
    if tier in ("schrodinger", "direct_nonlinear"):
        return [rhs_direct_nonlinear_raw(b["psi"], gamma, params, chi_t, t)]
    if tier == "second_order":
        stage = integrate_module._Blocks(b["psi"], b["psi_dot"], gamma, None, t)
        return [b["psi_dot"], rhs_second_order(stage, chi, params, gamma_tilde)]
    if tier == "gamma_geodesic":
        return [b["gamma_dot"], rhs_gamma_geodesic(b["gamma"], b["gamma_dot"],
                                                   2.0 * params.alpha6, 2.0 * params.alpha7)]
    if tier == "full":
        acc_psi, acc_g = _full_accelerations_raw(b["psi"], b["psi_dot"], b["gamma"],
                                                 b["gamma_dot"], params, chi_t, t)
        return [b["psi_dot"], acc_psi, b["gamma_dot"], acc_g]
    psid, acc_g = _modified_first_order_raw(b["psi"], b["gamma"], b["gamma_dot"], params,
                                            chi_t, t)
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
    # operator, bitwise where a callable chi keeps the unprepared arithmetic
    # and where the Gamma-stepping kernels are called as before
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
            got = system.rates(t, y)
            want = _unprepared_rates(tier, system.codec.unpack(y), state.gamma, params, chi,
                                     gamma_tilde, t)
            assert len(got) == len(want) == len(stepped)
            for g, w in zip(got, want):
                assert g.shape == w.shape
                if tier in _FROZEN_TIERS and case != "callable_chi":
                    assert np.max(np.abs(g - w)) <= 1e-14 * np.max(np.abs(w))
                else:
                    assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("constant_chi", [True, False])
@pytest.mark.parametrize("tier", ["schrodinger", "direct_nonlinear", "second_order"])
def test_frozen_tier_factorizes_before_it_steps(rng, monkeypatch, tier, constant_chi):
    # the form multiplying the psi rate is inverted once per run, so no
    # numpy.linalg factorization runs inside deriv; with a constant chi the
    # psi rate is prepared too, so deriv builds no _ResidualPieces and
    # resolves no chi
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
    else:     # a callable chi keeps the generic path, still with no factorization
        assert set(calls) == {"_ResidualPieces", "resolve_chi"}


@pytest.mark.parametrize("structural", [False, True])
@pytest.mark.parametrize("tier", integrate_module.MODEL_TIERS)
def test_build_system_calls_no_kernel(rng, monkeypatch, tier, structural):
    # the run's set-up (the prepared psi rate's probe included) evaluates no
    # right-hand side through the kernels' names: every call of one is a step's
    # or a sample's, as the benchmark's RHS counts assume
    kernels = ("rhs_direct_nonlinear_raw", "rhs_second_order", "rhs_gamma_geodesic",
               "_full_accelerations_raw", "_modified_first_order_raw")
    calls = []
    for name in kernels:
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
        assert calls == [{"schrodinger": "rhs_direct_nonlinear_raw",
                          "direct_nonlinear": "rhs_direct_nonlinear_raw",
                          "second_order": "rhs_second_order",
                          "gamma_geodesic": "rhs_gamma_geodesic",
                          "full": "_full_accelerations_raw",
                          "modified_first_order": "_modified_first_order_raw"}[tier]]
        del calls[:]


def reference_record(system, tier, cfg, params, chi, t, y):
    """A sample recorded one at a time, as before samples were stacked: its
    own rates, FullState, energy, theta1 and drift."""
    stepped = integrate_module.STEPPED_BLOCKS[tier]
    b = system.blocks(y)
    first_order = "psi" in stepped and "psi_dot" not in stepped
    steps_gamma = "gamma" in stepped
    rates = None
    if first_order or (steps_gamma and cfg.resymmetrize_gamma):
        rates = dict(zip(stepped, system.rates(t, y)))
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


class TestStackedRecord:
    def test_first_order_samples_take_the_stepper_stages(self, rng, monkeypatch):
        # a sample takes the next RK4 step's first stage or the accepted
        # Dormand-Prince step's last one; only the final RK4 sample pays
        params, _, chi, _, state = schrodinger_setup(rng)
        calls = count_rates(monkeypatch)
        traj = integrate(state, "schrodinger", IntegratorConfig(dt=0.02, t_end=1.0),
                         params, chi)
        assert traj.times.size == 51 and calls[0] == 4 * 50 + 1
        calls[0] = 0
        attempts = count_dp_attempts(monkeypatch)
        cfg = IntegratorConfig(dt=0.5, t_end=2.0, method="rk45_adaptive", rel_tol=1e-9,
                               abs_tol=1e-11)
        traj = integrate(state, "schrodinger", cfg, params, chi)
        assert len(attempts) > traj.times.size - 1          # the case has rejections
        assert calls[0] == 6 * len(attempts) + 1

    def test_structural_gamma_samples_take_the_stepper_stages(self, rng, monkeypatch):
        n = 2
        state = FullState(psi=np.zeros(n), psi_dot=np.zeros(n), gamma=rand_pd(rng, n),
                          gamma_dot=rand_herm(rng, n, 0.3))
        calls = count_rates(monkeypatch)
        integrate(state, "gamma_geodesic",
                  IntegratorConfig(dt=0.02, t_end=0.4, resymmetrize_gamma=True),
                  ModelParams(alpha6=1.0, alpha7=0.2))
        assert calls[0] == 4 * 20 + 1

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
