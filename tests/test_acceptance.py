"""Acceptance gate: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (run with -s or -v to see them)."""

import numpy as np
import pytest

from hermiton import canonical, diagnostics, dynamics, models, oracles
from hermiton.hermitian_algebra import hermiticity_drift, matrix_exp
from hermiton.integrate import IntegratorConfig, integrate
from hermiton.models import FullState, ModelParams, PotentialSpec

from conftest import full_params, rand_herm, rand_pd, rand_vec, smooth_path


def report(name: str, value: float, tol: float, larger_is_worse: bool = True):
    passed = value <= tol if larger_is_worse else value >= tol
    print(f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'} "
          f"(value {value:.3e}, tolerance {tol:.3e})")
    assert passed, f"{name}: {value:.3e} vs tolerance {tol:.3e}"


@pytest.fixture(scope="module")
def acceptance_rng():
    return np.random.default_rng(271828)


@pytest.fixture(scope="module")
def long_full_run(acceptance_rng):
    """One 10^4-step RK4 trajectory of the GL-invariant full model, shared by
    the energy and charge criteria."""
    rng = acceptance_rng
    n = 2
    params = full_params(alpha5=0.0)
    state = FullState(psi=0.7 * rand_vec(rng, n), psi_dot=0.3 * rand_vec(rng, n),
                      gamma=rand_pd(rng, n), gamma_dot=rand_herm(rng, n, 0.1))
    cfg = IntegratorConfig(dt=5e-4, t_end=5.0, sample_stride=100)
    chi = np.zeros((n, n))
    traj = integrate(state, "full", cfg, params, chi)
    return params, state, chi, traj


def test_criterion_1_schrodinger_recovery(acceptance_rng):
    # preset alpha1 = hbar/2, alpha5 = -1, frozen gamma: integrated psi(1)
    # matches the matrix-exponential solution for 20 random gamma-Hermitian
    # Hamilton operators, n <= 4
    rng = acceptance_rng
    params = ModelParams(alpha1=0.5, alpha5=-1.0)
    worst_err = 0.0
    worst_theta = 0.0
    for k in range(20):
        n = 1 + k % 4
        gamma = rand_pd(rng, n)
        chi = rand_herm(rng, n)
        psi0 = rand_vec(rng, n)
        state = FullState(psi=psi0, psi_dot=np.zeros(n), gamma=gamma,
                          gamma_dot=np.zeros((n, n)))
        cfg = IntegratorConfig(dt=1e-3, t_end=1.0, sample_stride=100)
        traj = integrate(state, "schrodinger", cfg, params, chi)
        exact = matrix_exp(-1j * np.linalg.solve(gamma, chi) / 1.0, 1.0) @ psi0
        worst_err = max(worst_err, float(np.max(np.abs(traj.psi[-1] - exact))))
        theta = traj.theta1
        worst_theta = max(worst_theta, float(theta.max() - theta.min()))
    report("1 schrodinger recovery (endpoint)", worst_err, 1e-8)
    report("1 schrodinger recovery (theta1 drift)", worst_theta, 1e-10)


def test_criterion_2_gamma_geodesic_exactness(acceptance_rng):
    rng = acceptance_rng
    worst_err = worst_drift = worst_b_gap = 0.0
    for n in (1, 2, 3):
        g = rand_pd(rng, n)
        e = np.linalg.solve(g, rand_herm(rng, n, 0.5))
        state = FullState(psi=np.zeros(n), psi_dot=np.zeros(n),
                          gamma=g, gamma_dot=g @ e)
        cfg = IntegratorConfig(dt=1e-3, t_end=1.0, sample_stride=100)
        runs = {}
        for alpha7 in (0.2, -0.1):      # both keep alpha6 + n alpha7 != 0
            params = ModelParams(alpha6=1.0, alpha7=alpha7)
            runs[alpha7] = integrate(state, "gamma_geodesic", cfg, params)
        traj = runs[0.2]
        exact = g @ matrix_exp(e, 1.0)
        worst_err = max(worst_err, float(np.max(np.abs(traj.gamma[-1] - exact))))
        worst_drift = max(worst_drift, float(traj.herm_drift.max()))
        worst_b_gap = max(worst_b_gap, float(np.max(np.abs(
            runs[0.2].gamma[-1] - runs[-0.1].gamma[-1]))))
    report("2 gamma geodesic (endpoint vs exponential)", worst_err, 1e-7)
    report("2 gamma geodesic (hermiticity drift, pre-projection)", worst_drift, 1e-9)
    report("2 gamma geodesic (alpha7 independence)", worst_b_gap, 1e-9)


def test_criterion_3_omega_inverse_ladder(acceptance_rng):
    rng = acceptance_rng
    worst = 0.0
    for k in range(100):
        n = 1 + k % 4
        params = ModelParams(
            alpha6=float(rng.uniform(0.5, 2.0)),
            alpha7=float(rng.uniform(-0.1, 0.5)),
            alpha8=float(rng.uniform(0.05, 0.5)),      # alpha8, alpha9 != 0
            alpha9=float(rng.uniform(0.05, 0.5)))
        psi = rand_vec(rng, n)
        gamma = rand_pd(rng, n)
        closed = models.omega_inverse(psi, gamma, params)
        brute = oracles.omega_inverse_numeric(psi, gamma, params)
        gap = float(np.max(np.abs(closed - brute)))
        worst = max(worst, gap / max(1.0, float(np.max(np.abs(brute)))))
    report("3 omega inverse ladder vs brute force", worst, 1e-9)


def test_criterion_4_legendre_round_trip(acceptance_rng):
    rng = acceptance_rng
    params = full_params()
    worst = 0.0
    for k in range(100):
        n = 1 + k % 4
        state = FullState(psi=rand_vec(rng, n), psi_dot=rand_vec(rng, n),
                          gamma=rand_pd(rng, n), gamma_dot=rand_herm(rng, n, 0.5))
        point = canonical.legendre_regular(state, params)
        psid, gd = canonical.legendre_inverse(point, params)
        worst = max(worst, float(np.max(np.abs(psid - state.psi_dot))),
                    float(np.max(np.abs(gd - state.gamma_dot))))
    report("4 legendre round trip", worst, 1e-10)


def test_criterion_5_variational_oracle(acceptance_rng):
    rng = acceptance_rng
    params = full_params()
    worst_rel = 0.0
    ratios = []
    for k in range(20):
        n = 1 + k % 2
        chi = rand_herm(rng, n)
        seed = int(rng.integers(1, 10 ** 6))
        gaps = []
        for dt, h in ((4e-3, 4e-4), (2e-3, 2e-4)):
            rng_path = np.random.default_rng(seed)
            path, fns = smooth_path(rng_path, n, 41, dt)
            node = 20
            t = path.times[node]
            state = FullState(psi=fns["psi"](t), psi_dot=fns["psi_dot"](t),
                              gamma=fns["gamma"](t), gamma_dot=fns["gamma_dot"](t),
                              t=t)
            res = dynamics.el_residual(
                state, (fns["psi_ddot"](t), fns["gamma_ddot"](t)), params, chi)
            fd_psi = oracles.action_gradient_fd(path, params, chi, "psi", node, h=h)
            fd_gamma = oracles.action_gradient_fd(path, params, chi, "gamma", node, h=h)
            scale = max(float(np.max(np.abs(fd_psi))),
                        float(np.max(np.abs(fd_gamma))), 1e-12)
            gap = max(float(np.max(np.abs(res.r_psi - fd_psi))),
                      float(np.max(np.abs(res.r_gamma - fd_gamma))))
            gaps.append((gap, gap / scale))
        worst_rel = max(worst_rel, gaps[1][1])
        ratios.append(gaps[0][0] / max(gaps[1][0], 1e-300))
    report("5 variational oracle (relative agreement)", worst_rel, 1e-5)
    report("5 variational oracle (convergence factor under halving)",
           float(np.median(ratios)), 2.5, larger_is_worse=False)


def test_criterion_6_energy_conservation(long_full_run):
    params, state, chi, traj = long_full_run
    # the run must actually move, otherwise conservation is vacuous
    assert np.max(np.abs(traj.psi[-1] - state.psi)) > 1e-2
    assert np.max(np.abs(traj.gamma[-1] - state.gamma)) > 1e-2
    energies = traj.energy
    drift = float(energies.max() - energies.min()) / max(float(np.abs(energies).max()),
                                                         1e-6)
    report("6 energy conservation over 1e4 RK4 steps", drift, 1e-6)
    # companion invariant: hermiticity stays intact before any re-projection
    assert float(traj.herm_drift.max()) < 1e-8


def test_criterion_7_noether_charges(long_full_run, acceptance_rng):
    rng = acceptance_rng
    params, state, chi, traj = long_full_run
    n = state.n
    gens = [(f"H{i}", rand_herm(rng, n)) for i in range(5)]
    gens += [(f"A{i}", 1j * rand_herm(rng, n)) for i in range(5)]
    v, w, charges = diagnostics.monitor(traj, params, gamma0=state.gamma, generators=gens)
    summary = diagnostics.drift_summary(traj, [label for label, _ in gens], charges)
    worst_charge = max(summary["charges"].values())
    report("7 noether charges (drift over 1e4 steps)", worst_charge, 1e-6)
    report("7 noether charges (V, W hermiticity)",
           float(max(hermiticity_drift(v).max(), hermiticity_drift(w).max())), 1e-8)


def test_criterion_8_dirac_constraint_persistence(acceptance_rng):
    rng = acceptance_rng
    n = 2
    alpha, gamma_c = 1.0, 2.0
    spec = PotentialSpec(kind="quartic_pure", kappa=0.4)
    params = ModelParams(alpha1=alpha, alpha5=-gamma_c, potential=spec)
    gamma = rand_pd(rng, n)
    chi = rand_herm(rng, n)
    psi = rand_vec(rng, n)
    pi, _ = canonical.legendre_singular(psi, gamma, alpha)
    y = np.concatenate([psi, pi])
    dt = 1e-3

    def f(y):
        psid, pid = canonical.dirac_flow(y[:n], y[n:], gamma, params, chi)
        return np.concatenate([psid, pid])

    for _ in range(1000):
        k1 = f(y)
        k2 = f(y + dt / 2 * k1)
        k3 = f(y + dt / 2 * k2)
        k4 = f(y + dt * k3)
        y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    point = canonical.PhasePoint(psi=y[:n], pi=y[n:], gamma=gamma)
    violation = canonical.primary_constraints(point, alpha).max_violation()
    report("8 dirac constraints (persistence over 1e3 steps)", violation, 1e-8)

    worst_gap = 0.0
    for _ in range(20):
        psi_r = rand_vec(rng, n)
        flow = canonical.reduced_bracket_flow(psi_r, gamma, chi, alpha, spec)
        direct = dynamics.rhs_direct_nonlinear_raw(psi_r, gamma, params, chi)
        worst_gap = max(worst_gap, float(np.max(np.abs(flow - direct))))
    report("8 dirac constraints (bracket flow vs direct rhs)", worst_gap, 1e-12)


def test_criterion_9_darboux_reduction():
    alpha = 0.5
    n = 2
    gamma = np.eye(n) / (2.0 * alpha)
    chi = np.array([[1.0, 0.2 + 0.1j], [0.2 - 0.1j, 3.0]])
    chart = canonical.darboux_reduce(gamma, chi, ModelParams(alpha1=alpha, alpha5=-2.0))
    form_gap = max(float(np.max(np.abs(chart.form_xy + np.eye(n)))),
                   float(np.max(np.abs(chart.form_xx))),
                   float(np.max(np.abs(chart.form_yy))))
    report("9 darboux reduction (two-form equals dy^dx)", form_gap, 0.0)

    # hand expansion of the reduced Hamiltonian for n = 2:
    # H = psi^ (2 chi) psi with psi = (x + i y)/sqrt(2)
    sigma = np.array([[1.0, 0.2], [0.2, 3.0]])
    alpha_m = np.array([[0.0, 0.1], [-0.1, 0.0]])
    coeff_gap = max(float(np.max(np.abs(chart.ham_xx - sigma))),
                    float(np.max(np.abs(chart.ham_yy - sigma))),
                    float(np.max(np.abs(chart.ham_xy + 2.0 * alpha_m))))
    report("9 darboux reduction (hand-expanded coefficients)", coeff_gap, 1e-12)


def test_criterion_10_two_path_flow(acceptance_rng):
    rng = acceptance_rng
    params = full_params()
    n = 2
    chi = rand_herm(rng, n)
    worst = 0.0
    for _ in range(50):
        state = FullState(psi=rand_vec(rng, n), psi_dot=rand_vec(rng, n),
                          gamma=rand_pd(rng, n), gamma_dot=rand_herm(rng, n, 0.5))
        point = canonical.legendre_regular(state, params)
        flow_fd = canonical.hamilton_flow_check(point, params, chi)
        flow_lag = canonical.lagrangian_flow_through_legendre(point, params, chi)
        scale = max(1.0, float(np.max(np.abs(flow_lag.pi_dot))),
                    float(np.max(np.abs(flow_lag.pi_gamma_dot))))
        gap = max(float(np.max(np.abs(flow_fd.psi_dot - flow_lag.psi_dot))),
                  float(np.max(np.abs(flow_fd.pi_dot - flow_lag.pi_dot))),
                  float(np.max(np.abs(flow_fd.gamma_dot - flow_lag.gamma_dot))),
                  float(np.max(np.abs(flow_fd.pi_gamma_dot - flow_lag.pi_gamma_dot))))
        worst = max(worst, gap / scale)
    report("10 hamiltonian/lagrangian two-path flow", worst, 1e-5)
