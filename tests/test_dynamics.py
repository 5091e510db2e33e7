from dataclasses import replace

import numpy as np
import pytest

from hermiton import dynamics, integrate as integrate_module, models
from hermiton.dynamics import (
    el_residual,
    rhs_direct_nonlinear_raw,
    rhs_full,
    rhs_gamma_geodesic,
    rhs_modified_first_order,
    rhs_schrodinger,
    rhs_second_order,
)
from hermiton.errors import DegenerateKinetic, SingularForm, ZeroAlpha2
from hermiton.hermitian_algebra import (
    _checked_inverse,
    hermitian_part,
    hermiticity_drift,
    invert_form,
    matrix_exp,
)
from hermiton.integrate import IntegratorConfig
from hermiton.models import (
    FullState,
    ModelParams,
    PotentialSpec,
    effective_hamiltonian,
    energy,
    omega_inverse,
    resolve_chi,
    theta1,
)
from hermiton.oracles import GammaExponentialSolution, exact_gamma, exact_schrodinger

from conftest import (
    count_numeric_inverse,
    full_params,
    rand_herm,
    rand_pd,
    rand_vec,
    scale_couplings,
)


class TestRhsSchrodinger:
    def test_diagonal_phase_rotation(self):
        # gamma = I, chi = diag(E1, E2): component phases rotate independently
        chi = np.diag([1.0, 2.0])
        psi = np.array([1.0, 0.0], dtype=complex)
        psid = rhs_schrodinger(psi, np.eye(2), chi, alpha=1.0, gamma_coeff=2.0)
        assert np.allclose(psid, [-1j, 0.0])

    def test_zero_hamiltonian(self, rng):
        psid = rhs_schrodinger(rand_vec(rng, 3), rand_pd(rng, 3),
                               np.zeros((3, 3)), 1.0, 2.0)
        assert np.allclose(psid, 0.0)

    def test_explicit_index_raising(self):
        gamma = np.diag([2.0, 1.0])
        psi = np.array([1.0, 1.0], dtype=complex)
        psid = rhs_schrodinger(psi, gamma, np.eye(2), alpha=1.0, gamma_coeff=2.0)
        assert np.allclose(psid, -1j * np.array([0.5, 1.0]))


class TestRhsSecondOrder:
    def test_rest_state(self, rng):
        n = 2
        state = FullState(psi=rand_vec(rng, n), psi_dot=np.zeros(n),
                          gamma=rand_pd(rng, n), gamma_dot=np.zeros((n, n)))
        acc = rhs_second_order(state, np.zeros((n, n)),
                               ModelParams(alpha1=1.0, alpha2=0.5))
        assert np.allclose(acc, 0.0)

    def test_plane_wave_dispersion(self):
        # scalar model: a root omega of (beta/2) w^2 + alpha w - gamma E/2 = 0
        # makes psi = exp(-i w t) consistent: psi_ddot == -w^2 psi
        alpha, beta, gamma_c, e_level = 1.0, 0.4, 2.0, 1.5
        disc = np.sqrt(alpha ** 2 + beta * gamma_c * e_level)
        omega = (-alpha + disc) / beta
        psi = np.array([1.0 + 0.0j])
        state = FullState(psi=psi, psi_dot=-1j * omega * psi, gamma=np.eye(1),
                          gamma_dot=np.zeros((1, 1)))
        params = ModelParams(alpha1=alpha, alpha2=beta, alpha5=-gamma_c)
        acc = rhs_second_order(state, e_level * np.eye(1), params)
        assert np.allclose(acc, -omega ** 2 * psi, atol=1e-12)

    def test_two_metric_collapse(self, rng):
        n = 2
        params = ModelParams(alpha1=0.7, alpha2=0.4, alpha5=-2.0)
        gamma = rand_pd(rng, n)
        chi = rand_herm(rng, n)
        state = FullState(psi=rand_vec(rng, n), psi_dot=rand_vec(rng, n),
                          gamma=gamma, gamma_dot=np.zeros((n, n)))
        assert np.allclose(rhs_second_order(state, chi, params, gamma_tilde=gamma),
                           rhs_second_order(state, chi, params), atol=1e-12)

    def test_zero_beta_raises(self, rng):
        state = FullState(psi=rand_vec(rng, 2), psi_dot=rand_vec(rng, 2),
                          gamma=rand_pd(rng, 2), gamma_dot=np.zeros((2, 2)))
        with pytest.raises(ZeroAlpha2):
            rhs_second_order(state, np.eye(2), ModelParams(alpha1=1.0))

    def test_beta_to_zero_termwise_limit(self, rng):
        # the second-order residual with bounded psi_ddot converges termwise
        # to the first-order residual as beta -> 0
        n = 2
        gamma, chi = rand_pd(rng, n), rand_herm(rng, n)
        psi, psid = rand_vec(rng, n), rand_vec(rng, n)
        psidd = rand_vec(rng, n)
        state = FullState(psi=psi, psi_dot=psid, gamma=gamma,
                          gamma_dot=np.zeros((n, n)))
        r_first = el_residual(state, (psidd, np.zeros((n, n))),
                              ModelParams(alpha1=0.7, alpha5=-2.0), chi).r_psi
        gaps = []
        for beta in (1e-3, 1e-6):
            r_second = el_residual(
                state, (psidd, np.zeros((n, n))),
                ModelParams(alpha1=0.7, alpha2=beta, alpha5=-2.0), chi).r_psi
            gaps.append(np.max(np.abs(r_second - r_first)))
        assert gaps[1] < 1e-2 * gaps[0]


class TestElResidual:
    def test_vanishes_on_frozen_schrodinger_solution(self, rng):
        n = 3
        hbar = 1.0
        params = ModelParams(alpha1=hbar / 2.0, alpha5=-1.0)
        gamma = rand_pd(rng, n)
        chi = rand_herm(rng, n)
        h = np.linalg.inv(gamma) @ chi
        psi0 = rand_vec(rng, n)
        for t in (0.0, 0.4, 1.1):
            psi = exact_schrodinger(psi0, h, hbar, t)
            psi_dot = -1j / hbar * (h @ psi)
            state = FullState(psi=psi, psi_dot=psi_dot, gamma=gamma,
                              gamma_dot=np.zeros((n, n)), t=t)
            res = el_residual(state, None, params, chi)
            assert np.max(np.abs(res.r_psi)) < 1e-12
            assert np.max(np.abs(res.r_gamma)) < np.inf  # gamma eq not imposed here

    def test_vanishes_on_gamma_exponential(self, rng):
        # psi = 0, alpha8 = alpha9 = kappa = 0: the exponential family solves
        # the gamma equation exactly
        n = 2
        params = ModelParams(alpha6=0.9, alpha7=0.25)
        g = rand_pd(rng, n)
        e = np.linalg.solve(g, rand_herm(rng, n, 0.6))
        sol = GammaExponentialSolution(G=g, E=e)
        for t in (0.0, 0.7):
            gamma = exact_gamma(sol, t)
            expt = matrix_exp(e, t)
            gamma_dot = g @ e @ expt
            gamma_ddot = g @ e @ e @ expt
            state = FullState(psi=np.zeros(n), psi_dot=np.zeros(n),
                              gamma=gamma, gamma_dot=gamma_dot, t=t)
            res = el_residual(state, (np.zeros(n), gamma_ddot), params,
                              np.zeros((n, n)))
            assert np.max(np.abs(res.r_gamma)) < 1e-11

    def test_gamma_residual_hermitian(self, rng):
        params = full_params()
        n = 2
        state = FullState(psi=rand_vec(rng, n), psi_dot=rand_vec(rng, n),
                          gamma=rand_pd(rng, n), gamma_dot=rand_herm(rng, n))
        res = el_residual(state, (rand_vec(rng, n), rand_herm(rng, n)),
                          params, rand_herm(rng, n))
        assert hermiticity_drift(res.r_gamma) < 1e-9

    def test_forcing_enters_psi_sector_only(self, rng):
        n = 2
        force = rand_vec(rng, n)
        params = full_params(forcing=lambda t: force)
        base = full_params()
        state = FullState(psi=rand_vec(rng, n), psi_dot=rand_vec(rng, n),
                          gamma=rand_pd(rng, n), gamma_dot=rand_herm(rng, n))
        chi = rand_herm(rng, n)
        res_f = el_residual(state, None, params, chi)
        res_0 = el_residual(state, None, base, chi)
        assert np.allclose(res_f.r_psi - res_0.r_psi, -np.conj(force))
        assert np.allclose(res_f.r_gamma, res_0.r_gamma)


class TestRhsFull:
    def test_equilibrium(self, rng):
        n = 2
        params = full_params(alpha3=0.0, alpha4=0.0, kappa=0.0)
        state = FullState(psi=np.zeros(n), psi_dot=np.zeros(n),
                          gamma=rand_pd(rng, n), gamma_dot=np.zeros((n, n)))
        acc_psi, acc_gamma = rhs_full(state, params, np.zeros((n, n)))
        assert np.allclose(acc_psi, 0.0) and np.allclose(acc_gamma, 0.0)

    def test_psi_zero_decouples_gamma(self, rng):
        # with psi = 0 the gamma sector is the pure geodesic flow
        n = 2
        params = full_params(alpha4=0.0, kappa=0.0)
        gamma, gamma_dot = rand_pd(rng, n), rand_herm(rng, n, 0.5)
        state = FullState(psi=np.zeros(n), psi_dot=np.zeros(n),
                          gamma=gamma, gamma_dot=gamma_dot)
        _, acc_gamma = rhs_full(state, params, rand_herm(rng, n))
        geo = rhs_gamma_geodesic(gamma, gamma_dot, 2.0 * params.alpha6, 2.0 * params.alpha7)
        assert np.allclose(acc_gamma, geo, atol=1e-10)

    def test_self_consistency_random_states(self, rng):
        params = full_params()
        for _ in range(100):
            n = int(rng.integers(1, 4))
            chi = rand_herm(rng, n)
            state = FullState(psi=rand_vec(rng, n), psi_dot=rand_vec(rng, n),
                              gamma=rand_pd(rng, n), gamma_dot=rand_herm(rng, n, 0.5))
            acc = rhs_full(state, params, chi)
            res = el_residual(state, acc, params, chi)
            scale = max(np.max(np.abs(res.r_psi)), np.max(np.abs(res.r_gamma)), 1.0)
            assert np.max(np.abs(res.r_psi)) < 1e-9 * scale
            assert np.max(np.abs(res.r_gamma)) < 1e-9 * scale

    def test_alpha2_zero_redirects(self, rng):
        state = FullState(psi=rand_vec(rng, 2), psi_dot=rand_vec(rng, 2),
                          gamma=rand_pd(rng, 2), gamma_dot=rand_herm(rng, 2))
        with pytest.raises(ZeroAlpha2):
            rhs_full(state, full_params(alpha2=0.0), np.eye(2))


class TestRhsModifiedFirstOrder:
    def test_static_metric_instant(self, rng):
        n = 2
        params = ModelParams(alpha1=0.5, alpha5=-1.0, alpha6=1.0, alpha7=0.2)
        gamma, chi = rand_pd(rng, n), rand_herm(rng, n)
        psi = rand_vec(rng, n)
        psid, _ = rhs_modified_first_order(psi, gamma, np.zeros((n, n)), params, chi)
        assert np.allclose(psid, -1j * np.linalg.inv(gamma) @ chi @ psi, atol=1e-12)

    def test_psi_zero_pure_gamma_flow(self, rng):
        n = 2
        params = full_params(alpha2=0.0, alpha4=0.0, kappa=0.0)
        gamma, gamma_dot = rand_pd(rng, n), rand_herm(rng, n, 0.4)
        psid, acc_gamma = rhs_modified_first_order(
            np.zeros(n), gamma, gamma_dot, params, np.zeros((n, n)))
        assert np.allclose(psid, 0.0)
        geo = rhs_gamma_geodesic(gamma, gamma_dot, 2.0 * params.alpha6, 2.0 * params.alpha7)
        assert np.allclose(acc_gamma, geo, atol=1e-10)

    def test_consistency_with_el_residual(self, rng):
        params = full_params(alpha2=0.0)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            chi = rand_herm(rng, n)
            psi = rand_vec(rng, n)
            gamma, gamma_dot = rand_pd(rng, n), rand_herm(rng, n, 0.5)
            psid, acc_gamma = rhs_modified_first_order(psi, gamma, gamma_dot,
                                                       params, chi)
            state = FullState(psi=psi, psi_dot=psid, gamma=gamma,
                              gamma_dot=gamma_dot)
            res = el_residual(state, (np.zeros(n), acc_gamma), params, chi)
            assert np.max(np.abs(res.r_psi)) < 1e-10
            assert np.max(np.abs(res.r_gamma)) < 1e-10


    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_effective_hamiltonian_generates_psid(self, rng, n):
        # 2i alpha1 psid = H_eff psi - gamma^{-1} conj(F), every coupling on
        drive = rand_vec(rng, n, 0.3)
        params = full_params(alpha2=0.0, forcing=lambda t: np.cos(t) * drive)
        chi, t = rand_herm(rng, n), 0.7
        state = FullState(psi=rand_vec(rng, n), psi_dot=np.zeros(n), gamma=rand_pd(rng, n),
                          gamma_dot=rand_herm(rng, n, 0.5), t=t)
        psid, _ = rhs_modified_first_order(state.psi, state.gamma, state.gamma_dot,
                                           params, chi, t)
        heff = effective_hamiltonian(state, params, chi)
        expected = heff @ state.psi - np.linalg.solve(state.gamma, np.conj(params.forcing(t)))
        got = 2.0j * params.alpha1 * psid
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


class TestRhsGammaGeodesic:
    def test_rest(self, rng):
        g = rand_pd(rng, 2)
        assert np.allclose(rhs_gamma_geodesic(g, np.zeros((2, 2)), 2.0, 0.5), 0.0)

    def test_scalar_case(self):
        # n=1: g_ddot = g_dot^2 / g, solved by g(t) = g0 exp(e t)
        g0, e = 1.3, 0.8
        gdd = rhs_gamma_geodesic(np.array([[g0]]), np.array([[g0 * e]]), 2.0, 0.0)
        assert gdd[0, 0] == pytest.approx(g0 * e * e)

    def test_exponential_family_satisfies_equation(self, rng):
        n = 3
        g = rand_pd(rng, n)
        e = np.linalg.solve(g, rand_herm(rng, n, 0.5))
        sol = GammaExponentialSolution(G=g, E=e)
        for t in np.linspace(0.0, 2.0, 9):
            gamma = exact_gamma(sol, t)
            expt = matrix_exp(e, t)
            gamma_dot = g @ e @ expt
            gamma_ddot = g @ e @ e @ expt
            back = rhs_gamma_geodesic(gamma, gamma_dot, 2.0, 0.3)
            assert np.max(np.abs(back - gamma_ddot)) < 1e-10 * max(
                1.0, np.max(np.abs(gamma_ddot)))

    def test_degenerate_couplings(self, rng):
        g, gd = rand_pd(rng, 2), rand_herm(rng, 2)
        with pytest.raises(DegenerateKinetic):
            rhs_gamma_geodesic(g, gd, 0.0, 1.0)
        with pytest.raises(DegenerateKinetic):
            rhs_gamma_geodesic(g, gd, 4.0, -2.0)  # A + n B = 0, the Killing values

    @pytest.mark.parametrize("structural", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_prepared_closure_has_the_bits_of_the_public_call(self, rng, n, structural):
        # the run's stepped rate, with and without resymmetrize_gamma, at the
        # blocks its codec reads, against the public 4-argument call and the
        # Hermitian part of gamma_dot gamma^-1 gamma_dot
        params = ModelParams(alpha6=1.0, alpha7=0.2)
        state = FullState(psi=np.zeros(n), psi_dot=np.zeros(n), gamma=rand_pd(rng, n),
                          gamma_dot=rand_herm(rng, n, 0.3))
        cfg = IntegratorConfig(dt=0.01, t_end=0.1, resymmetrize_gamma=structural)
        system = integrate_module._build_system(state, "gamma_geodesic", cfg, params,
                                                np.zeros((n, n)))
        for y in (system.y0, system.y0 + 0.1 * rng.normal(size=system.y0.size)):
            blocks = system.codec.unpack(y)
            g, gd = blocks["gamma"], blocks["gamma_dot"]
            rate = system.codec.unpack(system.deriv(0.0, y))["gamma_dot"]
            public = rhs_gamma_geodesic(g, gd, 2.0 * params.alpha6, 2.0 * params.alpha7)
            assert rate.tobytes() == public.tobytes()
            assert rate.tobytes() == hermitian_part(gd.dot(_checked_inverse(g)).dot(gd)).tobytes()

    @pytest.mark.parametrize("scale", [2.0 ** -300, 1.0, 2.0 ** 300])
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_run_refuses_the_couplings_at_set_up(self, rng, monkeypatch, n, scale):
        # alpha6 = 0, alpha6 + n alpha7 = 0 and near cancellations: the run's
        # set-up gives the verdict and the message of the per-call guards, the
        # tier named, before any kernel call; s L gets the verdict of L
        calls = []
        monkeypatch.setattr(integrate_module, "rhs_gamma_geodesic",
                            lambda *args, **kwargs: calls.append(args))
        g, gd = rand_pd(rng, n), rand_herm(rng, n)
        cfg = IntegratorConfig(dt=0.01, t_end=0.1)
        for a6, a7, degenerate in ((0.0, 1.0, True), (1.3, -1.3 / n, True),
                                   (1.3, -1.3 * (1.0 - 1e-13) / n, True),
                                   (1.3, -1.3 * (1.0 - 1e-11) / n, False), (1.3, 0.4, False)):
            params = ModelParams(alpha6=scale * a6, alpha7=scale * a7)
            try:
                rhs_gamma_geodesic(g, gd, 2.0 * params.alpha6, 2.0 * params.alpha7)
                expected = None
            except DegenerateKinetic as exc:
                expected = f"[gamma_geodesic] {exc}"
            state = FullState(psi=np.zeros(n), psi_dot=np.zeros(n), gamma=g, gamma_dot=gd)
            try:
                integrate_module._build_system(state, "gamma_geodesic", cfg, params,
                                               np.zeros((n, n)))
                refusal = None
            except DegenerateKinetic as exc:
                refusal = str(exc)
            assert refusal == expected and (refusal is not None) == degenerate
        assert calls == []


def test_geodesic_hermiticity_over_long_run(rng):
    # 1e4 RK4 steps at dt well under the characteristic time: the state
    # gamma keeps hermiticity to machine accumulation before re-symmetrization
    from hermiton.integrate import IntegratorConfig, integrate

    n = 2
    g = rand_pd(rng, n)
    e = np.linalg.solve(g, rand_herm(rng, n, 0.4))
    params = ModelParams(alpha6=1.0, alpha7=0.15)
    state = FullState(psi=np.zeros(n), psi_dot=np.zeros(n), gamma=g,
                      gamma_dot=g @ e)
    cfg = IntegratorConfig(dt=1e-4, t_end=1.0, sample_stride=1000)
    traj = integrate(state, "gamma_geodesic", cfg, params)
    assert float(traj.herm_drift.max()) < 1e-8


def test_direct_nonlinear_includes_potential(rng):
    n = 2
    spec = PotentialSpec(kind="quartic_pure", kappa=0.4)
    params = ModelParams(alpha1=1.0, alpha5=-2.0, potential=spec)
    gamma, chi = rand_pd(rng, n), rand_herm(rng, n)
    psi = rand_vec(rng, n)
    psid = rhs_direct_nonlinear_raw(psi, gamma, params, chi)
    # scalar reduction of the constrained bracket flow with hbar = alpha1
    from hermiton.models import potential_gradient

    expected = (np.linalg.inv(gamma) @ (2.0 * chi @ psi
                + potential_gradient(psi, gamma, spec))) / (2.0j * 1.0)
    assert np.allclose(psid, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# Reference kernels: the residual, the H_eff-based modified first-order path
# and the kinetic-inverse ladder as they were before the gamma-sector
# kernels shared their pieces.  The parity tests below hold today's kernels
# to them.

def ref_residuals(psi, psid, gamma, gamma_dot, psi_ddot, gamma_ddot, params, chi, t,
                  ginv=None):
    psi = np.asarray(psi, dtype=complex)
    psid = np.asarray(psid, dtype=complex)
    g = np.asarray(gamma, dtype=complex)
    gd = np.asarray(gamma_dot, dtype=complex)
    chi = resolve_chi(chi, t)
    a1, a2, a3 = params.alpha1, params.alpha2, params.alpha3
    a6, a7, a8, a9 = params.alpha6, params.alpha7, params.alpha8, params.alpha9
    psibar = np.conj(psi)
    psidbar = np.conj(psid)
    fprime = params.effective_potential.derivative(float((psibar @ g @ psi).real))

    if ginv is None:
        ginv = np.linalg.inv(g)
    proj = np.outer(psi, psibar)
    p = ginv + a9 * proj
    pgd = p @ gd
    tr_pgd = np.trace(pgd)

    r_psi = (a2 * gd - 2.0j * a1 * g) @ psid
    if psi_ddot is not None:
        r_psi += a2 * (g @ psi_ddot)
    r_psi += ((fprime - params.alpha4) * g - params.alpha5 * chi
              - (a3 * a9 + 1.0j * a1) * gd) @ psi
    if a8 != 0.0:
        r_psi -= 2.0 * a8 * (psibar @ gd @ psi) * (gd @ psi)
    if a9 != 0.0:
        r_psi -= 2.0 * a9 * (a6 * (gd @ pgd) + a7 * tr_pgd * gd) @ psi
    if params.forcing is not None:
        r_psi -= np.conj(np.asarray(params.forcing(t), dtype=complex))

    proj_dot = np.outer(psid, psibar) + np.outer(psi, psidbar)
    ginv_gd = ginv @ gd
    gg = ginv_gd @ ginv
    pdot = -gg + a9 * proj_dot
    pdot_gd = pdot @ gd
    r_gamma = 2.0 * (a6 * (pdot_gd @ p + pgd @ pdot)
                     + a7 * (np.trace(pdot_gd) * p + tr_pgd * pdot))
    if gamma_ddot is not None:
        acc = 2.0 * (a6 * (p @ gamma_ddot @ p) + a7 * np.trace(p @ gamma_ddot) * p)
        if a8 != 0.0:
            acc += 2.0 * a8 * (psibar @ gamma_ddot @ psi) * proj
        r_gamma += acc
    if a8 != 0.0:
        quad = psibar @ gd @ psi
        quad_dot = psidbar @ gd @ psi + psibar @ gd @ psid
        r_gamma += 2.0 * a8 * (quad_dot * proj + quad * proj_dot)

    r_gamma += (fprime - params.alpha4) * proj
    r_gamma += 2.0 * (a6 * (ginv_gd @ pgd @ ginv) + a7 * tr_pgd * gg)
    if a2 != 0.0:
        r_gamma -= a2 * np.outer(psid, psidbar)
    c = a3 * a9
    r_gamma += (c + 1.0j * a1) * np.outer(psi, psidbar)
    r_gamma += (c - 1.0j * a1) * np.outer(psid, psibar)
    return r_psi, r_gamma


def ref_apply_omega_inverse(psi, gamma, params, y):
    psi = np.asarray(psi, dtype=complex)
    g = np.asarray(gamma, dtype=complex)
    n = psi.size
    a6, a7, a8, a9 = params.alpha6, params.alpha7, params.alpha8, params.alpha9
    th1 = np.conj(psi) @ g @ psi
    gpsi = g @ psi
    lam = g - (a9 / (1.0 + a9 * th1)) * np.outer(gpsi, np.conj(gpsi))
    c7 = a7 / (a6 * (a6 + n * a7))
    ratio = th1 / (1.0 + a9 * th1)
    theta2 = (a6 + (n - 1) * a7) / (a6 * (a6 + n * a7)) * ratio ** 2
    s8 = a8 / (1.0 + a8 * theta2)
    lam_psi = lam @ psi
    u = (1.0 / a6) * np.outer(lam_psi, np.conj(lam_psi)) - c7 * (np.conj(psi) @ lam @ psi) * lam
    out = (1.0 / a6) * (lam @ y @ lam) - c7 * np.trace(lam @ y) * lam
    out -= s8 * np.trace(u @ y) * u
    return out


def ref_rhs_full(state, params, chi):
    ginv = np.linalg.inv(state.gamma)
    rest_psi, rest_gamma = ref_residuals(state.psi, state.psi_dot, state.gamma,
                                         state.gamma_dot, None, None, params, chi,
                                         state.t, ginv)
    psi_ddot = -(ginv @ rest_psi) / params.alpha2
    gamma_ddot = 0.5 * ref_apply_omega_inverse(state.psi, state.gamma, params, -rest_gamma)
    return psi_ddot, hermitian_part(gamma_ddot)


def ref_rhs_modified(psi, gamma, gamma_dot, params, chi, t=0.0):
    psi = np.asarray(psi, dtype=complex)
    chi_m = resolve_chi(chi, t)
    ginv = invert_form(gamma)
    h = ginv @ chi_m
    gigd = ginv @ gamma_dot
    p = ginv + params.alpha9 * np.outer(psi, np.conj(psi))
    fprime = params.effective_potential.derivative(theta1(psi, gamma))
    heff = -params.alpha5 * h
    heff += (fprime - params.alpha4) * np.eye(psi.size, dtype=complex)
    heff -= (1j * params.alpha1 + params.alpha3 * params.alpha9) * gigd
    heff -= 2.0 * params.alpha8 * (np.conj(psi) @ gamma_dot @ psi) * gigd
    heff -= 2.0 * params.alpha9 * (
        params.alpha6 * (gigd @ p @ gamma_dot) + params.alpha7 * np.trace(p @ gamma_dot) * gigd)
    rhs = heff @ psi
    if params.forcing is not None:
        rhs -= ginv @ np.conj(np.asarray(params.forcing(t), dtype=complex))
    psid = rhs / (2.0j * params.alpha1)
    _, rest_gamma = ref_residuals(psi, psid, gamma, gamma_dot, None, None, params, chi, t,
                                  ginv)
    gamma_ddot = 0.5 * ref_apply_omega_inverse(psi, gamma, params, -rest_gamma)
    return psid, hermitian_part(gamma_ddot)


POTENTIALS = {
    "none": PotentialSpec(),
    "quartic": PotentialSpec(kind="quartic_shifted", kappa=0.3, shift=0.7),
    "custom": PotentialSpec(kind="custom", f=lambda x: 0.2 * np.sin(x),
                            f_prime=lambda x: 0.2 * np.cos(x)),
}


def coupling_cases():
    """alpha2, alpha3, alpha8 and alpha9 each zero and nonzero."""
    for a2 in (0.0, 0.3):
        for a3 in (0.0, 0.15):
            for a8 in (0.0, 0.2):
                for a9 in (0.0, 0.15):
                    yield dict(alpha2=a2, alpha3=a3, alpha8=a8, alpha9=a9)


def assert_close(got, ref):
    for g, r in zip(got, ref):
        assert np.max(np.abs(g - r)) <= 1e-12 * np.max(np.abs(r))


class TestKernelParity:
    @pytest.mark.parametrize("potential", sorted(POTENTIALS))
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_matches_reference_kernels(self, rng, n, potential):
        force = rand_vec(rng, n, 0.3)
        for couplings in coupling_cases():
            for forcing in (None, lambda t: (1.0 + t) * force):
                params = full_params(kappa=0.0, alpha4=0.25, potential=POTENTIALS[potential],
                                     forcing=forcing, **couplings)
                chi = rand_herm(rng, n)
                state = FullState(psi=rand_vec(rng, n, 0.6), psi_dot=rand_vec(rng, n, 0.3),
                                  gamma=rand_pd(rng, n), gamma_dot=rand_herm(rng, n, 0.3),
                                  t=0.4)
                accel = (rand_vec(rng, n), rand_herm(rng, n))
                res = el_residual(state, accel, params, chi)
                assert_close((res.r_psi, res.r_gamma),
                             ref_residuals(state.psi, state.psi_dot, state.gamma,
                                           state.gamma_dot, *accel, params, chi, state.t))
                if params.alpha2 != 0.0:
                    assert_close(rhs_full(state, params, chi),
                                 ref_rhs_full(state, params, chi))
                else:
                    args = (state.psi, state.gamma, state.gamma_dot, params, chi, state.t)
                    assert_close(rhs_modified_first_order(*args), ref_rhs_modified(*args))


def residual_then_inverse(tier, state, params, chi):
    """The Gamma-stepping rates from their definition: el_residual's r_psi
    solved for the psi rate, and r_gamma (at zero gamma_ddot) through the
    kinetic inverse, models.apply_omega_inverse.  Also the size of the terms
    gamma_ddot sums: the largest entry of the kinetic inverse of each part of
    r_gamma, the terms without psi, those in psi only and those in psid."""
    ginv = np.linalg.inv(state.gamma)
    if tier == "full":
        r_psi = el_residual(state, None, params, chi).r_psi
        psi_rate = -(ginv @ r_psi) / params.alpha2
    else:
        at_rest = replace(state, psi_dot=np.zeros(state.n))
        psi_rate = (ginv @ el_residual(at_rest, None, params, chi).r_psi) / (2.0j * params.alpha1)
        state = replace(state, psi_dot=psi_rate)
    zero = np.zeros(state.n)
    r_gamma, r_psi_only, r_geodesic = (
        el_residual(replace(state, psi=psi, psi_dot=psid), None, params, chi).r_gamma
        for psi, psid in ((state.psi, state.psi_dot), (state.psi, zero), (zero, zero)))

    def inverse(y):
        return models.apply_omega_inverse(state.psi, state.gamma, params, -0.5 * y)

    terms = max(np.max(np.abs(inverse(part))) for part in (
        r_geodesic, r_psi_only - r_geodesic, r_gamma - r_psi_only))
    return psi_rate, hermitian_part(inverse(r_gamma)), terms


def gamma_rates(tier, state, params, chi):
    if tier == "full":
        return rhs_full(state, params, chi)
    return rhs_modified_first_order(state.psi, state.gamma, state.gamma_dot, params, chi,
                                    state.t)


GAMMA_TIERS = ["full", "modified_first_order"]


class TestClosedFormGammaRates:
    """The closed form of dynamics._PreparedGammaRate against the residual
    and the kinetic inverse it solves."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("tier", GAMMA_TIERS)
    def test_matches_residual_then_inverse(self, rng, tier, n):
        # alpha3, alpha4, alpha5, alpha7, alpha8 and alpha9 each zero and
        # nonzero; the potential, the forcing and chi cycle through their kinds
        force, base, turn = rand_vec(rng, n, 0.3), rand_herm(rng, n), rand_herm(rng, n, 0.3)
        forcings = (None, lambda t: force, lambda t: np.cos(1.3 * t) * force)
        potentials = [POTENTIALS[k] for k in sorted(POTENTIALS)]
        for k in range(64):
            on = [(k >> bit) & 1 for bit in range(6)]
            params = ModelParams(alpha1=0.4, alpha2=0.3 if tier == "full" else 0.0,
                                 alpha3=0.15 * on[0], alpha4=0.25 * on[1], alpha5=-1.0 * on[2],
                                 alpha6=0.9, alpha7=0.25 * on[3], alpha8=0.2 * on[4],
                                 alpha9=0.15 * on[5], potential=potentials[k % 3],
                                 forcing=forcings[(k // 3) % 3])
            chi = (lambda t: base + np.sin(t) * turn) if k % 2 else base
            state = FullState(psi=rand_vec(rng, n, 0.6), psi_dot=rand_vec(rng, n, 0.3),
                              gamma=rand_pd(rng, n), gamma_dot=rand_herm(rng, n, 0.3), t=0.4)
            psi_rate, gamma_ddot = gamma_rates(tier, state, params, chi)
            ref_psi, ref_gamma, terms = residual_then_inverse(tier, state, params, chi)
            assert np.max(np.abs(psi_rate - ref_psi)) <= 1e-12 * np.max(np.abs(ref_psi))
            # relative to the terms: at n = 1 they can cancel far below their size
            assert (np.max(np.abs(gamma_ddot - ref_gamma))
                    <= 1e-12 * max(np.max(np.abs(ref_gamma)), terms))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("tier", GAMMA_TIERS)
    def test_geodesic_flow_at_psi_zero(self, rng, tier, n):
        # at psi = psid = 0, U = 0 and b = -(alpha7 / alpha6) d/dt Tr(P gamma_dot)
        # = 0: gamma_ddot is gamma_dot gamma^{-1} gamma_dot
        params = ModelParams(alpha1=0.4, alpha2=0.3 if tier == "full" else 0.0, alpha3=0.15,
                             alpha4=0.2, alpha5=-1.0, alpha6=0.9, alpha7=0.25, alpha8=0.2,
                             alpha9=0.15, kappa=0.1)
        state = FullState(psi=np.zeros(n), psi_dot=np.zeros(n), gamma=rand_pd(rng, n),
                          gamma_dot=rand_herm(rng, n, 0.5))
        psi_rate, gamma_ddot = gamma_rates(tier, state, params, rand_herm(rng, n))
        geodesic = rhs_gamma_geodesic(state.gamma, state.gamma_dot, 2.0 * params.alpha6,
                                      2.0 * params.alpha7)
        assert not psi_rate.any()
        assert np.max(np.abs(gamma_ddot - geodesic)) <= 1e-14 * np.max(np.abs(geodesic))

    @pytest.mark.parametrize("structural", [False, True])
    @pytest.mark.parametrize("tier", GAMMA_TIERS)
    def test_one_inverse_per_rhs(self, rng, monkeypatch, tier, structural):
        # numpy.linalg.inv is looked up when a right-hand side runs, once per
        # call, in the run's stepped rate and in the public kernels alike
        from hermiton import integrate as integrate_module
        from hermiton.integrate import IntegratorConfig

        n = 3
        params = full_params(alpha2=0.3 if tier == "full" else 0.0)
        state = FullState(psi=rand_vec(rng, n, 0.6), psi_dot=rand_vec(rng, n, 0.3),
                          gamma=rand_pd(rng, n), gamma_dot=rand_herm(rng, n, 0.3))
        chi = rand_herm(rng, n)
        cfg = IntegratorConfig(dt=0.01, t_end=0.1, resymmetrize_gamma=structural)
        system = integrate_module._build_system(state, tier, cfg, params, chi)
        counts = count_linalg(monkeypatch)
        for k in range(5):
            system.deriv(0.1 * k, system.y0)
        gamma_rates(tier, state, params, chi)
        assert counts == {"inv": 6, "det": 0, "solve": 0}


@pytest.mark.parametrize("tier", GAMMA_TIERS)
def test_gamma_tiers_refuse_with_named_errors(rng, tier):
    # each refusal's class and message, through the public kernels; the
    # couplings' refusals also when a run is set up, before any step
    from hermiton import integrate as integrate_module
    from hermiton.integrate import IntegratorConfig

    n = 2
    a2 = 0.3 if tier == "full" else 0.0
    psi, psid = np.array([1.0, 0.0]), rand_vec(rng, n, 0.3)
    gamma, gamma_dot, chi = np.eye(n), rand_herm(rng, n, 0.3), rand_herm(rng, n)

    def refusal(params, psi=psi, gamma=gamma):
        state = FullState._from_validated(np.asarray(psi, complex), np.asarray(psid, complex),
                                          np.asarray(gamma, complex), gamma_dot, 0.0)
        with pytest.raises(Exception) as info:
            gamma_rates(tier, state, params, chi)
        return type(info.value), str(info.value)

    degenerate = "vanishes relative to its terms: the kinetic operator is degenerate"
    base = dict(alpha1=0.4, alpha2=a2, alpha6=0.9, alpha7=0.25, alpha8=0.2, alpha9=0.15)
    no_alpha6 = ModelParams(**{**base, "alpha6": 0.0})
    assert refusal(no_alpha6) == (DegenerateKinetic, f"alpha6 = 0.000e+00 {degenerate}")
    # theta1 = 1 at psi = e1, gamma = I
    assert refusal(ModelParams(**{**base, "alpha9": -1.0})) == (
        DegenerateKinetic, f"1 + alpha9*theta1 = 0.000e+00 {degenerate}")
    # psi = 0 and alpha6 + n alpha7 = 0: det M = alpha6 (alpha6 + n alpha7)
    assert refusal(ModelParams(**{**base, "alpha7": -0.45}), psi=np.zeros(n)) == (
        DegenerateKinetic, f"|det M| = 0.000e+00 {degenerate}")
    assert refusal(ModelParams(**base), gamma=np.ones((n, n))) == (
        SingularForm, "zero pivot: the form is singular")
    assert refusal(ModelParams(**base), gamma=np.diag([1.0, 1e-14])) == (
        SingularForm, "reciprocal condition estimate 5.000e-15 <= 1e-12")
    if tier == "full":
        wrong = [(ModelParams(**{**base, "alpha2": 0.0}),
                  ZeroAlpha2, "alpha2 == 0: use rhs_modified_first_order")]
    else:
        wrong = [(ModelParams(**{**base, "alpha2": 0.3}),
                  ValueError, "first-order psi dynamics requires alpha2 == 0"),
                 (ModelParams(**{**base, "alpha1": 0.0}),
                  DegenerateKinetic, "alpha1 == 0 leaves no first-order psi dynamics")]
    state = FullState(psi=psi, psi_dot=psid, gamma=gamma, gamma_dot=gamma_dot)
    cfg = IntegratorConfig(dt=0.01, t_end=0.1)
    for params, error, message in wrong + [(no_alpha6, DegenerateKinetic,
                                            f"alpha6 = 0.000e+00 {degenerate}")]:
        assert refusal(params) == (error, message)
        with pytest.raises(error) as info:
            integrate_module._build_system(state, tier, cfg, params, chi)
        assert str(info.value) == message


def test_near_singular_gamma_refused_in_both_tiers(rng):
    n = 3
    gamma = np.diag([1.0, 1.0, 1e-14]).astype(complex)
    psi, psid, gamma_dot, chi = (rand_vec(rng, n), rand_vec(rng, n), rand_herm(rng, n),
                                 rand_herm(rng, n))
    gg = np.array((gamma, gamma_dot))
    with pytest.raises(SingularForm):
        dynamics._PreparedGammaRate(full_params(), chi, first_order=False)(
            np.array((psi, psid)), gg, 0.0)
    with pytest.raises(SingularForm):
        dynamics._PreparedGammaRate(full_params(alpha2=0.0), chi, first_order=True)(
            psi, gg, 0.0)


def count_linalg(monkeypatch) -> dict:
    """Count the calls of numpy's inv, det and solve."""
    counts = dict.fromkeys(("inv", "det", "solve"), 0)
    for name in counts:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


class TestFactorizations:
    def test_one_inverse_per_full_rhs(self, rng, monkeypatch):
        n = 4
        psi, psid, gamma, gamma_dot, chi = (rand_vec(rng, n), rand_vec(rng, n), rand_pd(rng, n),
                                            rand_herm(rng, n), rand_herm(rng, n))
        rate = dynamics._PreparedGammaRate(full_params(), chi, first_order=False)
        counts = count_linalg(monkeypatch)
        rate(np.array((psi, psid)), np.array((gamma, gamma_dot)), 0.0)
        assert counts == {"inv": 1, "det": 0, "solve": 0}

    def test_one_guarded_inverse_per_modified_rhs(self, rng, monkeypatch):
        n = 4
        psi, gamma, gamma_dot, chi = (rand_vec(rng, n), rand_pd(rng, n), rand_herm(rng, n),
                                      rand_herm(rng, n))
        rate = dynamics._PreparedGammaRate(full_params(alpha2=0.0), chi, first_order=True)
        counts = count_linalg(monkeypatch)
        rate(psi, np.array((gamma, gamma_dot)), 0.0)
        assert counts == {"inv": 1, "det": 0, "solve": 0}

    def test_omega_dot_inverts_gamma_once(self, rng, monkeypatch):
        """The canonical flow's d(Omega)/dt: one invert_form, shared by P and dP/dt."""
        n = 3
        psi, psid = rand_vec(rng, n), rand_vec(rng, n)
        gamma, gamma_dot, x = rand_pd(rng, n), rand_herm(rng, n), rand_herm(rng, n)
        params = full_params()
        counts = count_linalg(monkeypatch)
        ginv = invert_form(gamma)
        dynamics._apply_omega_dot(psi, psid, ginv, gamma_dot, params, x)
        assert counts == {"inv": 1, "det": 0, "solve": 0}


SCALES = [pytest.param(2.0 ** e, id=f"s=2^{e}") for e in (-300, -40, 40, 300)]


class TestCouplingScaling:
    """L and s L share their equations of motion: for a power of two s the
    accelerations keep their bits and the energy scales by exactly s."""

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    @pytest.mark.parametrize("s", SCALES)
    def test_bitwise_invariant(self, rng, monkeypatch, n, s):
        numeric = count_numeric_inverse(monkeypatch)
        params = full_params()
        state = FullState(psi=rand_vec(rng, n, 0.5), psi_dot=rand_vec(rng, n, 0.3),
                          gamma=rand_pd(rng, n), gamma_dot=rand_herm(rng, n, 0.2))
        chi = rand_herm(rng, n)
        mfo = replace(params, alpha2=0.0)
        g, gd = state.gamma, state.gamma_dot
        for got, ref in [
            (rhs_full(state, scale_couplings(params, s), chi), rhs_full(state, params, chi)),
            (rhs_modified_first_order(state.psi, g, gd, scale_couplings(mfo, s), chi),
             rhs_modified_first_order(state.psi, g, gd, mfo, chi)),
            ((rhs_gamma_geodesic(g, gd, 2.0 * s * params.alpha6, 2.0 * s * params.alpha7),),
             (rhs_gamma_geodesic(g, gd, 2.0 * params.alpha6, 2.0 * params.alpha7),)),
        ]:
            for a, b in zip(got, ref):
                assert np.array_equal(a, b)
        assert energy(state, scale_couplings(params, s), chi) == s * energy(state, params, chi)
        assert numeric == []


def count_ladder_pieces(monkeypatch) -> list:
    calls = []
    real = models._ladder_pieces

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(models, "_ladder_pieces", counted)
    return calls


def test_degenerate_kinetic_inverse_tries_the_ladder_once(rng, monkeypatch):
    # alpha6 + n alpha7 = 0 with alpha8 != 0: Omega is invertible, and one
    # closed-form solve inverts it without the numeric oracle
    n = 2
    params = ModelParams(alpha6=2.0, alpha7=-1.0, alpha8=0.3, alpha9=0.2)
    psi, g = rand_vec(rng, n), rand_pd(rng, n)
    y = rand_herm(rng, n)
    ladder, numeric = count_ladder_pieces(monkeypatch), count_numeric_inverse(monkeypatch)
    x = models.apply_omega_inverse(psi, g, params, 0.5 * y)
    assert (len(ladder), len(numeric)) == (1, 0)
    assert np.allclose(models.apply_omega(psi, g, params, x), 0.5 * y, atol=1e-10)


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("a6, a7_of, degenerate", [
    pytest.param(0.0, lambda n: 1.0, True, id="alpha6=0"),
    pytest.param(1.3, lambda n: -1.3 / n, True, id="cancel"),
    pytest.param(1.3, lambda n: -1.3 * (1.0 - 1e-13) / n, True, id="cancel-1e-13"),
    pytest.param(-0.7, lambda n: 0.7 * (1.0 + 1e-13) / n, True, id="negative-cancel-1e-13"),
    pytest.param(1.3, lambda n: -1.3 * (1.0 - 1e-11) / n, False, id="cancel-1e-11"),
    pytest.param(1.3, lambda n: 0.4, False, id="generic"),
])
def test_ladder_and_geodesic_refuse_the_same_couplings(rng, n, a6, a7_of, degenerate):
    # with alpha8 = alpha9 = 0 the ladder's denominators are those of the
    # geodesic tier at A = 2 alpha6, B = 2 alpha7
    params = ModelParams(alpha6=a6, alpha7=a7_of(n))
    g, gd = rand_pd(rng, n), rand_herm(rng, n)

    def refused(call) -> bool:
        try:
            call()
        except DegenerateKinetic:
            return True
        return False

    assert refused(lambda: omega_inverse(rand_vec(rng, n), g, params)) is degenerate
    assert refused(lambda: rhs_gamma_geodesic(g, gd, 2.0 * params.alpha6,
                                              2.0 * params.alpha7)) is degenerate
