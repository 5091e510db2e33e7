import numpy as np
import pytest

from hermiton import canonical
from hermiton.canonical import (
    PhasePoint,
    darboux_momentum,
    darboux_reduce,
    dirac_flow,
    hamilton_flow_check,
    hamiltonian,
    lagrangian_flow_through_legendre,
    legendre_inverse,
    legendre_regular,
    legendre_singular,
    primary_constraints,
    reduced_bracket_flow,
)
from hermiton.dynamics import (
    _apply_omega_dot,
    _p_dot,
    rhs_direct_nonlinear_raw,
    rhs_full,
    rhs_schrodinger,
)
from hermiton.hermitian_algebra import hermitian_part, invert_form
from hermiton.errors import NotPositiveDefinite, ZeroAlpha2
from hermiton.models import (
    FullState,
    ModelParams,
    PotentialSpec,
    apply_omega,
    apply_omega_inverse,
    energy,
    p_tensor,
    theta1,
)

from conftest import (
    full_params,
    killing_alpha8,
    rand_herm,
    rand_pd,
    rand_vec,
    scale_couplings,
    symplectic_smoke_case,
)


def random_state(rng, n):
    return FullState(psi=rand_vec(rng, n), psi_dot=rand_vec(rng, n),
                     gamma=rand_pd(rng, n), gamma_dot=rand_herm(rng, n, 0.5))


class TestSingularSector:
    def test_zero_state(self, rng):
        pi, pi_bar = legendre_singular(np.zeros(2), rand_pd(rng, 2), 1.0)
        assert np.allclose(pi, 0.0) and np.allclose(pi_bar, 0.0)

    def test_scalar_value(self):
        pi, _ = legendre_singular(np.array([1.0]), np.eye(1), alpha=1.0)
        assert pi[0] == pytest.approx(1j)

    def test_conjugate_consistency(self, rng):
        pi, pi_bar = legendre_singular(rand_vec(rng, 3), rand_pd(rng, 3), 0.7)
        assert np.allclose(pi_bar, np.conj(pi))

    def test_constraints_vanish_on_image(self, rng):
        psi, gamma = rand_vec(rng, 2), rand_pd(rng, 2)
        pi, _ = legendre_singular(psi, gamma, 0.9)
        point = PhasePoint(psi=psi, pi=pi, gamma=gamma)
        assert primary_constraints(point, 0.9).max_violation() < 1e-14

    def test_constraints_linear_in_perturbation(self, rng):
        psi, gamma = rand_vec(rng, 2), rand_pd(rng, 2)
        pi, _ = legendre_singular(psi, gamma, 0.9)
        delta = rand_vec(rng, 2)
        point = PhasePoint(psi=psi, pi=pi + delta, gamma=gamma)
        assert np.allclose(primary_constraints(point, 0.9).phi, delta)

    def test_constraints_hand_formula(self, rng):
        psi, gamma, pi = rand_vec(rng, 2), rand_pd(rng, 2), rand_vec(rng, 2)
        point = PhasePoint(psi=psi, pi=pi, gamma=gamma)
        phi = primary_constraints(point, 1.2).phi
        by_hand = pi - 1.2j * np.array(
            [sum(np.conj(psi[b]) * gamma[b, a] for b in range(2)) for a in range(2)])
        assert np.allclose(phi, by_hand)

    def test_darboux_momentum_is_twice_pi(self, rng):
        psi, gamma = rand_vec(rng, 3), rand_pd(rng, 3)
        pi, _ = legendre_singular(psi, gamma, 0.8)
        assert np.allclose(darboux_momentum(psi, gamma, 0.8), 2.0 * pi)


def multipliers(psi, gamma, chi, params):
    """The Lagrange multipliers of the Dirac flow at the constrained point
    over psi: its psi velocities."""
    pi, _ = legendre_singular(psi, gamma, params.alpha1)
    return dirac_flow(psi, pi, gamma, params, chi)[0]


class TestMultipliers:
    def test_scalar_schrodinger(self):
        hbar, e_level = 1.0, 1.4
        psi = np.array([0.7 + 0.2j])
        lam = multipliers(psi, np.eye(1), e_level * np.eye(1),
                          ModelParams(alpha1=hbar, alpha5=-2.0))
        assert np.allclose(lam, -1j * e_level * psi / hbar)

    def test_zero_state(self, rng):
        lam = multipliers(np.zeros(2), rand_pd(rng, 2), rand_herm(rng, 2),
                          ModelParams(alpha1=1.0, alpha5=-2.0))
        assert np.allclose(lam, 0.0)

    def test_quartic_extra_term(self, rng):
        n = 2
        kappa = 0.6
        spec = PotentialSpec(kind="quartic_pure", kappa=kappa)
        psi, gamma, chi = rand_vec(rng, n), rand_pd(rng, n), rand_herm(rng, n)
        lam = multipliers(psi, gamma, chi, ModelParams(alpha1=1.0, alpha5=-2.0, potential=spec))
        lam0 = multipliers(psi, gamma, chi, ModelParams(alpha1=1.0, alpha5=-2.0))
        extra = -0.5j * 2.0 * kappa * theta1(psi, gamma) * psi
        assert np.allclose(lam - lam0, extra, atol=1e-12)

    def test_bracket_flow_equals_schrodinger_rhs(self, rng):
        n = 3
        psi, gamma, chi = rand_vec(rng, n), rand_pd(rng, n), rand_herm(rng, n)
        flow = reduced_bracket_flow(psi, gamma, chi, alpha=1.0)
        assert np.allclose(flow, rhs_schrodinger(psi, gamma, chi, 1.0, 2.0),
                           atol=1e-14)

    def test_bracket_flow_scalar_quartic(self):
        # n=1, gamma=1: i hbar psid = E psi + kappa theta1 psi
        hbar, e_level, kappa = 1.0, 1.1, 0.5
        spec = PotentialSpec(kind="quartic_pure", kappa=kappa)
        psi = np.array([0.8 + 0.1j])
        flow = reduced_bracket_flow(psi, np.eye(1), e_level * np.eye(1), hbar, spec)
        th = abs(psi[0]) ** 2
        assert np.allclose(1j * hbar * flow, e_level * psi + kappa * th * psi)

    def test_zero_psi(self, rng):
        assert np.allclose(reduced_bracket_flow(np.zeros(2), rand_pd(rng, 2),
                                                rand_herm(rng, 2), 1.0), 0.0)


# alpha4 and a constant forcing: couplings the psi residual carries beyond chi and f
DIRAC_EXTRA = dict(alpha4=0.3, forcing=lambda t: np.array([0.2 - 0.1j, -0.3j]))


class TestDiracFlow:
    def test_constraint_persistence(self, rng):
        # RK4 on the extended phase space keeps phi at zero
        n = 2
        alpha = 1.0
        params = ModelParams(alpha1=alpha, alpha5=-2.0,
                             potential=PotentialSpec(kind="quartic_pure", kappa=0.3),
                             **DIRAC_EXTRA)
        gamma, chi = rand_pd(rng, n), rand_herm(rng, n)
        psi = rand_vec(rng, n)
        pi, _ = legendre_singular(psi, gamma, alpha)
        y = np.concatenate([psi, pi])
        dt = 1e-3

        def f(y):
            psid, pid = dirac_flow(y[:n], y[n:], gamma, params, chi)
            return np.concatenate([psid, pid])

        for _ in range(1000):
            k1 = f(y)
            k2 = f(y + dt / 2 * k1)
            k3 = f(y + dt / 2 * k2)
            k4 = f(y + dt * k3)
            y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        point = PhasePoint(psi=y[:n], pi=y[n:], gamma=gamma)
        assert primary_constraints(point, alpha).max_violation() < 1e-8

    def test_flow_velocity_is_multiplier(self, rng):
        n = 2
        gamma, chi = rand_pd(rng, n), rand_herm(rng, n)
        psi = rand_vec(rng, n)
        params = ModelParams(alpha1=1.0, alpha5=-2.0, **DIRAC_EXTRA)
        pi, _ = legendre_singular(psi, gamma, 1.0)
        psid, _ = dirac_flow(psi, pi, gamma, params, chi)
        assert np.allclose(psid, rhs_direct_nonlinear_raw(psi, gamma, params, chi))


class TestDarboux:
    def test_canonical_case(self):
        alpha = 0.5
        params = ModelParams(alpha1=alpha, alpha5=-2.0)
        chart = darboux_reduce(np.eye(2), np.diag([1.0, 2.0]), params)
        assert chart.canonical
        assert np.array_equal(chart.S, np.eye(2))
        assert np.array_equal(chart.A, np.zeros((2, 2)))
        assert np.array_equal(chart.form_xy, -np.eye(2))
        assert np.allclose(chart.form_xx, 0.0) and np.allclose(chart.form_yy, 0.0)

    def test_harmonic_oscillator_hamiltonian(self, rng):
        # gamma = I/(2 alpha), chi real symmetric: H = (-alpha5/2) sigma (yy + xx)
        alpha = 0.7
        params = ModelParams(alpha1=alpha, alpha5=-2.0)
        sigma = np.array([[1.0, 0.2], [0.2, 2.0]])
        chart = darboux_reduce(np.eye(2) / (2 * alpha), sigma, params)
        x, y = rng.normal(size=2), rng.normal(size=2)
        expected = float(x @ sigma @ x + y @ sigma @ y)
        assert chart.hamiltonian_value(x, y) == pytest.approx(expected, rel=1e-12)
        assert np.allclose(chart.ham_xy, 0.0)

    def test_n2_hand_expansion_with_imaginary_part(self):
        alpha = 0.5
        params = ModelParams(alpha1=alpha, alpha5=-2.0)
        gamma = np.array([[1.0, 0.3j], [-0.3j, 2.0]])
        chi = np.array([[1.0, 0.2 + 0.1j], [0.2 - 0.1j, 3.0]])
        chart = darboux_reduce(gamma, chi, params)
        assert np.allclose(chart.S, np.diag([1.0, 2.0]))
        assert np.allclose(chart.A, np.array([[0.0, 0.3], [-0.3, 0.0]]))
        assert np.allclose(chart.form_xy, -np.diag([1.0, 2.0]))
        assert np.allclose(chart.form_xx, -0.5 * np.array([[0.0, 0.3], [-0.3, 0.0]]))
        assert np.allclose(chart.sigma, np.array([[1.0, 0.2], [0.2, 3.0]]))
        assert np.allclose(chart.alpha_mat, np.array([[0.0, 0.1], [-0.1, 0.0]]))
        assert np.allclose(chart.ham_xx, chart.sigma)
        assert np.allclose(chart.ham_xy, -2.0 * chart.alpha_mat)

    def test_form_matches_direct_pullback(self, rng):
        # reconstructed two-form equals 2 i alpha Gamma(du, dv) - conj on
        # random tangent pairs
        n = 3
        alpha = 0.8
        params = ModelParams(alpha1=alpha, alpha5=-2.0)
        gamma = rand_pd(rng, n)
        chart = darboux_reduce(gamma, rand_herm(rng, n), params)
        for _ in range(20):
            ux, uy = rng.normal(size=n), rng.normal(size=n)
            vx, vy = rng.normal(size=n), rng.normal(size=n)
            u = (ux + 1j * uy) / np.sqrt(2.0)
            v = (vx + 1j * vy) / np.sqrt(2.0)
            direct = 2j * alpha * (np.conj(u) @ gamma @ v - np.conj(v) @ gamma @ u)
            assert abs(direct.imag) < 1e-12
            assert chart.form_value(ux, uy, vx, vy) == pytest.approx(
                direct.real, abs=1e-10)

    def test_hamiltonian_matches_direct_restriction(self, rng):
        # chart coefficients reproduce -alpha5 * psi^ chi psi on the diagonal
        n = 2
        chi = rand_herm(rng, n)
        chart = darboux_reduce(rand_pd(rng, n), chi, ModelParams(alpha1=0.6, alpha5=-2.0))
        for _ in range(10):
            x, y = rng.normal(size=n), rng.normal(size=n)
            psi = (x + 1j * y) / np.sqrt(2.0)
            direct = 2.0 * float((np.conj(psi) @ chi @ psi).real)
            assert chart.hamiltonian_value(x, y) == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("alpha4", [0.0, 0.3])
    @pytest.mark.parametrize("alpha5", [-1.0, -2.0, 0.7])
    def test_chart_vector_field_is_the_flow(self, rng, alpha5, alpha4, n):
        # the chart's Hamiltonian vector field, W X = grad H read back as
        # psid = (X_x + i X_y) / sqrt(2), is the first-order flow of the same
        # couplings
        params = ModelParams(alpha1=0.6, alpha4=alpha4, alpha5=alpha5)
        gamma, chi, psi = rand_pd(rng, n), rand_herm(rng, n), rand_vec(rng, n)
        chart = darboux_reduce(gamma, chi, params)
        w = np.block([[chart.form_xx - chart.form_xx.T, chart.form_xy],
                      [-chart.form_xy.T, chart.form_yy - chart.form_yy.T]])
        x, y = np.sqrt(2.0) * psi.real, np.sqrt(2.0) * psi.imag
        grad = np.concatenate([(chart.ham_xx + chart.ham_xx.T) @ x + chart.ham_xy @ y,
                               (chart.ham_yy + chart.ham_yy.T) @ y + chart.ham_xy.T @ x])
        field = np.linalg.solve(w, grad)
        psid = (field[:n] + 1j * field[n:]) / np.sqrt(2.0)
        flow = rhs_direct_nonlinear_raw(psi, gamma, params, chi)
        assert np.linalg.norm(psid - flow) <= 1e-12 * np.linalg.norm(flow)

    def test_real_legendre_maps(self, rng):
        # u = alpha(Ax + Sy), v = alpha(-Sx + Ay); canonical case halves y, -x
        n = 2
        alpha = 0.5
        params = ModelParams(alpha1=alpha, alpha5=-2.0)
        gamma = rand_pd(rng, n)
        chart = darboux_reduce(gamma, np.eye(n), params)
        x, y = rng.normal(size=n), rng.normal(size=n)
        psi = (x + 1j * y) / np.sqrt(2.0)
        pi, _ = legendre_singular(psi, gamma, alpha)
        u = np.sqrt(2.0) * pi.real
        v = -np.sqrt(2.0) * pi.imag
        assert np.allclose(chart.legendre_ux @ x + chart.legendre_uy @ y, u, atol=1e-12)
        assert np.allclose(chart.legendre_vx @ x + chart.legendre_vy @ y, v, atol=1e-12)

        chart_c = darboux_reduce(np.eye(n) / (2 * alpha), np.eye(n), params)
        assert np.allclose(chart_c.legendre_uy, 0.5 * np.eye(n))
        assert np.allclose(chart_c.legendre_vx, -0.5 * np.eye(n))

    def test_chart_construction(self, rng):
        n = 2
        alpha = 0.4
        params = ModelParams(alpha1=alpha, alpha5=-2.0)
        gamma = rand_pd(rng, n)
        chart = darboux_reduce(gamma, np.eye(n), params)
        c = chart.chart_matrix
        assert np.allclose(c.conj().T @ gamma @ c, np.eye(n) / (2 * alpha), atol=1e-12)

    def test_indefinite_chart_refused(self):
        gamma = np.diag([1.0, -1.0])
        params = ModelParams(alpha1=0.5, alpha5=-2.0)
        chart = darboux_reduce(gamma, np.eye(2), params)
        assert chart.chart_matrix is None and not chart.canonical
        with pytest.raises(NotPositiveDefinite):
            darboux_reduce(gamma, np.eye(2), params, require_chart=True)

    def test_negative_alpha1_chart(self, rng):
        # C^ Gamma C = I / (2 alpha1) exists only for Gamma / alpha1 positive
        # definite: at alpha1 < 0 a positive-definite Gamma is refused and a
        # negative-definite one gets a finite chart
        n = 3
        alpha = -0.5
        params = ModelParams(alpha1=alpha, alpha5=1.0)
        chart = darboux_reduce(np.eye(n), np.eye(n), params)
        assert chart.chart_matrix is None
        with pytest.raises(NotPositiveDefinite, match="Gamma / alpha1"):
            darboux_reduce(np.eye(n), np.eye(n), params, require_chart=True)
        gamma = -rand_pd(rng, n)
        c = darboux_reduce(gamma, np.eye(n), params, require_chart=True).chart_matrix
        assert np.all(np.isfinite(c))
        assert np.max(np.abs(c.conj().T @ gamma @ c - np.eye(n) / (2 * alpha))) < 1e-14

    @pytest.mark.parametrize("scale", [2.0 ** -40, 1.0, 2.0 ** 40])
    def test_chart_is_scale_free(self, rng, scale):
        # the chart inverts its Cholesky factor under the scale-free condition
        # test: s gamma with alpha1 = s / 2 gets the chart of gamma with
        # alpha1 = 1/2 divided by s, to round-off
        gamma = rand_pd(rng, 3)
        charts = [s * darboux_reduce(s * gamma, np.eye(3), ModelParams(alpha1=0.5 * s, alpha5=-2.0),
                                     require_chart=True).chart_matrix for s in (1.0, scale)]
        assert np.allclose(charts[1], charts[0], rtol=1e-14, atol=0)

    @pytest.mark.parametrize("scale", [2.0 ** -40, 1.0, 2.0 ** 40])
    def test_canonical_flag_is_relative_to_the_canonical_form(self, scale):
        # alpha = s / 2: gamma = I / (2 alpha) is canonical at every scale,
        # 2 I / (2 alpha) at none
        alpha = 0.5 * scale
        params = ModelParams(alpha1=alpha, alpha5=-2.0)
        assert darboux_reduce(np.eye(2) / (2 * alpha), np.eye(2), params).canonical
        assert not darboux_reduce(np.eye(2) / alpha, np.eye(2), params).canonical

    def test_canonical_flag_at_large_alpha(self):
        # gamma = 2 I / (2 alpha) differs from I / (2 alpha) by 1e-12 entrywise
        # at alpha = 1e12, a whole unit of the canonical form
        alpha = 1e12
        params = ModelParams(alpha1=alpha, alpha5=-2.0)
        assert not darboux_reduce(np.eye(2) / alpha, np.eye(2), params).canonical


class TestRegularSector:
    def test_momenta_static_gamma_alpha3_zero(self, rng):
        n = 2
        params = full_params(alpha3=0.0)
        state = FullState(psi=rand_vec(rng, n), psi_dot=rand_vec(rng, n),
                          gamma=rand_pd(rng, n), gamma_dot=np.zeros((n, n)))
        point = legendre_regular(state, params)
        assert np.allclose(point.pi_gamma, 0.0)

    def test_velocity_free_momentum(self, rng):
        n = 2
        params = full_params()
        gamma = rand_pd(rng, n)
        psi = rand_vec(rng, n)
        state = FullState(psi=psi, psi_dot=np.zeros(n), gamma=gamma,
                          gamma_dot=rand_herm(rng, n, 0.4))
        point = legendre_regular(state, params)
        assert np.allclose(point.pi, 1j * params.alpha1 * (np.conj(psi) @ gamma))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_keeps_the_bits_of_the_one_state_formula(self, rng, n):
        # the momentum kernel takes stacks; on one state it has the bits of
        # pi = alpha2 psid^ Gamma + i alpha1 psi^ Gamma in 1-D dot products
        # and pi_gamma = alpha3 P + 2 Omega(gamma_dot), each with its own
        # inverse of Gamma, as are the singular momenta it gives
        params = full_params()
        for _ in range(10):
            state = random_state(rng, n)
            psi, psid, g, gd = state.psi, state.psi_dot, state.gamma, state.gamma_dot
            pi = params.alpha2 * np.conj(psid).dot(g) + 1j * params.alpha1 * np.conj(psi).dot(g)
            pi_gamma = params.alpha3 * p_tensor(psi, g, params.alpha9) \
                + 2.0 * apply_omega(psi, g, params, gd)
            point = legendre_regular(state, params)
            assert point.pi.tobytes() == pi.tobytes()
            assert point.pi_gamma.tobytes() == hermitian_part(pi_gamma).tobytes()
            singular = 1j * params.alpha1 * np.conj(psi).dot(g)
            assert primary_constraints(point, params.alpha1).phi.tobytes() \
                == (point.pi - singular).tobytes()
            assert darboux_momentum(psi, g, params.alpha1).tobytes() \
                == (2.0j * params.alpha1 * np.conj(psi).dot(g)).tobytes()

    def test_round_trip(self, rng):
        params = full_params()
        for _ in range(10):
            n = int(rng.integers(1, 4))
            state = random_state(rng, n)
            point = legendre_regular(state, params)
            psid, gd = legendre_inverse(point, params)
            assert np.max(np.abs(psid - state.psi_dot)) < 1e-10
            assert np.max(np.abs(gd - state.gamma_dot)) < 1e-10

    def test_inverse_requires_alpha2(self, rng):
        params = full_params()
        point = legendre_regular(random_state(rng, 2), params)
        with pytest.raises(ZeroAlpha2):
            legendre_inverse(point, full_params(alpha2=0.0))

    @pytest.mark.parametrize("ns, couplings", [
        pytest.param((2,), lambda n: {}, id="generic"),
        pytest.param((1, 2, 3, 4), killing_alpha8, id="killing+alpha8"),
    ])
    def test_hamiltonian_is_energy_pullback(self, rng, ns, couplings):
        for n in ns:
            params = full_params(**couplings(n))
            chi = rand_herm(rng, n)
            for _ in range(100 // len(ns)):
                state = random_state(rng, n)
                point = legendre_regular(state, params)
                assert hamiltonian(point, params, chi) == pytest.approx(
                    energy(state, params, chi), rel=1e-10, abs=1e-10)

    def test_gamma_sector_isolation(self, rng):
        # psi = 0, pi = 0, alpha3 = 0: only the quadratic pi_gamma term remains
        n = 2
        params = full_params(alpha3=0.0, kappa=0.0)
        gamma = rand_pd(rng, n)
        pg = rand_herm(rng, n)
        point = PhasePoint(psi=np.zeros(n), pi=np.zeros(n), gamma=gamma, pi_gamma=pg)
        val = hamiltonian(point, params, np.zeros((n, n)))
        x = apply_omega_inverse(np.zeros(n), gamma, params, pg)
        assert val == pytest.approx(0.25 * float(np.trace(pg @ x).real), rel=1e-12)

    def test_kappa_term_additive(self, rng):
        params = full_params(kappa=0.0)
        params_k = full_params(kappa=0.7)
        chi = rand_herm(rng, 2)
        state = random_state(rng, 2)
        point = legendre_regular(state, params)
        point_k = legendre_regular(state, params_k)
        th = theta1(state.psi, state.gamma)
        assert hamiltonian(point_k, params_k, chi) - hamiltonian(point, params, chi) \
            == pytest.approx(0.7 * th * th, rel=1e-10)


class TestHamiltonianRealityGuard:
    POINT = dict(psi=np.array([1.0, 0.5]), pi=np.zeros(2), gamma=np.eye(2))

    @pytest.mark.parametrize("s", [2.0 ** -40, 1.0, 2.0 ** 40])
    def test_complex_coupling_refused_at_every_scale(self, s):
        point, chi = PhasePoint(**self.POINT), np.zeros((2, 2))
        with pytest.raises(ValueError, match="imaginary part"):
            hamiltonian(point, ModelParams(alpha2=s, alpha4=(0.5 + 0.5j) * s), chi)
        ref = hamiltonian(point, ModelParams(alpha2=1.0, alpha4=0.5), chi)
        assert hamiltonian(point, ModelParams(alpha2=s, alpha4=0.5 * s), chi) == s * ref

    @pytest.mark.parametrize("s", [2.0 ** -40, 1.0, 2.0 ** 40])
    def test_real_couplings_pass_at_every_scale(self, rng, s):
        n = 3
        params, chi = full_params(), rand_herm(rng, n)
        point = legendre_regular(random_state(rng, n), params)
        scaled = scale_couplings(params, s)
        scaled_point = PhasePoint(psi=point.psi, pi=s * point.pi, gamma=point.gamma,
                                  pi_gamma=s * point.pi_gamma)
        assert hamiltonian(scaled_point, scaled, chi) == pytest.approx(
            s * hamiltonian(point, params, chi), rel=1e-13)


class TestHamiltonFlow:
    def test_equilibrium_zero_flow(self, rng):
        n = 2
        params = full_params(alpha4=0.0, kappa=0.0)
        gamma = rand_pd(rng, n)
        pg = params.alpha3 * p_tensor(np.zeros(n), gamma, params.alpha9)
        point = PhasePoint(psi=np.zeros(n), pi=np.zeros(n), gamma=gamma, pi_gamma=pg)
        flow = hamilton_flow_check(point, params, np.zeros((n, n)))
        assert np.max(np.abs(flow.psi_dot)) < 1e-9
        assert np.max(np.abs(flow.pi_dot)) < 1e-9
        assert np.max(np.abs(flow.gamma_dot)) < 1e-9
        assert np.max(np.abs(flow.pi_gamma_dot)) < 1e-9

    @pytest.mark.parametrize("extra", [
        {}, {"alpha4": 0.3}, {"forcing": lambda t: np.array([0.3, -0.2j])}],
        ids=["plain", "alpha4", "constant_forcing"])
    def test_frozen_sector_matches_second_order(self, rng, extra):
        # L(1,2) canonical flow: FD derivatives of the Hamiltonian against
        # the Lagrangian flow pushed through the Legendre map
        n = 2
        params = ModelParams(alpha1=0.6, alpha2=0.5, alpha5=-2.0, **extra)
        gamma, chi = rand_pd(rng, n), rand_herm(rng, n)
        state = FullState(psi=rand_vec(rng, n), psi_dot=rand_vec(rng, n),
                          gamma=gamma, gamma_dot=np.zeros((n, n)))
        pi = params.alpha2 * (np.conj(state.psi_dot) @ gamma) \
            + 1j * params.alpha1 * (np.conj(state.psi) @ gamma)
        point = PhasePoint(psi=state.psi, pi=pi, gamma=gamma)
        flow_fd = hamilton_flow_check(point, params, chi)
        flow_lag = lagrangian_flow_through_legendre(point, params, chi)
        assert np.max(np.abs(flow_fd.psi_dot - flow_lag.psi_dot)) < 1e-6
        assert np.max(np.abs(flow_fd.pi_dot - flow_lag.pi_dot)) < 1e-6
        assert np.allclose(flow_lag.psi_dot, state.psi_dot, atol=1e-12)

    def test_full_model_two_path(self, rng):
        params = full_params()
        chi = rand_herm(rng, 2)
        for _ in range(5):
            point = legendre_regular(random_state(rng, 2), params)
            flow_fd = hamilton_flow_check(point, params, chi)
            flow_lag = lagrangian_flow_through_legendre(point, params, chi)
            scale = max(1.0, np.max(np.abs(flow_lag.pi_gamma_dot)))
            assert np.max(np.abs(flow_fd.psi_dot - flow_lag.psi_dot)) < 1e-5 * scale
            assert np.max(np.abs(flow_fd.pi_dot - flow_lag.pi_dot)) < 1e-5 * scale
            assert np.max(np.abs(flow_fd.gamma_dot - flow_lag.gamma_dot)) < 1e-5 * scale
            assert np.max(np.abs(flow_fd.pi_gamma_dot - flow_lag.pi_gamma_dot)) \
                < 1e-5 * scale

    def test_full_model_flow_inverts_gamma_once(self, rng, monkeypatch):
        # one raw inverse of gamma serves the Legendre inverse, the
        # accelerations, dP/dt and the kinetic tensor; the flow keeps the
        # bits of composing those steps, each with its own inverse; pi_dot
        # is the product rule on pi = (alpha2 psid^ + i alpha1 psi^) gamma
        params, chi = full_params(), rand_herm(rng, 3)
        point = legendre_regular(random_state(rng, 3), params)
        psid, gd = legendre_inverse(point, params)
        psi_ddot, gamma_ddot = rhs_full(FullState(psi=point.psi, psi_dot=psid, gamma=point.gamma,
                                                  gamma_dot=gd, t=point.t), params, chi)
        ginv = invert_form(point.gamma)
        expected = {
            "psi_dot": psid, "gamma_dot": gd,
            "pi_dot": (params.alpha2 * (np.conj(psi_ddot) @ point.gamma)
                       + 1j * params.alpha1 * (np.conj(psid) @ point.gamma))
            + (params.alpha2 * (np.conj(psid) @ gd) + 1j * params.alpha1 * (np.conj(point.psi) @ gd)),
            "pi_gamma_dot": params.alpha3 * _p_dot(point.psi, psid, ginv, gd, params.alpha9)
            + 2.0 * _apply_omega_dot(point.psi, psid, ginv, gd, params, gd)
            + 2.0 * apply_omega(point.psi, point.gamma, params, gamma_ddot)}

        calls = []
        inv = np.linalg.inv

        def counted(*args, **kwargs):
            calls.append(1)
            return inv(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "inv", counted)
        flow = lagrangian_flow_through_legendre(point, params, chi)
        assert len(calls) == 1
        for name, value in expected.items():
            assert getattr(flow, name).tobytes() == value.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fd_flow_inverts_gamma_once_per_moved_gamma(rng, monkeypatch, n):
    # one raw inverse of gamma serves every psi, pi and pi_gamma partial;
    # each of the 2 n^2 evaluations with a moved gamma entry inverts its
    # own gamma, and the flow keeps the bits of every evaluation inverting
    params, chi = full_params(), rand_herm(rng, n)
    point = legendre_regular(random_state(rng, n), params)
    real = canonical._hamiltonian_ext
    monkeypatch.setattr(canonical, "_hamiltonian_ext",
                        lambda *args, ginv=None, **kwargs: real(*args, **kwargs))
    reference = hamilton_flow_check(point, params, chi)
    monkeypatch.setattr(canonical, "_hamiltonian_ext", real)

    calls = []
    inv = np.linalg.inv

    def counted(*args, **kwargs):
        calls.append(1)
        return inv(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "inv", counted)
    flow = hamilton_flow_check(point, params, chi)
    assert len(calls) == 1 + 2 * n * n
    for name in ("psi_dot", "pi_dot", "gamma_dot", "pi_gamma_dot"):
        assert getattr(flow, name).tobytes() == getattr(reference, name).tobytes()


def test_hamiltonian_conserved_along_fd_flow(rng):
    # integrating the finite-difference canonical flow itself keeps the
    # Hamiltonian within 1e-5 relative over 1e3 small steps
    n = 1
    params = full_params()
    chi = rand_herm(rng, n)
    state = random_state(rng, n)
    point = legendre_regular(state, params)
    h0 = hamiltonian(point, params, chi)

    def unpack(y):
        return PhasePoint(psi=y[0:1], pi=y[1:2], gamma=np.array([[y[2].real]]),
                          pi_gamma=np.array([[y[3].real]]))

    def f(y):
        flow = hamilton_flow_check(unpack(y), params, chi)
        return np.array([flow.psi_dot[0], flow.pi_dot[0],
                         flow.gamma_dot[0, 0], flow.pi_gamma_dot[0, 0]])

    y = np.array([point.psi[0], point.pi[0], point.gamma[0, 0],
                  point.pi_gamma[0, 0]], dtype=complex)
    dt = 1e-3
    for _ in range(1000):
        k1 = f(y)
        k2 = f(y + dt / 2 * k1)
        k3 = f(y + dt / 2 * k2)
        k4 = f(y + dt * k3)
        y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    h1 = hamiltonian(unpack(y), params, chi)
    assert abs(h1 - h0) < 1e-5 * max(1.0, abs(h0))


def test_implicit_midpoint_symplectic_smoke():
    # regular system (alpha2 != 0, frozen gamma): the Legendre map is linear,
    # so the second_order run is the canonical one in other coordinates and
    # the midpoint rule keeps the quadratic Hamiltonian without secular drift
    from hermiton.integrate import IntegratorConfig, integrate

    params, state, chi = symplectic_smoke_case()
    n_steps = 10 ** 5
    dt = 0.01
    cfg = IntegratorConfig(dt=dt, t_end=n_steps * dt, method="implicit_midpoint",
                           sample_stride=500)
    traj = integrate(state, "second_order", cfg, params, chi)
    energies = traj.series("energy")
    drift = np.abs(energies - energies[0])
    # the Hamiltonian is a quadratic invariant, so the midpoint rule keeps it
    # to stage-solver accuracy over the whole run; a non-symplectic method of
    # the same order would show a secular O(dt^2 * T) trend instead
    assert drift.max() < 1e-9 * max(1.0, abs(energies[0]))
    # each sample's Hamiltonian, at pi = alpha2 psi_dot^ gamma + i alpha1 psi^ gamma,
    # is its recorded energy
    for s, e in zip(traj.states, energies):
        pi = params.alpha2 * (np.conj(s.psi_dot) @ s.gamma) \
            + 1j * params.alpha1 * (np.conj(s.psi) @ s.gamma)
        h = hamiltonian(PhasePoint(psi=s.psi, pi=pi, gamma=s.gamma, t=s.t), params, chi)
        assert abs(h - e) <= 1e-12 * abs(e)


_FROZEN_CASES = {
    "plain": lambda n: {},
    "alpha4": lambda n: {"alpha4": 0.3},
    "constant_forcing": lambda n: {"forcing": lambda t: 0.3 * np.exp(1j * np.arange(n))},
    "rotating_chi": lambda n: {},
}


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("case", list(_FROZEN_CASES))
@pytest.mark.parametrize("method", ["rk4", "implicit_midpoint"])
def test_second_order_run_is_the_canonical_run_in_legendre_coordinates(rng, method, case,
                                                                        n):
    # on a frozen gamma, pi = alpha2 psi_dot^ gamma + i alpha1 psi^ gamma is
    # real-linear in (psi, psi_dot), and RK4 and the implicit midpoint commute
    # with a linear change of variables: (psi, pi) stepped by the analytic
    # canonical flow is the second_order run read through the Legendre map
    from hermiton.integrate import (
        IntegratorConfig,
        _implicit_midpoint_step,
        _rk4_step,
        integrate,
    )

    params = ModelParams(alpha1=0.6, alpha2=0.5, alpha5=-2.0, **_FROZEN_CASES[case](n))
    gamma, base = rand_pd(rng, n), rand_herm(rng, n)
    chi = (lambda t: np.cos(0.7 * t) * base) if case == "rotating_chi" else base
    state = FullState(psi=rand_vec(rng, n), psi_dot=rand_vec(rng, n),
                      gamma=gamma, gamma_dot=np.zeros((n, n)))
    dt, n_steps, stride = 0.01, 60, 10
    cfg = IntegratorConfig(dt=dt, t_end=n_steps * dt, method=method, sample_stride=stride)
    traj = integrate(state, "second_order", cfg, params, chi)

    def canonical_rates(t, y):
        psi, pi = y.view(complex).reshape(2, n)
        flow = lagrangian_flow_through_legendre(
            PhasePoint(psi=psi, pi=pi, gamma=gamma, t=t), params, chi)
        return np.concatenate([flow.psi_dot, flow.pi_dot]).view(float)

    def step(t, y):
        if method == "rk4":
            return _rk4_step(canonical_rates, t, y, dt)
        return _implicit_midpoint_step(canonical_rates, t, y, dt)[0]

    y = np.concatenate([state.psi, legendre_regular(state, params).pi]).view(float)
    canonical = [y]
    for k in range(n_steps):
        y = step(k * dt, y)
        if (k + 1) % stride == 0:
            canonical.append(y)
    assert len(canonical) == len(traj.states)
    for s, y in zip(traj.states, canonical):
        psi, pi = y.view(complex).reshape(2, n)
        pi_of_sample = params.alpha2 * (np.conj(s.psi_dot) @ gamma) \
            + 1j * params.alpha1 * (np.conj(s.psi) @ gamma)
        scale = 1.0 + np.max(np.abs(y))
        assert np.max(np.abs(s.psi - psi)) <= 1e-12 * scale
        assert np.max(np.abs(pi_of_sample - pi)) <= 1e-12 * scale
