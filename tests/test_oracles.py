import numpy as np
import pytest

from hermiton import models, oracles
from hermiton.dynamics import el_residual
from hermiton.errors import NotGHermitian, NotHermitian, SingularForm, SingularOperator
from hermiton.hermitian_algebra import hermiticity_drift, matrix_exp
from hermiton.models import (
    FullState,
    ModelParams,
    PotentialSpec,
    apply_omega,
    lagrangian_value,
    omega_inverse,
    theta1,
)
from hermiton.oracles import (
    DiscretizedPath,
    GammaExponentialSolution,
    action_gradient_fd,
    exact_gamma,
    exact_schrodinger,
    omega_inverse_numeric,
)

from conftest import full_params, rand_herm, rand_pd, rand_vec, smooth_path


class TestExactGamma:
    def test_zero_generator(self, rng):
        g = rand_pd(rng, 3)
        sol = GammaExponentialSolution(G=g, E=np.zeros((3, 3)))
        assert np.allclose(exact_gamma(sol, 2.0), g)

    def test_scalar_exponential(self):
        sol = GammaExponentialSolution(G=np.eye(1), E=np.array([[0.6]]))
        assert exact_gamma(sol, 1.5)[0, 0] == pytest.approx(np.exp(0.9))

    def test_spectral_growth(self, rng):
        # G = I, E Hermitian: gamma(t) = exp(E t) has eigenvalues exp(lam t)
        e = rand_herm(rng, 2)
        lam = np.linalg.eigvalsh(e)
        sol = GammaExponentialSolution(G=np.eye(2), E=e)
        got = np.sort(np.linalg.eigvalsh(exact_gamma(sol, 1.3)))
        assert np.allclose(got, np.exp(np.sort(lam) * 1.3), rtol=1e-10)

    def test_stays_hermitian(self, rng):
        g = rand_pd(rng, 3)
        e = np.linalg.solve(g, rand_herm(rng, 3, 0.7))
        sol = GammaExponentialSolution(G=g, E=e)
        for t in np.linspace(-1.5, 1.5, 7):
            assert hermiticity_drift(exact_gamma(sol, t)) < 1e-10

    def test_inadmissible_generator_rejected(self, rng):
        g = rand_pd(rng, 2)
        bad = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        with pytest.raises(NotGHermitian):
            GammaExponentialSolution(G=g, E=bad)

    def test_geodesic_equation_satisfied(self, rng):
        # gamma_ddot - gamma_dot gamma^{-1} gamma_dot == 0 at 20 sampled times
        g = rand_pd(rng, 2)
        e = np.linalg.solve(g, rand_herm(rng, 2, 0.5))
        sol = GammaExponentialSolution(G=g, E=e)
        for t in np.linspace(0.0, 2.0, 20):
            expt = matrix_exp(e, t)
            gamma = g @ expt
            gamma_dot = g @ e @ expt
            gamma_ddot = g @ e @ e @ expt
            defect = gamma_ddot - gamma_dot @ np.linalg.inv(gamma) @ gamma_dot
            assert np.max(np.abs(defect)) < 1e-10 * max(1.0, np.max(np.abs(gamma_ddot)))



class TestExactSchrodinger:
    def test_t_zero(self, rng):
        psi0 = rand_vec(rng, 3)
        assert np.allclose(exact_schrodinger(psi0, rand_herm(rng, 3), 1.0, 0.0), psi0)

    def test_diagonal_phases(self):
        psi0 = np.array([1.0, 1.0], dtype=complex)
        got = exact_schrodinger(psi0, np.diag([1.0, 2.0]), 1.0, 0.7)
        assert np.allclose(got, [np.exp(-0.7j), np.exp(-1.4j)])

    def test_gamma_norm_preserved(self, rng):
        n = 3
        gamma = rand_pd(rng, n)
        h = np.linalg.solve(gamma, rand_herm(rng, n))   # gamma-Hermitian
        psi0 = rand_vec(rng, n)
        th0 = theta1(psi0, gamma)
        for t in (0.5, 2.0):
            th = theta1(exact_schrodinger(psi0, h, 1.0, t), gamma)
            assert abs(th - th0) < 1e-12 * max(1.0, abs(th0))


class TestActionGradient:
    def test_near_zero_on_solution_path(self, rng):
        # frozen-gamma Schrodinger solution: the psi residual estimate is
        # small compared to the residual scale of a generic path
        n = 2
        hbar = 1.0
        params = ModelParams(alpha1=hbar / 2.0, alpha5=-1.0)
        gamma = rand_pd(rng, n)
        chi = rand_herm(rng, n)
        h = np.linalg.solve(gamma, chi)
        psi0 = rand_vec(rng, n)
        dt = 1e-3
        times = dt * np.arange(41)
        psis = np.stack([exact_schrodinger(psi0, h, hbar, t) for t in times])
        gammas = np.stack([gamma for _ in times])
        path = DiscretizedPath(times=times, psis=psis, gammas=gammas)
        grad = action_gradient_fd(path, params, chi, "psi", 20, h=1e-5)
        assert np.max(np.abs(grad)) < 1e-4 * max(1.0, np.max(np.abs(chi @ psi0)))

    def test_linear_response_to_bump(self, rng):
        # perturbing the solution by eps at one node produces a residual
        # linear in eps
        n = 1
        params = ModelParams(alpha1=0.5, alpha5=-1.0)
        gamma = np.eye(1)
        chi = 1.2 * np.eye(1)
        psi0 = np.array([1.0 + 0.0j])
        dt = 1e-3
        times = dt * np.arange(41)
        base = np.stack([exact_schrodinger(psi0, chi, 1.0, t) for t in times])
        gammas = np.stack([gamma for _ in times])
        responses = []
        for eps in (1e-3, 5e-4):
            psis = base.copy()
            psis[20, 0] += eps
            path = DiscretizedPath(times=times, psis=psis, gammas=gammas)
            grad = action_gradient_fd(path, params, chi, "psi", 20, h=1e-6)
            responses.append(np.max(np.abs(grad)))
        assert responses[0] == pytest.approx(2.0 * responses[1], rel=2e-2)

    def test_matches_analytic_residuals(self, rng):
        params = full_params()
        n = 2
        chi = rand_herm(rng, n)
        path, fns = smooth_path(rng, n, 41, 2e-3)
        node = 20
        t = path.times[node]
        state = FullState(psi=fns["psi"](t), psi_dot=fns["psi_dot"](t),
                          gamma=fns["gamma"](t), gamma_dot=fns["gamma_dot"](t), t=t)
        res = el_residual(state, (fns["psi_ddot"](t), fns["gamma_ddot"](t)),
                          params, chi)
        fd_psi = action_gradient_fd(path, params, chi, "psi", node, h=1e-4)
        fd_gamma = action_gradient_fd(path, params, chi, "gamma", node, h=1e-4)
        scale = max(np.max(np.abs(fd_psi)), np.max(np.abs(fd_gamma)))
        assert np.max(np.abs(res.r_psi - fd_psi)) < 1e-5 * scale
        assert np.max(np.abs(res.r_gamma - fd_gamma)) < 1e-5 * scale

    def test_quadratic_convergence_under_halving(self, rng):
        params = full_params()
        n = 2
        chi = rand_herm(rng, n)
        gaps = []
        for dt, h in ((4e-3, 4e-4), (2e-3, 2e-4)):
            rng_local = np.random.default_rng(99)
            path, fns = smooth_path(rng_local, n, 41, dt)
            node = 20
            t = path.times[node]
            state = FullState(psi=fns["psi"](t), psi_dot=fns["psi_dot"](t),
                              gamma=fns["gamma"](t), gamma_dot=fns["gamma_dot"](t), t=t)
            res = el_residual(state, (fns["psi_ddot"](t), fns["gamma_ddot"](t)),
                              params, chi)
            fd = action_gradient_fd(path, params, chi, "psi", node, h=h)
            gaps.append(np.max(np.abs(res.r_psi - fd)))
        assert gaps[0] / gaps[1] > 2.5   # ~4x for an O(h^2)+O(dt^2) scheme

    def test_node_bounds(self, rng):
        path, _ = smooth_path(rng, 1, 11, 1e-3)
        with pytest.raises(ValueError):
            action_gradient_fd(path, full_params(), np.eye(1), "psi", 1)
        with pytest.raises(ValueError):
            action_gradient_fd(path, full_params(), np.eye(1), "nope", 5)


def _serial_action_gradient(path, params, chi, index, node, h):
    """Reference of ``action_gradient_fd``: every probe a copy of the path,
    with a FullState and a scalar Lagrangian at each of the three nodes that
    the data at ``node`` enters."""
    dt = path.dt

    def node_lagrangian(psis, gammas, k):
        state = FullState(psi=psis[k], psi_dot=(psis[k + 1] - psis[k - 1]) / (2.0 * dt),
                          gamma=gammas[k], gamma_dot=(gammas[k + 1] - gammas[k - 1]) / (2.0 * dt),
                          t=float(path.times[k]))
        return dt * lagrangian_value(state, params, chi)

    def local_action(psis, gammas):
        return sum(node_lagrangian(psis, gammas, k) for k in (node - 1, node, node + 1))

    def probe_psi(a, delta):
        psis = path.psis.copy()
        psis[node, a] += delta
        return local_action(psis, path.gammas)

    def probe_gamma(direction):
        gammas = path.gammas.copy()
        gammas[node] = gammas[node] + direction
        return local_action(path.psis, gammas)

    n = path.n
    if index == "psi":
        out = np.zeros(n, dtype=complex)
        for a in range(n):
            d_re = (probe_psi(a, +h) - probe_psi(a, -h)) / (2.0 * h)
            d_im = (probe_psi(a, +1j * h) - probe_psi(a, -1j * h)) / (2.0 * h)
            out[a] = -(0.5 * (d_re + 1j * d_im)) / dt
        return out
    out = np.zeros((n, n), dtype=complex)
    for a in range(n):
        e_aa = np.zeros((n, n), dtype=complex)
        e_aa[a, a] = 1.0
        out[a, a] = -((probe_gamma(h * e_aa) - probe_gamma(-h * e_aa)) / (2.0 * h)) / dt
    for a in range(n):
        for b in range(a + 1, n):
            sym = np.zeros((n, n), dtype=complex)
            sym[a, b] = sym[b, a] = 1.0
            skew = np.zeros((n, n), dtype=complex)
            skew[a, b], skew[b, a] = 1j, -1j
            d_s = (probe_gamma(h * sym) - probe_gamma(-h * sym)) / (2.0 * h)
            d_t = (probe_gamma(h * skew) - probe_gamma(-h * skew)) / (2.0 * h)
            grad_ab = 0.5 * (d_s - 1j * d_t)
            out[b, a] = -grad_ab / dt
            out[a, b] = np.conj(-grad_ab / dt)
    return out


def _oracle_case(model, n, seed):
    """(path, params, chi) of one stacked-oracle parity case."""
    rng = np.random.default_rng(seed)
    path, _ = smooth_path(rng, n, 9, 2e-3)
    chi0, chi1 = rand_herm(rng, n), rand_herm(rng, n, 0.3)
    covector = rand_vec(rng, n, 0.2)
    params = {
        "plain": full_params(kappa=0.0),
        "quartic": full_params(),
        "custom": full_params(kappa=0.0, potential=PotentialSpec(
            kind="custom", f=lambda x: 0.3 * np.cos(x) + 0.05 * x ** 3,
            f_prime=lambda x: -0.3 * np.sin(x) + 0.15 * x ** 2)),
        "constant_forcing": full_params(forcing=lambda t: covector),
        "harmonic_forcing": full_params(forcing=lambda t: covector * np.exp(2.5j * t)),
        "callable_chi": full_params(),
    }[model]
    chi = (lambda t: chi0 + np.sin(3.0 * t) * chi1) if model == "callable_chi" else chi0
    return path, params, chi


_ORACLE_MODELS = ("plain", "quartic", "custom", "constant_forcing", "harmonic_forcing",
                  "callable_chi")


class TestStackedActionGradient:
    """The stacked oracle against the serial reference, bit for bit."""

    @pytest.mark.parametrize("index", ["psi", "gamma"])
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("model", _ORACLE_MODELS)
    def test_bit_identical_to_serial_reference(self, model, n, index):
        path, params, chi = _oracle_case(model, n, seed=100 * n + _ORACLE_MODELS.index(model))
        for h in (1e-4, 3e-6, 2.5e-3):
            got = action_gradient_fd(path, params, chi, index, 4, h=h)
            want = _serial_action_gradient(path, params, chi, index, 4, h)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("index", ["psi", "gamma"])
    def test_one_stacked_evaluation(self, monkeypatch, index):
        path, params, chi = _oracle_case("harmonic_forcing", 3, seed=5)
        calls = {"inv": 0, "terms": 0}
        inv, terms = np.linalg.inv, oracles._lagrangian_terms

        def counted_inv(*args, **kwargs):
            calls["inv"] += 1
            return inv(*args, **kwargs)

        def counted_terms(*args, **kwargs):
            calls["terms"] += 1
            return terms(*args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("the stacked oracle makes no one-state call")

        monkeypatch.setattr(np.linalg, "inv", counted_inv)
        monkeypatch.setattr(oracles, "_lagrangian_terms", counted_terms)
        monkeypatch.setattr(models, "lagrangian_value", forbidden)
        monkeypatch.setattr(models.FullState, "__post_init__", forbidden)
        action_gradient_fd(path, params, chi, index, 4)
        assert calls == {"inv": 1, "terms": 1}

    @pytest.mark.parametrize("index", ["psi", "gamma"])
    @pytest.mark.parametrize("defect, error", [("singular", SingularForm),
                                               ("non_hermitian", NotHermitian)])
    def test_invalid_probe_state_raises_the_serial_error(self, index, defect, error):
        # gamma at node + 1, which no probe moves
        path, params, chi = _oracle_case("plain", 2, seed=11)
        gammas = path.gammas.copy()
        if defect == "singular":
            gammas[5] = np.array([[1.0, 1.0], [1.0, 1.0]])
        else:
            gammas[5, 0, 1] += 0.3
        path = DiscretizedPath(times=path.times, psis=path.psis, gammas=gammas)
        with pytest.raises(error):
            _serial_action_gradient(path, params, chi, index, 4, 1e-4)
        with pytest.raises(error):
            action_gradient_fd(path, params, chi, index, 4)


class TestOmegaInverseNumeric:
    def test_matches_closed_form_alpha89_zero(self, rng):
        params = full_params(alpha8=0.0, alpha9=0.0)
        psi, gamma = rand_vec(rng, 2), rand_pd(rng, 2)
        oi_c = omega_inverse(psi, gamma, params)
        oi_n = omega_inverse_numeric(psi, gamma, params)
        assert np.max(np.abs(oi_c - oi_n)) < 1e-10 * max(1.0, np.max(np.abs(oi_n)))

    def test_scalar_value(self):
        params = ModelParams(alpha6=0.7, alpha7=0.4)
        oi = omega_inverse_numeric(np.zeros(1), np.eye(1), params)
        assert oi.reshape(()) == pytest.approx(1.0 / 1.1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_condition_test_keeps_the_plain_inverse_bits(self, rng, monkeypatch, n):
        # the checked inverse changes only the refusal rule: an accepted
        # operator has the bits of a plain np.linalg.inv
        params = full_params(**{f"alpha{k}": float(rng.uniform(0.1, 1.0)) for k in (6, 7, 8, 9)})
        psi, gamma = rand_vec(rng, n), rand_pd(rng, n)
        checked = omega_inverse_numeric(psi, gamma, params)
        monkeypatch.setattr(oracles, "_checked_inverse", np.linalg.inv)
        assert checked.tobytes() == omega_inverse_numeric(psi, gamma, params).tobytes()

    def test_engineered_degeneracy(self, rng):
        # alpha6 = -n alpha7 with psi = 0 puts gamma in the kernel
        with pytest.raises(SingularOperator):
            omega_inverse_numeric(np.zeros(3), rand_pd(rng, 3),
                                  ModelParams(alpha6=3.0, alpha7=-1.0))

    def test_operator_inverse_property(self, rng):
        params = full_params()
        n = 3
        psi, gamma = rand_vec(rng, n), rand_pd(rng, n)
        oi = omega_inverse_numeric(psi, gamma, params)
        for _ in range(5):
            x = rand_herm(rng, n)
            y = apply_omega(psi, gamma, params, x)
            back = np.einsum("abcd,dc->ab", oi, y)
            assert np.linalg.norm(back - x) < 1e-10 * np.linalg.norm(x)
