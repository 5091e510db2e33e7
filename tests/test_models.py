from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from hermiton import models
from hermiton.errors import DegenerateKinetic
from hermiton.hermitian_algebra import hermiticity_drift, invert_form
from hermiton.models import (
    FullState,
    ModelParams,
    PotentialSpec,
    apply_omega,
    apply_omega_inverse,
    effective_hamiltonian,
    energy,
    lagrangian_value,
    omega_inverse,
    p_tensor,
    potential_gradient,
    preset,
    theta1,
)
from hermiton.oracles import omega_inverse_numeric

from conftest import (
    count_numeric_inverse,
    full_params,
    killing_alpha8,
    rand_herm,
    rand_pd,
    rand_vec,
)


class TestModelParams:
    def test_hbar_positive(self):
        for name in ("schrodinger", "kozlov-heat", "killing"):
            for hbar in (0.0, -1.0, float("nan")):
                with pytest.raises(ValueError, match="hbar must be positive"):
                    preset(name, n=2, hbar=hbar)

    def test_kappa_vs_potential_exclusive(self):
        with pytest.raises(ValueError):
            ModelParams(kappa=1.0, potential=PotentialSpec(kind="quartic_pure", kappa=1.0))

    def test_presets(self):
        p = preset("schrodinger", hbar=2.0)
        assert p.alpha1 == 1.0 and p.alpha5 == -1.0
        p = preset("kozlov-heat", hbar=1.0, tau=0.25)
        assert (p.alpha1, p.alpha2, p.alpha5) == (1.0, -1.0, -2.0)
        p = preset("killing", n=3)
        assert (p.alpha6, p.alpha7) == (3.0, -1.0)
        with pytest.raises(ValueError):
            preset("killing")
        with pytest.raises(ValueError):
            preset("nope")


class TestPotentialSpec:
    def test_quartic_shifted(self):
        spec = PotentialSpec(kind="quartic_shifted", kappa=2.0, shift=1.0)
        assert spec.value(3.0) == pytest.approx(8.0)
        assert spec.derivative(3.0) == pytest.approx(8.0)

    def test_custom_needs_f_prime(self):
        with pytest.raises(ValueError, match="f_prime"):
            PotentialSpec(kind="custom", f=lambda x: np.sin(x))

    def test_custom_derivative_is_exact(self):
        # at theta1 = 2^-40 a central difference of x^3 with step 1e-6 reads
        # 1.0e-12, against 3 x^2 = 2.5e-24
        spec = PotentialSpec(kind="custom", f=lambda x: x ** 3, f_prime=lambda x: 3.0 * x ** 2)
        assert spec.derivative(2.0 ** -40) == 3.0 * 2.0 ** -80
        grad = potential_gradient(np.array([2.0 ** -20]), np.eye(1), spec)
        assert grad[0] == 3.0 * 2.0 ** -100

    def test_custom_needs_f(self):
        with pytest.raises(ValueError):
            PotentialSpec(kind="custom")


class TestLagrangian:
    def test_all_zero_couplings(self, rng):
        state = FullState(psi=rand_vec(rng, 2), psi_dot=rand_vec(rng, 2),
                          gamma=rand_pd(rng, 2), gamma_dot=rand_herm(rng, 2))
        assert lagrangian_value(state, ModelParams(), rand_herm(rng, 2)) == 0.0

    def test_single_theta1_term(self, rng):
        # alpha4 only: L = theta1; scale psi so theta1 == 2
        n = 2
        gamma = rand_pd(rng, n)
        psi = rand_vec(rng, n)
        psi = psi * np.sqrt(2.0 / theta1(psi, gamma))
        state = FullState(psi=psi, psi_dot=np.zeros(n), gamma=gamma,
                          gamma_dot=np.zeros((n, n)))
        val = lagrangian_value(state, ModelParams(alpha4=1.0), np.zeros((n, n)))
        assert val == pytest.approx(2.0, abs=1e-12)

    def test_vanishes_on_stationary_phase_solution(self):
        # alpha1 = hbar/2, alpha5 = -1, gamma = I, chi = E*I: the velocity
        # term cancels the Hamiltonian term on psi(t) = exp(-iEt/hbar) psi0
        hbar, e_level = 1.0, 1.7
        psi0 = np.array([0.6, 0.8j])
        t = 0.33
        psi = np.exp(-1j * e_level * t / hbar) * psi0
        psi_dot = -1j * e_level / hbar * psi
        state = FullState(psi=psi, psi_dot=psi_dot, gamma=np.eye(2),
                          gamma_dot=np.zeros((2, 2)), t=t)
        params = ModelParams(alpha1=hbar / 2.0, alpha5=-1.0)
        val = lagrangian_value(state, params, e_level * np.eye(2))
        assert abs(val) < 1e-12

    def test_gl_invariance_without_chi(self, rng):
        from hermiton.diagnostics import gl_transform

        params = full_params(alpha5=0.0)
        n = 2
        for _ in range(10):
            state = FullState(psi=rand_vec(rng, n), psi_dot=rand_vec(rng, n),
                              gamma=rand_pd(rng, n), gamma_dot=rand_herm(rng, n, 0.5))
            l_matrix = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) + 2 * np.eye(n)
            if np.linalg.cond(l_matrix) >= 1e2:
                continue
            chi = np.zeros((n, n))
            before = lagrangian_value(state, params, chi)
            after = lagrangian_value(gl_transform(state, l_matrix), params, chi)
            assert abs(after - before) < 1e-10 * max(1.0, abs(before))


class TestApplyOmega:
    @pytest.mark.parametrize("params, psi, gamma, expected", [
        # alpha9 alone is no kinetic coupling: Omega vanishes
        pytest.param(ModelParams(alpha9=0.3), [0.6 - 0.2j, 1.1j], [[1.5, 0.2j], [-0.2j, 1.0]],
                     lambda x: np.zeros_like(x), id="zero-couplings"),
        # n = 1, gamma = 1, psi = 0: Omega is the scalar alpha6 + alpha7
        pytest.param(ModelParams(alpha6=0.7, alpha7=-0.15), [0.0], [[1.0]],
                     lambda x: (0.7 - 0.15) * x, id="scalar-reduction"),
        # alpha8 alone at psi = e0: Omega(X) = (psi^ X psi) psi psi^ = X[0, 0] e0 e0^
        pytest.param(ModelParams(alpha8=1.0), [1.0, 0.0], np.eye(2),
                     lambda x: x[0, 0] * np.diag([1.0, 0.0]), id="rank-one-term"),
    ])
    def test_closed_forms(self, rng, params, psi, gamma, expected):
        x = rand_herm(rng, len(psi))
        assert np.allclose(apply_omega(psi, gamma, params, x), expected(x), atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_pair_symmetric_and_hermitian(self, rng, n):
        # Tr(Omega(X) Y) == Tr(X Omega(Y)), and Omega(X) is Hermitian
        params = full_params()
        psi, gamma = rand_vec(rng, n), rand_pd(rng, n)
        for _ in range(5):
            x, y = rand_herm(rng, n), rand_herm(rng, n)
            ox, oy = apply_omega(psi, gamma, params, x), apply_omega(psi, gamma, params, y)
            scale = np.linalg.norm(ox) * np.linalg.norm(y)
            assert abs(np.trace(ox @ y) - np.trace(x @ oy)) <= 1e-12 * scale
            assert hermiticity_drift(ox) <= 1e-12


class TestOmegaInverse:
    def test_parameter_collapse_alpha89_zero(self, rng):
        # with alpha8 = alpha9 = 0 the ladder reduces to the gamma-only block
        n = 3
        params = full_params(alpha8=0.0, alpha9=0.0)
        psi, gamma = rand_vec(rng, n), rand_pd(rng, n)
        oi = omega_inverse(psi, gamma, params)
        a6, a7 = params.alpha6, params.alpha7
        c7 = a7 / (a6 * (a6 + n * a7))
        expected = (np.einsum("ad,cb->abcd", gamma, gamma) / a6
                    - c7 * np.einsum("ab,cd->abcd", gamma, gamma))
        assert np.allclose(oi, expected, atol=1e-12)

    def test_scalar_inverse(self):
        params = ModelParams(alpha6=0.7, alpha7=0.4)
        oi = omega_inverse(np.zeros(1), np.eye(1), params)
        assert oi.reshape(()) == pytest.approx(1.0 / (0.7 + 0.4))

    @pytest.mark.parametrize("ns, couplings", [
        pytest.param((1, 2, 3), lambda n: {}, id="generic"),
        pytest.param((1, 2, 3, 4), killing_alpha8, id="killing+alpha8"),
    ])
    def test_matches_numeric_oracle(self, rng, monkeypatch, ns, couplings):
        numeric = count_numeric_inverse(monkeypatch)
        for n in ns:
            params = full_params(**couplings(n))
            psi, gamma = rand_vec(rng, n), rand_pd(rng, n)
            oi = omega_inverse(psi, gamma, params)
            oi_num = omega_inverse_numeric(psi, gamma, params)
            assert np.max(np.abs(oi - oi_num)) < 1e-9 * max(1.0, np.max(np.abs(oi_num)))
        assert numeric == []      # omega_inverse never reached the numeric oracle

    def test_round_trip_operator(self, rng):
        params = full_params()
        n = 3
        psi, gamma = rand_vec(rng, n), rand_pd(rng, n)
        for _ in range(50):
            x = rand_herm(rng, n)
            back = apply_omega_inverse(psi, gamma, params,
                                       apply_omega(psi, gamma, params, x))
            assert np.linalg.norm(back - x) < 1e-9 * np.linalg.norm(x)

    def test_degenerate_denominators(self, rng):
        psi, gamma = rand_vec(rng, 2), rand_pd(rng, 2)
        with pytest.raises(DegenerateKinetic):
            omega_inverse(psi, gamma, ModelParams(alpha6=0.0, alpha7=1.0))
        with pytest.raises(DegenerateKinetic):
            omega_inverse(psi, gamma, ModelParams(alpha6=1.0, alpha7=-0.5))

    def test_dilatation_degeneracy_hits_det_guard(self, rng):
        # alpha6 = -n*alpha7 with psi = 0 is genuinely degenerate: gamma is in
        # the kernel, and det M = alpha6 (alpha6 + n alpha7) vanishes
        psi = np.zeros(2)
        gamma = rand_pd(rng, 2)
        with pytest.raises(DegenerateKinetic, match="det M"):
            omega_inverse(psi, gamma, ModelParams(alpha6=2.0, alpha7=-1.0, alpha8=0.3))


class TestPotentialGradient:
    def test_none(self, rng):
        grad = potential_gradient(rand_vec(rng, 3), rand_pd(rng, 3), PotentialSpec())
        assert np.allclose(grad, 0.0)

    def test_quartic_matches_closed_form(self, rng):
        # dV/d(conj psi) = 2 A (psi^ Gamma psi) Gamma psi for V = A theta1^2
        big_a = 0.7
        spec = PotentialSpec(kind="quartic_pure", kappa=big_a)
        psi, gamma = rand_vec(rng, 3), rand_pd(rng, 3)
        grad = potential_gradient(psi, gamma, spec)
        expected = 2.0 * big_a * theta1(psi, gamma) * (gamma @ psi)
        assert np.allclose(grad, expected, atol=1e-13)

    def test_scalar_chain_rule(self):
        spec = PotentialSpec(kind="quartic_shifted", kappa=0.9, shift=0.4)
        grad = potential_gradient(np.array([1.0]), np.eye(1), spec)
        assert grad[0] == pytest.approx(2.0 * 0.9 * (1.0 - 0.4))


class TestEnergy:
    def test_frozen_gamma_expectation(self, rng):
        n = 2
        gamma = rand_pd(rng, n)
        chi = rand_herm(rng, n)
        psi = rand_vec(rng, n)
        state = FullState(psi=psi, psi_dot=rand_vec(rng, n), gamma=gamma,
                          gamma_dot=np.zeros((n, n)))
        val = energy(state, ModelParams(alpha5=-1.0), chi)
        assert val == pytest.approx(float((np.conj(psi) @ chi @ psi).real), abs=1e-12)

    def test_zero(self, rng):
        state = FullState(psi=rand_vec(rng, 2), psi_dot=rand_vec(rng, 2),
                          gamma=rand_pd(rng, 2), gamma_dot=rand_herm(rng, 2))
        assert energy(state, ModelParams(), np.zeros((2, 2))) == 0.0

    def test_pure_gamma_kinetic(self, rng):
        params = ModelParams(alpha6=0.65)
        n = 3
        gamma, gamma_dot = rand_pd(rng, n), rand_herm(rng, n)
        state = FullState(psi=np.zeros(n), psi_dot=np.zeros(n),
                          gamma=gamma, gamma_dot=gamma_dot)
        val = energy(state, params, np.zeros((n, n)))
        m = np.linalg.inv(gamma) @ gamma_dot
        assert val == pytest.approx(0.65 * float(np.trace(m @ m).real), rel=1e-12)
        assert val >= 0.0

    def test_velocity_contraction_identity(self, rng):
        # E == sum over real velocity coordinates v * dL/dv - L, by central
        # differences of the Lagrangian
        params = full_params()
        n = 2
        chi = rand_herm(rng, n)
        state = FullState(psi=rand_vec(rng, n), psi_dot=rand_vec(rng, n),
                          gamma=rand_pd(rng, n), gamma_dot=rand_herm(rng, n, 0.5))
        h = 1e-6

        def lag(psi_dot, gamma_dot):
            return lagrangian_value(
                FullState(psi=state.psi, psi_dot=psi_dot, gamma=state.gamma,
                          gamma_dot=gamma_dot), params, chi)

        total = -lag(state.psi_dot, state.gamma_dot)
        for a in range(n):
            for delta in (h, 1j * h):
                up, down = state.psi_dot.copy(), state.psi_dot.copy()
                up[a] += delta
                down[a] -= delta
                coord = state.psi_dot[a].real if delta == h else state.psi_dot[a].imag
                total += coord * (lag(up, state.gamma_dot) - lag(down, state.gamma_dot)) / (2 * h)
        for a in range(n):
            for b in range(n):
                if a == b:
                    direction = np.zeros((n, n), dtype=complex)
                    direction[a, a] = 1.0
                    coord = state.gamma_dot[a, a].real
                elif a < b:
                    direction = np.zeros((n, n), dtype=complex)
                    direction[a, b] = direction[b, a] = 1.0
                    coord = state.gamma_dot[a, b].real
                else:
                    direction = np.zeros((n, n), dtype=complex)
                    direction[b, a] = 1j
                    direction[a, b] = -1j
                    coord = state.gamma_dot[b, a].imag
                up = state.gamma_dot + h * direction
                down = state.gamma_dot - h * direction
                total += coord * (lag(state.psi_dot, up) - lag(state.psi_dot, down)) / (2 * h)
        expected = energy(state, params, chi)
        assert abs(total - expected) < 1e-6 * max(1.0, abs(expected))


class TestEffectiveHamiltonian:
    def test_static_metric_collapse(self, rng):
        n = 2
        gamma, chi = rand_pd(rng, n), rand_herm(rng, n)
        state = FullState(psi=rand_vec(rng, n), psi_dot=np.zeros(n),
                          gamma=gamma, gamma_dot=np.zeros((n, n)))
        params = ModelParams(alpha1=0.5, alpha5=-1.0)
        heff = effective_hamiltonian(state, params, chi)
        assert np.allclose(heff, np.linalg.inv(gamma) @ chi, atol=1e-12)

    def test_quartic_shift(self, rng):
        n = 2
        gamma, chi = rand_pd(rng, n), rand_herm(rng, n)
        psi = rand_vec(rng, n)
        state = FullState(psi=psi, psi_dot=np.zeros(n), gamma=gamma,
                          gamma_dot=np.zeros((n, n)))
        kappa, alpha4 = 0.8, 0.3
        params = ModelParams(alpha1=0.5, alpha4=alpha4, alpha5=-1.0, kappa=kappa)
        heff = effective_hamiltonian(state, params, chi)
        expected = np.linalg.inv(gamma) @ chi \
            + (2.0 * kappa * theta1(psi, gamma) - alpha4) * np.eye(n)
        assert np.allclose(heff, expected, atol=1e-12)

    def test_formal_cancellation_of_gamma_dot_term(self, rng):
        # alpha3*alpha9 = -i*alpha1 cancels the first gamma_dot term; complex
        # couplings are algebra-test only
        n = 2
        hbar = 1.0
        alpha9 = 0.4
        params = ModelParams(alpha1=hbar / 2.0, alpha3=(-1j * hbar / 2.0) / alpha9,
                             alpha5=-1.0, alpha9=alpha9)
        gamma, chi = rand_pd(rng, n), rand_herm(rng, n)
        gamma_dot = rand_herm(rng, n, 0.5)
        state = FullState(psi=np.zeros(n), psi_dot=np.zeros(n),
                          gamma=gamma, gamma_dot=gamma_dot)
        heff = effective_hamiltonian(state, params, chi)
        # with psi = 0 the alpha8/alpha9 quadratic terms drop and only the
        # (i alpha1 + alpha3 alpha9) gamma^{-1} gamma_dot term could survive
        assert np.allclose(heff, np.linalg.inv(gamma) @ chi, atol=1e-12)


def test_full_state_validation(rng):
    with pytest.raises(Exception):
        FullState(psi=np.array([1.0]), psi_dot=np.array([1.0, 2.0]),
                  gamma=np.eye(1), gamma_dot=np.zeros((1, 1)))
    from hermiton.errors import NonFinite

    with pytest.raises(NonFinite):
        FullState(psi=np.array([np.nan + 0j]), psi_dot=np.array([0j]),
                  gamma=np.eye(1), gamma_dot=np.zeros((1, 1)))


def scalar_energy(state, params, chi):
    """The one-state energy formula in numpy scalar arithmetic, without the
    reality check: the reference that keeps energies' bits fixed."""
    psi, psid = state.psi, state.psi_dot
    g, gd = state.gamma, state.gamma_dot
    chi = chi(state.t) if callable(chi) else np.asarray(chi, dtype=complex)
    psibar = np.conj(psi)
    val = params.alpha2 * (np.conj(psid) @ g @ psid)
    val -= psibar @ (params.alpha4 * g + params.alpha5 * chi) @ psi
    if any((params.alpha6, params.alpha7, params.alpha8)):
        pgd = p_tensor(psi, g, params.alpha9) @ gd
        val += params.alpha6 * np.trace(pgd @ pgd)
        val += params.alpha7 * np.trace(pgd) ** 2
        val += params.alpha8 * (psibar @ gd @ psi) ** 2
    val += params.effective_potential.value(float((psibar @ g @ psi).real))
    if params.forcing is not None:
        val -= float(2.0 * np.real(np.asarray(params.forcing(state.t), dtype=complex) @ psi))
    return complex(val).real


POTENTIALS = {
    "none": PotentialSpec(),
    "quartic_pure": PotentialSpec(kind="quartic_pure", kappa=0.3),
    "quartic_shifted": PotentialSpec(kind="quartic_shifted", kappa=0.3, shift=0.7),
    "custom": PotentialSpec(kind="custom", f=lambda x: 0.1 * x ** 3,
                            f_prime=lambda x: 0.3 * x ** 2),
}


def reference_lagrangian_value(state, params, chi):
    """The Lagrangian as summed before L and E shared one term list: the
    bitwise reference of ``lagrangian_value`` (without its reality check)."""
    psi, psid = state.psi, state.psi_dot
    g, gd = state.gamma, state.gamma_dot
    chi = models.resolve_chi(chi, state.t)
    psibar, psidbar = np.conj(psi), np.conj(psid)
    val = params.alpha1 * 1j * (psibar @ g @ psid - psidbar @ g @ psi)
    val += params.alpha2 * (psidbar @ g @ psid)
    val += psibar @ (params.alpha4 * g + params.alpha5 * chi) @ psi
    if any((params.alpha3, params.alpha6, params.alpha7, params.alpha8)):
        _, tr, terms = models._gamma_kinetic(psi, g, gd, params)
        val += params.alpha3 * tr
        for term in terms:
            val += term
    val -= params.effective_potential.value(theta1(psi, g))
    val += models._forcing_term(params, psi, state.t)
    return val.real


def reference_energy(state, params, chi, ginv=None):
    """The energy as summed before L and E shared one term list, for one
    state or a stack: the bitwise reference of ``energy``."""
    psi, psid = np.asarray(state.psi, dtype=complex), np.asarray(state.psi_dot, dtype=complex)
    g, gd = np.asarray(state.gamma, dtype=complex), np.asarray(state.gamma_dot, dtype=complex)
    chi = models.resolve_chi(chi, state.t)
    psibar = np.conj(psi)
    val = models._scalar_mul(params.alpha2, models._quad(np.conj(psid), g, psid))
    val = val - models._quad(psibar, params.alpha4 * g + params.alpha5 * chi, psi)
    if any((params.alpha6, params.alpha7, params.alpha8)):
        for term in models._gamma_kinetic(psi, g, gd, params, ginv)[2]:
            val = val + term
    val = val + models._potential_value(params.effective_potential, theta1(psi, g))
    val = val - models._forcing_term(params, psi, state.t)
    return val.real


COUPLINGS = {
    "all": {},
    "alpha3-only": dict(alpha1=0.0, alpha2=0.0, alpha4=0.0, alpha5=0.0, alpha6=0.0,
                        alpha7=0.0, alpha8=0.0, alpha9=0.0, kappa=0.0),
    "frozen-second-order": dict(alpha3=0.0, alpha6=0.0, alpha7=0.0, alpha8=0.0, alpha9=0.0),
    "gamma-kinetic": dict(alpha1=0.0, alpha2=0.0, alpha3=0.0, alpha4=0.0, alpha5=0.0),
    "modified-first-order": dict(alpha2=0.0, alpha4=0.0),
}


class TestLagrangianTermList:
    """L and E are summed from one term list; every value keeps the bits of
    the formulas they replaced."""

    @pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
    @pytest.mark.parametrize("couplings", COUPLINGS)
    @pytest.mark.parametrize("potential", ["none", "quartic_pure", "quartic_shifted", "custom"])
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_bits_of_the_reference_sums(self, rng, n, potential, couplings, forced):
        drive = rand_vec(rng, n, 0.1)
        params = full_params(kappa=0.0, potential=POTENTIALS[potential],
                             forcing=(lambda t: np.cos(t) * drive) if forced else None)
        params = replace(params, **COUPLINGS[couplings])
        chi = rand_herm(rng, n)
        states = TestStackedEnergy.states(rng, n, count=3)
        for state in states:
            for got, ref in ((lagrangian_value(state, params, chi),
                              reference_lagrangian_value(state, params, chi)),
                             (energy(state, params, chi), reference_energy(state, params, chi))):
                assert np.float64(got).tobytes() == np.float64(ref).tobytes()
        stack = TestStackedEnergy.stack(states)
        for ginv in (None, invert_form(stack.gamma)):
            assert (energy(stack, params, chi, ginv).tobytes()
                    == reference_energy(stack, params, chi, ginv).tobytes())

    def test_energy_is_the_legendre_contraction_of_the_terms(self, rng):
        n = 3
        state = TestStackedEnergy.states(rng, n, count=1)[0]
        params, chi = full_params(), rand_herm(rng, n)
        terms, _ = models._lagrangian_terms(state, params, chi)
        assert sorted({degree for degree, _ in terms}) == [0, 1, 2]
        contraction = sum((degree - 1) * term for degree, term in terms)
        assert energy(state, params, chi) == pytest.approx(contraction.real, rel=1e-14)
        assert lagrangian_value(state, params, chi) == pytest.approx(
            sum(term for _, term in terms).real, rel=1e-14)


class TestStackedEnergy:
    @staticmethod
    def states(rng, n, count=7):
        return [FullState(psi=rand_vec(rng, n, 0.8), psi_dot=rand_vec(rng, n, 0.5),
                          gamma=rand_pd(rng, n), gamma_dot=rand_herm(rng, n, 0.3), t=0.1 * k)
                for k in range(count)]

    @staticmethod
    def stack(states):
        return SimpleNamespace(**{block: np.array([getattr(s, block) for s in states])
                                  for block in ("psi", "psi_dot", "gamma", "gamma_dot", "t")})

    @pytest.mark.parametrize("potential", POTENTIALS)
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16])
    def test_members_have_the_bits_of_the_scalar_formula(self, rng, n, potential):
        base, drive = rand_herm(rng, n), rand_herm(rng, n, 0.2)
        forcing = rand_vec(rng, n, 0.1)
        params = full_params(potential=POTENTIALS[potential], kappa=0.0,
                             forcing=lambda t: np.cos(t) * forcing)
        for chi in (base, lambda t: base + np.sin(t) * drive):
            states = self.states(rng, n)
            stacked = energy(self.stack(states), params, chi)
            thetas = theta1(self.stack(states).psi, self.stack(states).gamma)
            assert stacked.shape == thetas.shape == (len(states),)
            for state, e, th in zip(states, stacked, thetas):
                one = energy(state, params, chi)
                assert type(one) is float
                assert np.float64(one).tobytes() == e.tobytes()
                assert one == scalar_energy(state, params, chi) or (one != one)
                assert np.float64(theta1(state.psi, state.gamma)).tobytes() == th.tobytes()

    def test_caller_inverse_gives_the_same_bits(self, rng):
        states = self.states(rng, 4)
        stack = self.stack(states)
        params, chi = full_params(), rand_herm(rng, 4)
        assert (energy(stack, params, chi, ginv=invert_form(stack.gamma)).tobytes()
                == energy(stack, params, chi).tobytes())


class TestImaginaryPartGuard:
    STATE = dict(psi=np.array([1.0, 0.5]), psi_dot=np.zeros(2), gamma=np.eye(2),
                 gamma_dot=np.zeros((2, 2)))

    @pytest.mark.parametrize("s", [2.0 ** -40, 1.0, 2.0 ** 40])
    def test_complex_coupling_refused_at_every_scale(self, s):
        state, chi = FullState(**self.STATE), np.zeros((2, 2))
        for fn, sign in ((energy, -1.0), (lagrangian_value, 1.0)):
            with pytest.raises(ValueError, match="imaginary part"):
                fn(state, ModelParams(alpha4=(0.5 + 0.5j) * s), chi)
            assert fn(state, ModelParams(alpha4=0.5 * s), chi) == sign * 0.625 * s

    def test_round_off_of_a_cancelling_sum_passes(self, rng):
        # <chi> = 0 up to round-off: the value is tiny and its imaginary
        # round-off is not small against it, but it is against the terms
        n = 4
        psi, h = rand_vec(rng, n), rand_herm(rng, n)
        chi = h - (np.conj(psi) @ h @ psi).real / np.vdot(psi, psi).real * np.eye(n)
        state = FullState(psi=psi, psi_dot=np.zeros(n), gamma=np.eye(n),
                          gamma_dot=np.zeros((n, n)))
        value = complex(np.conj(psi) @ chi @ psi)
        assert abs(value.imag) > 1e-9 * abs(value)
        assert abs(energy(state, ModelParams(alpha5=-1.0), chi)) < 1e-12

    @pytest.mark.parametrize("s", [2.0 ** -40, 1.0, 2.0 ** 40])
    def test_real_couplings_pass_at_every_scale(self, rng, s):
        # round-off imaginary parts are measured against the terms that
        # produce them, not against the (possibly cancelling) sum
        n = 3
        chi = rand_herm(rng, n)
        state = FullState(psi=rand_vec(rng, n), psi_dot=rand_vec(rng, n), gamma=rand_pd(rng, n),
                          gamma_dot=rand_herm(rng, n, 0.3))
        real = FullState(psi=state.psi.real, psi_dot=state.psi.real, gamma=np.eye(n),
                         gamma_dot=np.zeros((n, n)))
        params = full_params()
        scaled = replace(params, **{k: s * getattr(params, k) for k in (
            "alpha1", "alpha2", "alpha3", "alpha4", "alpha5", "alpha6", "alpha7", "alpha8",
            "kappa")})
        for st in (state, real):
            assert energy(st, scaled, chi) == s * energy(st, params, chi)
            assert lagrangian_value(st, scaled, chi) == s * lagrangian_value(st, params, chi)
