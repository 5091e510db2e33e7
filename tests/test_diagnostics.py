import numpy as np
import pytest

from hermiton import diagnostics
from hermiton.diagnostics import (
    drift_summary,
    gl_transform,
    monitor,
    noether_charge,
    noether_tensors,
)
from hermiton.errors import SingularTransform, WrongSymmetryClass
from hermiton.hermitian_algebra import hermitian_basis, hermiticity_drift
from hermiton.integrate import IntegratorConfig, integrate
from hermiton.models import FullState, ModelParams, theta1

from conftest import full_params, rand_herm, rand_pd, rand_vec


def hermitian_inverse(form):
    inv = np.linalg.inv(np.asarray(form, dtype=complex))
    return (inv + inv.conj().T) / 2.0


def reference_gamma_pieces(state, params):
    """P = Gamma^-1 + alpha9 psi psi^ and Omega(gamma_dot), from 2-D calls."""
    psi, gd = state.psi, state.gamma_dot
    p = hermitian_inverse(state.gamma) + params.alpha9 * np.outer(psi, np.conj(psi))
    omega = params.alpha6 * (p @ gd @ p)
    omega += params.alpha7 * np.trace(p @ gd) * p
    omega += params.alpha8 * (np.conj(psi) @ gd @ psi) * np.outer(psi, np.conj(psi))
    return p, omega


def reference_momentum_map(state, params, gamma0):
    """Per-sample V and W from 2-D calls only, in the association order the
    stacked kernel must reproduce bit for bit: the momentum map
    J = psi pi - pi_gamma Gamma with pi = alpha2 psid^ Gamma + i alpha1 psi^ Gamma
    and pi_gamma = alpha3 P + 2 Omega(gamma_dot), X = J gamma0^-1,
    V = X + X^dag and W = -i (X - X^dag)."""
    psi, psid, g = state.psi, state.psi_dot, state.gamma
    p, omega = reference_gamma_pieces(state, params)
    pi = params.alpha2 * (np.conj(psid) @ g) + 1j * params.alpha1 * (np.conj(psi) @ g)
    x = (np.outer(psi, pi) - (params.alpha3 * p + 2.0 * omega) @ g) @ hermitian_inverse(gamma0)
    return x + x.conj().T, -1j * (x - x.conj().T)


def reference_noether_tensors(state, params, gamma0):
    """Per-sample V and W by the expanded formula, term by term in the
    couplings: an independent reference, which agrees with the momentum map
    to round-off."""
    psi, psid = state.psi, state.psi_dot
    g = state.gamma
    g0_inv = hermitian_inverse(gamma0)
    _, omega = reference_gamma_pieces(state, params)

    proj = np.outer(psi, np.conj(psi))
    mixed = np.outer(psi, np.conj(psid))
    mixed_rev = np.outer(psid, np.conj(psi))
    c_minus = 1j * params.alpha1 - params.alpha3 * params.alpha9
    c_plus = 1j * params.alpha1 + params.alpha3 * params.alpha9

    v = params.alpha2 * (mixed @ g @ g0_inv + g0_inv @ g @ mixed_rev)
    v += c_minus * (proj @ g @ g0_inv)
    v -= 2.0 * params.alpha3 * g0_inv
    v -= c_plus * (g0_inv @ g @ proj)
    v -= 2.0 * (g0_inv @ g @ omega + omega @ g @ g0_inv)

    iw = params.alpha2 * (mixed @ g @ g0_inv - g0_inv @ g @ mixed_rev)
    iw += c_minus * (proj @ g @ g0_inv)
    iw += c_plus * (g0_inv @ g @ proj)
    iw += 2.0 * (g0_inv @ g @ omega - omega @ g @ g0_inv)
    return v, -1j * iw


def reference_charge(v, w, a, hermitian):
    return float((np.trace(v @ a) if hermitian else np.trace(1j * (w @ a))).real)


class TestNoetherTensors:
    def test_frozen_schrodinger_reduction(self, rng):
        # gamma = gamma0, gamma_dot = 0, alpha2 = alpha3 = 0, alpha1 = hbar/2:
        # V = 0 and W = hbar psi psi^
        n = 2
        hbar = 1.0
        gamma = rand_pd(rng, n)
        psi = rand_vec(rng, n)
        state = FullState(psi=psi, psi_dot=rand_vec(rng, n), gamma=gamma,
                          gamma_dot=np.zeros((n, n)))
        params = ModelParams(alpha1=hbar / 2.0, alpha5=-1.0)
        v, w = noether_tensors(state, params, gamma)
        assert np.max(np.abs(v)) < 1e-13
        assert np.allclose(w, hbar * np.outer(psi, np.conj(psi)), atol=1e-13)

    def test_static_gamma_sector_term(self, rng):
        # psi = 0, gamma_dot = 0: V = -2 alpha3 gamma0^{-1}, W = 0
        n = 3
        alpha3 = 0.45
        gamma = rand_pd(rng, n)
        state = FullState(psi=np.zeros(n), psi_dot=np.zeros(n), gamma=gamma,
                          gamma_dot=np.zeros((n, n)))
        params = full_params(alpha3=alpha3)
        v, w = noether_tensors(state, params, gamma)
        assert np.allclose(v, -2.0 * alpha3 * np.linalg.inv(gamma), atol=1e-12)
        assert np.max(np.abs(w)) < 1e-13

    def test_all_zero_couplings(self, rng):
        state = FullState(psi=rand_vec(rng, 2), psi_dot=rand_vec(rng, 2),
                          gamma=rand_pd(rng, 2), gamma_dot=rand_herm(rng, 2))
        v, w = noether_tensors(state, ModelParams(), state.gamma)
        assert np.max(np.abs(v)) == 0.0 and np.max(np.abs(w)) == 0.0

    def test_hermiticity(self, rng):
        state = FullState(psi=rand_vec(rng, 2), psi_dot=rand_vec(rng, 2),
                          gamma=rand_pd(rng, 2), gamma_dot=rand_herm(rng, 2, 0.5))
        v, w = noether_tensors(state, full_params(), rand_pd(rng, 2))
        assert hermiticity_drift(v) < 1e-9
        assert hermiticity_drift(w) < 1e-9


class TestNoetherCharge:
    def test_zero_generator(self, rng):
        state = FullState(psi=rand_vec(rng, 2), psi_dot=rand_vec(rng, 2),
                          gamma=rand_pd(rng, 2), gamma_dot=rand_herm(rng, 2))
        assert noether_charge(state, full_params(), state.gamma,
                              np.zeros((2, 2))) == 0.0

    def test_trace_of_reference_product(self, rng):
        # A~ = gamma0, static psi = 0 case: charge = Tr(-2 alpha3 I) = -2 alpha3 n
        n = 3
        alpha3 = 0.3
        gamma = rand_pd(rng, n)
        state = FullState(psi=np.zeros(n), psi_dot=np.zeros(n), gamma=gamma,
                          gamma_dot=np.zeros((n, n)))
        value = noether_charge(state, full_params(alpha3=alpha3), gamma, gamma)
        assert value == pytest.approx(-2.0 * alpha3 * n, rel=1e-12)

    def test_wrong_symmetry_class(self, rng):
        state = FullState(psi=rand_vec(rng, 2), psi_dot=rand_vec(rng, 2),
                          gamma=rand_pd(rng, 2), gamma_dot=rand_herm(rng, 2))
        bad = rand_herm(rng, 2) + 0.3j * rand_herm(rng, 2)
        with pytest.raises(WrongSymmetryClass):
            noether_charge(state, full_params(), state.gamma, bad)

    def test_conserved_along_frozen_flow(self, rng):
        # antihermitian generator built from the Hamiltonian form: the charge
        # tracks the energy expectation and stays constant
        n = 2
        params = ModelParams(alpha1=0.5, alpha5=-1.0)
        gamma = rand_pd(rng, n)
        chi = rand_herm(rng, n)
        psi0 = rand_vec(rng, n)
        state = FullState(psi=psi0, psi_dot=np.zeros(n), gamma=gamma,
                          gamma_dot=np.zeros((n, n)))
        cfg = IntegratorConfig(dt=1e-3, t_end=1.0, sample_stride=100)
        traj = integrate(state, "schrodinger", cfg, params, chi)
        gen = 1j * chi    # gamma0-antihermitian pathway
        charges = [noether_charge(s, params, gamma, gen) for s in traj.states]
        assert max(charges) - min(charges) < 1e-9 * max(1.0, abs(charges[0]))


class TestGlTransform:
    def test_identity(self, rng):
        state = FullState(psi=rand_vec(rng, 2), psi_dot=rand_vec(rng, 2),
                          gamma=rand_pd(rng, 2), gamma_dot=rand_herm(rng, 2))
        out = gl_transform(state, np.eye(2))
        assert np.allclose(out.psi, state.psi)
        assert np.allclose(out.gamma, state.gamma)

    def test_dilation(self, rng):
        state = FullState(psi=rand_vec(rng, 2), psi_dot=rand_vec(rng, 2),
                          gamma=rand_pd(rng, 2), gamma_dot=rand_herm(rng, 2))
        c = 1.5 - 0.5j
        out = gl_transform(state, c * np.eye(2))
        assert np.allclose(out.psi, c * state.psi)
        assert np.allclose(out.gamma, state.gamma / abs(c) ** 2)
        assert theta1(out.psi, out.gamma) == pytest.approx(
            theta1(state.psi, state.gamma), rel=1e-12)

    def test_theta1_invariant_random(self, rng):
        n = 3
        state = FullState(psi=rand_vec(rng, n), psi_dot=rand_vec(rng, n),
                          gamma=rand_pd(rng, n), gamma_dot=rand_herm(rng, n))
        for _ in range(10):
            l_matrix = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) \
                + 2 * np.eye(n)
            out = gl_transform(state, l_matrix)
            assert abs(theta1(out.psi, out.gamma)
                       - theta1(state.psi, state.gamma)) < 1e-12 * max(
                1.0, abs(theta1(state.psi, state.gamma)))

    def test_singular_transform(self, rng):
        state = FullState(psi=rand_vec(rng, 2), psi_dot=rand_vec(rng, 2),
                          gamma=rand_pd(rng, 2), gamma_dot=rand_herm(rng, 2))
        with pytest.raises(SingularTransform):
            gl_transform(state, np.zeros((2, 2)))

    @pytest.mark.parametrize("scale", [2.0 ** -40, 1.0, 2.0 ** 40])
    def test_ill_conditioned_transform_refused_at_every_scale(self, rng, scale):
        # L = s diag(1, 1e-13) has the reciprocal condition estimate
        # 1 / (2 * 1e13) = 5e-14 at every s: LAPACK inverts it, the
        # condition test of invert_form refuses it
        state = FullState(psi=rand_vec(rng, 2), psi_dot=rand_vec(rng, 2),
                          gamma=rand_pd(rng, 2), gamma_dot=rand_herm(rng, 2))
        with pytest.raises(SingularTransform, match="5.000e-14"):
            gl_transform(state, scale * np.diag([1.0, 1e-13]))

    def test_accepted_transform_keeps_the_plain_inverse_bits(self, rng):
        n = 3
        state = FullState(psi=rand_vec(rng, n), psi_dot=rand_vec(rng, n),
                          gamma=rand_pd(rng, n), gamma_dot=rand_herm(rng, n))
        l_matrix = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) + 2 * np.eye(n)
        l_inv = np.linalg.inv(l_matrix)
        expected = FullState(psi=l_matrix @ state.psi, psi_dot=l_matrix @ state.psi_dot,
                             gamma=l_inv.conj().T @ state.gamma @ l_inv,
                             gamma_dot=l_inv.conj().T @ state.gamma_dot @ l_inv)
        out = gl_transform(state, l_matrix)
        for name in ("psi", "psi_dot", "gamma", "gamma_dot"):
            assert getattr(out, name).tobytes() == getattr(expected, name).tobytes()


class TestMonitor:
    def test_frozen_schrodinger_drifts(self, rng):
        n = 2
        params = ModelParams(alpha1=0.5, alpha5=-1.0)
        gamma = rand_pd(rng, n)
        chi = rand_herm(rng, n)
        state = FullState(psi=rand_vec(rng, n), psi_dot=np.zeros(n),
                          gamma=gamma, gamma_dot=np.zeros((n, n)))
        cfg = IntegratorConfig(dt=1e-3, t_end=1.0, sample_stride=100)
        traj = integrate(state, "schrodinger", cfg, params, chi)
        reports = monitor(traj, params, chi, gamma0=gamma,
                          generators=[("N", gamma)])
        summary = drift_summary(reports)
        assert summary["energy"] < 1e-9
        assert summary["theta1"] < 1e-9

    def test_static_trajectory_zero_drift(self, rng):
        n = 2
        params = full_params(alpha4=0.0, kappa=0.0)
        state = FullState(psi=np.zeros(n), psi_dot=np.zeros(n),
                          gamma=rand_pd(rng, n), gamma_dot=np.zeros((n, n)))
        cfg = IntegratorConfig(dt=1e-2, t_end=0.2)
        traj = integrate(state, "full", cfg, params, np.zeros((n, n)))
        reports = monitor(traj, params, np.zeros((n, n)),
                          generators=[("H", np.eye(n)), ("A", 1j * np.eye(n))])
        summary = drift_summary(reports)
        assert summary["energy"] == 0.0
        assert all(v == 0.0 for v in summary["charges"].values())

    def test_full_model_charge_conservation(self, rng):
        # GL-invariant Lagrangian (alpha5 = 0): every charge is conserved
        n = 2
        params = full_params(alpha5=0.0)
        state = FullState(psi=rand_vec(rng, n, 0.7), psi_dot=rand_vec(rng, n, 0.3),
                          gamma=rand_pd(rng, n), gamma_dot=rand_herm(rng, n, 0.1))
        cfg = IntegratorConfig(dt=1e-3, t_end=1.0, sample_stride=100)
        traj = integrate(state, "full", cfg, params, np.zeros((n, n)))
        gens = [("H1", rand_herm(rng, n)), ("A1", 1j * rand_herm(rng, n))]
        reports = monitor(traj, params, np.zeros((n, n)), gamma0=state.gamma,
                          generators=gens)
        summary = drift_summary(reports)
        assert max(summary["charges"].values()) < 1e-8
        assert summary["max_vw_defect"] < 1e-8

    def test_alpha5_commuting_generator_case(self, rng):
        # with alpha5 != 0 conservation holds for generators commuting with
        # the Hamilton operator: diagonal chi and diagonal A~
        n = 2
        params = ModelParams(alpha1=0.5, alpha5=-1.0)
        chi = np.diag([1.0, 2.0]).astype(complex)
        psi0 = rand_vec(rng, n)
        state = FullState(psi=psi0, psi_dot=np.zeros(n), gamma=np.eye(n),
                          gamma_dot=np.zeros((n, n)))
        cfg = IntegratorConfig(dt=1e-3, t_end=1.0, sample_stride=100)
        traj = integrate(state, "schrodinger", cfg, params, chi)
        gens = [("D", np.diag([1.0, 0.0]).astype(complex)),
                ("iD", 1j * np.diag([0.0, 1.0]).astype(complex))]
        summary = drift_summary(monitor(traj, params, chi, generators=gens))
        assert max(summary["charges"].values()) < 1e-9

    def test_generators_classified_once_and_checked_up_front(self, rng, monkeypatch):
        n = 2
        params = ModelParams(alpha1=0.5, alpha5=-1.0)
        state = FullState(psi=rand_vec(rng, n), psi_dot=np.zeros(n),
                          gamma=rand_pd(rng, n), gamma_dot=np.zeros((n, n)))
        traj = integrate(state, "schrodinger", IntegratorConfig(dt=1e-2, t_end=0.1),
                         params, rand_herm(rng, n))
        for bad in (np.zeros((n, n)), np.array([[0.0, 1.0], [0.0, 0.0]])):
            with pytest.raises(WrongSymmetryClass):
                monitor(traj, params, np.eye(n), generators=[("bad", bad)])

        # recorded energy and theta1 are reused, never recomputed
        def fail(*args):
            raise AssertionError("recomputed a recorded diagnostic")

        monkeypatch.setattr(diagnostics, "energy", fail)
        monkeypatch.setattr(diagnostics, "theta1", fail)
        reports = monitor(traj, params, np.eye(n), generators=[("H", np.eye(n))])
        assert [r.energy for r in reports] == list(traj.series("energy"))

    def test_empty_trajectory_rejected(self):
        class Fake:
            states = []
            diagnostics = []

        with pytest.raises(ValueError):
            monitor(Fake(), ModelParams(), np.eye(1))


def reference_vw_defect(v, w) -> float:
    """max(|V - V^dag|, |W - W^dag|) / max(|V|, |W|) in Frobenius norms."""
    norm = np.linalg.norm
    return max(norm(v - v.conj().T), norm(w - w.conj().T)) / max(norm(v), norm(w))


def test_frozen_tier_vw_defect_is_round_off(rng):
    # V vanishes on a frozen gamma: the defect is relative to the larger
    # tensor, W, not a ratio of V's round-off to its own size
    n = 4
    params = ModelParams(alpha1=0.5, alpha5=-1.0)
    state = FullState(psi=rand_vec(rng, n), psi_dot=np.zeros(n), gamma=rand_pd(rng, n),
                      gamma_dot=np.zeros((n, n)))
    chi = rand_herm(rng, n)
    traj = integrate(state, "schrodinger", IntegratorConfig(dt=1e-2, t_end=1.0,
                                                            sample_stride=10), params, chi)
    summary = drift_summary(monitor(traj, params, chi, generators=[("H", np.eye(n))]))
    assert summary["max_vw_defect"] <= 1e-12


class TestStackedMonitor:
    @staticmethod
    def trajectory(rng, n, stride=2):
        params = full_params(alpha5=0.0, alpha8=0.35, alpha9=-0.2)
        state = FullState(psi=rand_vec(rng, n, 0.7), psi_dot=rand_vec(rng, n, 0.3),
                          gamma=rand_pd(rng, n), gamma_dot=rand_herm(rng, n, 0.1))
        cfg = IntegratorConfig(dt=1e-2, t_end=0.2, sample_stride=stride)
        return params, integrate(state, "full", cfg, params, np.zeros((n, n)))

    def test_matches_per_sample_reference_bitwise(self, rng):
        for n in (1, 2, 3, 5):
            params, traj = self.trajectory(rng, n)
            gamma0 = rand_pd(rng, n)
            gens = ([(f"H{k}", b) for k, b in enumerate(hermitian_basis(n))]
                    + [(f"A{k}", 1j * b) for k, b in enumerate(hermitian_basis(n))]
                    + [("R", rand_herm(rng, n)), ("iR", 1j * rand_herm(rng, n))])
            reports = monitor(traj, params, np.zeros((n, n)), gamma0=gamma0,
                              generators=gens)
            assert len(reports) == len(traj.states) == 11
            for state, rep in zip(traj.states, reports):
                v, w = reference_momentum_map(state, params, gamma0)
                assert rep.V.tobytes() == v.tobytes()
                assert rep.W.tobytes() == w.tobytes()
                # the charges come from one product over samples and
                # generators, whose bits depend on its shape: they agree with
                # the per-sample traces to round-off of their terms
                assert [label for label, _ in rep.charges] == [label for label, _ in gens]
                for (label, got), (_, a) in zip(rep.charges, gens):
                    hermitian = label.startswith(("H", "R"))
                    terms = np.sum(np.abs(v if hermitian else w) * np.abs(a).T)
                    assert abs(got - reference_charge(v, w, a, hermitian)) <= 1e-14 * terms
                    assert abs(got - noether_charge(state, params, gamma0, a)) <= 1e-14 * terms
                one_v, one_w = noether_tensors(state, params, gamma0)
                assert one_v.tobytes() == rep.V.tobytes()
                assert one_w.tobytes() == rep.W.tobytes()
            summary = drift_summary(reports)
            assert summary["max_vw_defect"] == max(
                reference_vw_defect(r.V, r.W) for r in reports)

    def test_summary_takes_the_defects_the_monitor_computed(self, rng, monkeypatch):
        params, traj = self.trajectory(rng, 3)
        reports = monitor(traj, params, np.zeros((3, 3)), generators=[("H", np.eye(3))])
        # the monitor writes 0.0 without computing it; the defect of the
        # tensors it returns must be that value
        for rep in reports:
            assert rep.vw_defect == reference_vw_defect(rep.V, rep.W) == 0.0

        def fail(*args, **kwargs):
            raise AssertionError("drift_summary recomputed a V/W defect")

        monkeypatch.setattr(np.linalg, "norm", fail)
        summary = drift_summary(reports)
        assert summary["max_vw_defect"] == max(rep.vw_defect for rep in reports)

    def test_inversions_independent_of_sample_count(self, rng, monkeypatch):
        counts = []
        for stride in (4, 1):
            params, traj = self.trajectory(rng, 3, stride)
            calls = []
            inv = np.linalg.inv

            def counted(*args, **kwargs):
                calls.append(1)
                return inv(*args, **kwargs)

            monkeypatch.setattr(np.linalg, "inv", counted)
            monitor(traj, params, np.zeros((3, 3)), generators=[("H", np.eye(3))])
            monkeypatch.setattr(np.linalg, "inv", inv)
            counts.append((len(traj.states), len(calls)))
        assert counts == [(6, 2), (21, 2)]     # gamma0 once, the stack once


class TestMomentumMap:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_agrees_with_the_expanded_formula(self, rng, n):
        # the expanded formula, term by term in the couplings, agrees with
        # X + X^dag and -i (X - X^dag) to round-off relative to the larger
        # tensor, with every alpha nonzero
        norm = np.linalg.norm
        for _ in range(20):
            params = ModelParams(**{f"alpha{k}": rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 1.0)
                                    for k in range(1, 10)})
            state = FullState(psi=rand_vec(rng, n), psi_dot=rand_vec(rng, n),
                              gamma=rand_pd(rng, n), gamma_dot=rand_herm(rng, n))
            gamma0 = rand_pd(rng, n)
            v, w = noether_tensors(state, params, gamma0)
            ref_v, ref_w = reference_noether_tensors(state, params, gamma0)
            assert max(norm(v - ref_v), norm(w - ref_w)) <= 1e-14 * max(norm(ref_v), norm(ref_w))

    @pytest.mark.parametrize("n", [2, 5])
    def test_v_and_w_exactly_hermitian_on_a_full_trajectory(self, rng, n):
        params, traj = TestStackedMonitor.trajectory(rng, n)
        reports = monitor(traj, params, np.zeros((n, n)), generators=[("H", np.eye(n))])
        for rep in reports:
            assert rep.vw_defect == 0.0
            assert np.array_equal(rep.V, rep.V.conj().T)
            assert np.array_equal(rep.W, rep.W.conj().T)
        assert drift_summary(reports)["max_vw_defect"] == 0.0


class TestConservedQuantities:
    @pytest.mark.parametrize("tier", ["schrodinger", "direct_nonlinear", "second_order",
                                      "gamma_geodesic", "full", "modified_first_order"])
    def test_table(self, tier):
        # energy: no forcing, a constant chi and the one-metric L; theta1: the
        # first-order psi flows on a frozen gamma without forcing, with any
        # potential;
        # charges: the gamma-stepping tiers with alpha5 = 0 and no forcing
        first_order_psi = tier in ("schrodinger", "direct_nonlinear")
        steps_gamma = tier in ("gamma_geodesic", "full", "modified_first_order")
        chi = np.eye(2)
        for forced in (False, True):
            for kappa in (0.0, 0.1):
                for gamma_tilde in (None, 2.0 * np.eye(2)):
                    for alpha5 in (0.0, -1.0):
                        params = ModelParams(
                            alpha1=0.5, alpha5=alpha5, kappa=kappa,
                            forcing=(lambda t: np.ones(2)) if forced else None)
                        expected = {}
                        if not forced and gamma_tilde is None:
                            expected["energy"] = 1e-6
                        if first_order_psi and not forced:
                            expected["theta1"] = 1e-9
                        if steps_gamma and not forced and alpha5 == 0.0:
                            expected["charges"] = 1e-6
                        assert diagnostics.conserved_quantities(
                            tier, params, chi, gamma_tilde) == expected
        # a time-dependent chi breaks energy conservation only
        table = diagnostics.conserved_quantities(tier, ModelParams(alpha1=0.5),
                                                 lambda t: chi)
        assert "energy" not in table
        assert ("theta1" in table, "charges" in table) == (first_order_psi, steps_gamma)

    def test_rel_drift(self):
        assert diagnostics.rel_drift([2.0, 3.0, 4.0]) == 0.5
        assert diagnostics.rel_drift([1e-9, 3e-9]) == pytest.approx(2e-3)   # floor 1e-6
        assert diagnostics.rel_drift([5.0]) == 0.0


class TestGeneratorClass:
    @pytest.mark.parametrize("scale", [2.0 ** -40, 1.0, 2.0 ** 40])
    def test_relative_at_every_scale(self, rng, scale):
        h = rand_herm(rng, 3)
        off = rand_herm(rng, 3)
        assert diagnostics._is_hermitian(scale * h) is True
        assert diagnostics._is_hermitian(scale * 1j * h) is False
        assert diagnostics._is_hermitian(np.zeros((3, 3))) is None
        with pytest.raises(WrongSymmetryClass):
            diagnostics._is_hermitian(scale * (h + 1e-6 * 1j * off))
