import argparse
import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from hermiton import cli, diagnostics
from hermiton.cli import main
from hermiton.dynamics import rhs_direct_nonlinear_raw
from hermiton.hermitian_algebra import matrix_exp
from hermiton.integrate import STEPPED_BLOCKS
from hermiton.models import PotentialSpec
from hermiton.scenario import (
    decode_pairs,
    encode_pairs,
    load_scenario,
)

from conftest import count_numeric_inverse


def pair(z):
    return [float(np.real(z)), float(np.imag(z))]


def mat(m):
    return [[pair(z) for z in row] for row in np.asarray(m, dtype=complex)]


def vec(v):
    return [pair(z) for z in np.asarray(v, dtype=complex)]


def schrodinger_scenario(**over):
    base = {
        "model_tier": "schrodinger",
        "params": {"preset": "schrodinger", "hbar": 1.0},
        "chi": "diag:[1, 2]",
        "initial": {"psi0": vec([1.0, 0.0])},
        "integrator": {"method": "rk4", "dt": 1e-3, "t_end": 1.0,
                       "sample_stride": 100},
        "outputs": ["trajectory", "diagnostics"],
        "seed": 7,
    }
    base.update(over)
    return base


def geodesic_scenario(**over):
    g = np.array([[1.3, 0.2 + 0.1j], [0.2 - 0.1j, 1.1]])
    ge = np.array([[0.3, 0.05 - 0.02j], [0.05 + 0.02j, -0.2]])   # Hermitian = G E
    base = {
        "model_tier": "gamma_geodesic",
        "params": {"alpha6": 1.0, "alpha7": 0.2},
        "initial": {"gamma0": mat(g), "gamma_dot0": mat(ge)},
        "integrator": {"dt": 1e-3, "t_end": 1.0, "sample_stride": 100},
        "outputs": ["trajectory"],
        "seed": 3,
    }
    base.update(over)
    return base


def write(tmp_path, name, data):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    return path


class TestScenarioRoundTrip:
    @pytest.mark.parametrize("potential", [{"kind": "quartic_pure", "kappa": 0.1},
                                           {"kind": "quartic_shifted", "kappa": 0.1,
                                            "shift": 1.0}])
    def test_potential_reads_the_keys_its_kind_reads(self, tmp_path, potential):
        sc = schrodinger_scenario()
        sc["params"]["potential"] = potential
        params = load_scenario(write(tmp_path, "s", sc)).params
        assert params.potential == PotentialSpec(**potential)

    def test_pairs_keep_their_bits(self):
        # each entry is complex(re, im) bitwise, signed zeros included
        literal = [[-0.0, 1e-320], [1, -0.0]]
        z = decode_pairs(literal, (2,), "psi0")
        assert z.tobytes() == np.array([complex(-0.0, 1e-320), complex(1.0, -0.0)]).tobytes()
        assert repr(encode_pairs(z)) == "[[-0.0, 1e-320], [1.0, -0.0]]"

    def test_unknown_tier_rejected(self, tmp_path):
        path = write(tmp_path, "bad", schrodinger_scenario(model_tier="warp"))
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path)]) == 2


class TestSimulate:
    def test_phase_rotation_csv(self, tmp_path, capsys):
        path = write(tmp_path, "rot", schrodinger_scenario())
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path)]) == 0
        csv = (tmp_path / "rot_trajectory.csv").read_text().splitlines()
        header = csv[0].split(", ")
        assert header[:3] == ["t", "Re(psi_1)", "Im(psi_1)"]
        assert header[-3:] == ["energy", "theta1", "herm_drift"]
        # psi_1(t) = exp(-i t): the real part is cos t at every sample
        for line in csv[1:]:
            fields = [float(x) for x in line.split(", ")]
            assert fields[1] == pytest.approx(np.cos(fields[0]), abs=1e-9)
        diag = (tmp_path / "rot_diagnostics.jsonl").read_text().splitlines()
        assert len(diag) == len(csv) - 1

    def test_deterministic_outputs(self, tmp_path):
        path = write(tmp_path, "det", schrodinger_scenario())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--scenario", str(path), "--out", str(out1)]) == 0
        assert main(["simulate", "--scenario", str(path), "--out", str(out2)]) == 0
        assert (out1 / "det_trajectory.csv").read_bytes() == \
            (out2 / "det_trajectory.csv").read_bytes()

    def test_malformed_gamma_exit_2(self, tmp_path, capsys):
        bad = schrodinger_scenario()
        bad["initial"]["gamma0"] = mat(np.array([[0.0, 1j], [1j, 0.0]]))
        path = write(tmp_path, "bad", bad)
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path)]) == 2
        assert "NotHermitian" in capsys.readouterr().err

    def test_scenarios_sharing_a_name_exit_2(self, tmp_path, capsys):
        # a/x.json and b/x.json both write x_*: refused, naming both paths,
        # before either runs
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        p1 = write(tmp_path / "a", "x", schrodinger_scenario())
        p2 = write(tmp_path / "b", "x", geodesic_scenario())
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", str(p1), "--scenario", str(p2),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ScenarioError: ") and str(p1) in err and str(p2) in err
        assert list(out.iterdir()) == []

    def test_multiple_scenarios_run_serially(self, tmp_path):
        p1 = write(tmp_path, "one", schrodinger_scenario())
        p2 = write(tmp_path, "two", geodesic_scenario())
        code = main(["simulate", "--scenario", str(p1), "--scenario", str(p2),
                     "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "one_trajectory.csv").exists()
        assert (tmp_path / "two_trajectory.csv").exists()
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--scenario", str(p1), "--jobs", "2",
                  "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_parser_is_built_once_and_keeps_no_state(self, tmp_path, monkeypatch):
        # main parses with one parser per process, and an appended option
        # starts empty on every call
        p1 = write(tmp_path, "one", schrodinger_scenario())
        p2 = write(tmp_path, "two", geodesic_scenario())
        assert main(["simulate", "--scenario", str(p1), "--scenario", str(p2),
                     "--out", str(tmp_path)]) == 0
        monkeypatch.setattr(argparse, "ArgumentParser", None)
        again = tmp_path / "again"
        assert main(["simulate", "--scenario", str(p1), "--out", str(again)]) == 0
        assert (again / "one_trajectory.csv").exists()
        assert not (again / "two_trajectory.csv").exists()

    def test_killing_geodesic_is_degenerate(self, tmp_path, capsys):
        # preset killing has A + n B = 0: the geodesic tier refuses to run,
        # when the run is set up: exit 2, not a step failure
        sc = geodesic_scenario(params={"preset": "killing"})
        path = write(tmp_path, "killing", sc)
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "gamma_geodesic" in err and "degenerate" in err.lower()


def _malformed(case: str, field: str, edit):
    sc = schrodinger_scenario()
    edit(sc)
    return pytest.param(sc, field, id=case)


def _with_forcing(kind, **extra):
    return lambda sc: sc["params"].update(
        forcing={"kind": kind, "vector": vec([0.1, 0.0]), **extra})


@pytest.mark.parametrize("scenario, field", [
    _malformed("chi-size", "chi", lambda sc: sc.update(chi=mat(np.eye(3)))),
    _malformed("chi-nonsquare", "chi", lambda sc: sc.update(
        chi=[[pair(1.0), pair(0.0), pair(0.0)]] * 2)),
    _malformed("chi-diag-size", "chi", lambda sc: sc.update(chi="diag:[1, 2, 3]")),
    _malformed("gamma0-ragged", "gamma0", lambda sc: sc["initial"].update(
        gamma0=[[pair(1.0), pair(0.0)], [pair(1.0)]])),
    _malformed("gamma_dot0-size", "gamma_dot0 must be", lambda sc: sc.update(
        model_tier="gamma_geodesic", initial={**sc["initial"], "gamma_dot0": mat(np.eye(3))})),
    # an initial velocity is read only by a tier that steps it
    *[_malformed(f"{key}-on-{tier}", f"initial key {key!r} is read only by a tier that steps "
                                     f"{key[:-1]}, not by {tier!r}",
                 lambda sc, tier=tier, key=key: sc.update(model_tier=tier, initial={
                     **sc["initial"], key: vec([9 + 9j, 9 + 9j]) if key == "psi_dot0"
                     else mat(np.diag([0.5, 0.3]))}))
      for tier, blocks in STEPPED_BLOCKS.items() for key in ("psi_dot0", "gamma_dot0")
      if key[:-1] not in blocks],
    _malformed("gamma_tilde-size", "gamma_tilde", lambda sc: sc.update(
        model_tier="second_order", params={"alpha1": 0.5, "alpha2": 1.0, "alpha5": -1.0},
        gamma_tilde=mat(np.eye(3)))),
    # gamma_tilde is read only by second_order
    *[_malformed(f"gamma_tilde-on-{tier}", "gamma_tilde", lambda sc, tier=tier: sc.update(
        model_tier=tier, gamma_tilde=mat(2.0 * np.eye(2)),
        params={"preset": "schrodinger", "alpha2": 0.7 if tier == "full" else 0.0}))
      for tier in ("schrodinger", "direct_nonlinear", "gamma_geodesic", "full",
                   "modified_first_order")],
    # resymmetrize_gamma is read only by a tier that steps gamma
    *[_malformed(f"resymmetrize_gamma-{value}-on-{tier}",
                 f"integrator key 'resymmetrize_gamma' is read only by a tier that steps "
                 f"gamma, not by '{tier}'", lambda sc, tier=tier, value=value: (
                     sc.update(model_tier=tier, params={
                         "alpha1": 0.5, "alpha2": 1.0 if tier == "second_order" else 0.0,
                         "alpha5": -1.0}),
                     sc["integrator"].update(resymmetrize_gamma=value)))
      for tier in ("schrodinger", "direct_nonlinear", "second_order")
      for value in (False, True)],
    _malformed("generator-size", "generators[1]", lambda sc: sc.update(
        generators=[mat(np.eye(2)), mat(np.eye(3))])),
    # each charge is written under its label, so a label may appear once
    _malformed("generator-label-repeated", "'a'", lambda sc: sc.update(
        generators=[{"label": "a", "matrix": mat(np.eye(2))},
                    {"label": "a", "matrix": mat(np.array([[0, 1], [1, 0]]))}])),
    _malformed("generator-label-default-taken", "'gen1'", lambda sc: sc.update(
        generators=[{"label": "gen1", "matrix": mat(np.eye(2))}, mat(np.eye(2))])),
    _malformed("canonical_frozen", "canonical_frozen", lambda sc: sc.update(
        model_tier="canonical_frozen")),
    # every key a scenario may carry is read; any other one is refused
    _malformed("top-level", "'t_end'", lambda sc: sc.update(t_end=2.0)),
    _malformed("initial", "'psi_dot'", lambda sc: sc["initial"].update(psi_dot=vec([0, 0]))),
    _malformed("integrator-typo", "'sample_strid'",
               lambda sc: sc["integrator"].update(sample_strid=5)),
    _malformed("integrator-max_steps", "'max_steps'",
               lambda sc: sc["integrator"].update(max_steps=10)),
    _malformed("potential", "'kapa'", lambda sc: sc["params"].update(
        potential={"kind": "quartic_pure", "kapa": 0.1})),
    _malformed("forcing", "'vec'", lambda sc: sc["params"].update(
        forcing={"kind": "constant", "vec": vec([0.1, 0.0])})),
    _malformed("constant-forcing-omega", "'omega'", _with_forcing("constant", omega=2.0)),
    _malformed("generator", "'matrx'", lambda sc: sc.update(
        generators=[{"label": "H", "matrx": mat(np.eye(2))}])),
    _malformed("initial-not-object", "initial", lambda sc: sc.update(initial=[1.0])),
    # a settable value must be read: hbar only by a preset, tau only by kozlov-heat
    _malformed("hbar-without-preset", "'hbar'", lambda sc: sc.update(
        params={"alpha1": 0.5, "alpha5": -1.0, "hbar": 1.0})),
    _malformed("hbar-with-killing", "params key 'hbar' is read only by the 'schrodinger' and "
               "'kozlov-heat' presets, not by 'killing'", lambda sc: sc.update(
                   model_tier="gamma_geodesic", params={"preset": "killing", "hbar": 7.0})),
    _malformed("tau-outside-kozlov-heat", "'tau'", lambda sc: sc["params"].update(tau=3.0)),
    _malformed("tau-without-preset", "'tau'", lambda sc: sc.update(
        params={"alpha1": 0.5, "alpha5": -1.0, "tau": 3.0})),
    _malformed("hbar-not-positive", "hbar must be positive",
               lambda sc: sc["params"].update(hbar=0.0)),
    # numbers and flags are read only from JSON values of their type
    _malformed("alpha4-string", "'alpha4'", lambda sc: sc["params"].update(alpha4="abc")),
    _malformed("hbar-string", "'hbar'", lambda sc: sc["params"].update(hbar="1")),
    _malformed("seed-string", "'seed'", lambda sc: sc.update(seed="x")),
    # numpy's generators take a seed >= 0
    _malformed("seed-negative", "'seed'", lambda sc: sc.update(seed=-3)),
    _malformed("dt-null", "'dt'", lambda sc: sc["integrator"].update(dt=None)),
    _malformed("kappa-string", "'kappa'", lambda sc: sc["params"].update(
        potential={"kind": "quartic_pure", "kappa": "x"})),
    _malformed("omega-string", "'omega'", _with_forcing("harmonic", omega="x")),
    *[_malformed(f"{key}-string", f"'{key}'", lambda sc, key=key: sc.update({key: "false"}))
      for key in ("inject_sign_error", "request_chart")],
    _malformed("resymmetrize_gamma-string", "'resymmetrize_gamma'",
               lambda sc: sc["integrator"].update(resymmetrize_gamma="false")),
    # a potential carries only the keys its kind reads
    _malformed("quartic_pure-shift", "'shift'", lambda sc: sc["params"].update(
        potential={"kind": "quartic_pure", "kappa": 0.1, "shift": 5.0})),
    _malformed("none-kappa", "'kappa'", lambda sc: sc["params"].update(
        potential={"kind": "none", "kappa": 0.1})),
    # an array literal is [re, im] number pairs of the shape n fixes
    _malformed("psi0-string-entry", "psi0", lambda sc: sc["initial"].update(
        psi0=[["x", 0], [0, 0]])),
    _malformed("psi0-number", "psi0", lambda sc: sc["initial"].update(psi0=5)),
    _malformed("psi0-empty", "psi0", lambda sc: sc["initial"].update(psi0=[])),
    _malformed("forcing-vector-entry", "forcing vector", lambda sc: sc["params"].update(
        forcing={"kind": "constant", "vector": [["y", 0.0], [0.0, 0.0]]})),
    # a block is read only from a JSON value of its type: lists, objects, a string kind
    _malformed("outputs-number", "'outputs'", lambda sc: sc.update(outputs=5)),
    _malformed("outputs-string", "'outputs'", lambda sc: sc.update(outputs="trajectory")),
    _malformed("generators-number", "'generators'", lambda sc: sc.update(generators=5)),
    _malformed("params-list", "'params'", lambda sc: sc.update(params=[1])),
    _malformed("generator-label-list", "generators[0] key 'label'", lambda sc: sc.update(
        generators=[{"label": ["H"], "matrix": mat(np.eye(2))}])),
    _malformed("potential-kind-list", "potential key 'kind'", lambda sc: sc["params"].update(
        potential={"kind": ["quartic_pure"], "kappa": 0.1})),
    _malformed("forcing-kind-list", "forcing key 'kind'", lambda sc: sc["params"].update(
        forcing={"kind": ["constant"], "vector": vec([0.1, 0.0])})),
    # the integrator's times and tolerances and the forcing are finite, as the couplings are
    *[_malformed(f"{key}-{value}", f"{key} must be finite", lambda sc, key=key, value=value:
                 sc["integrator"].update({key: float(value)}))
      for key, value in (("t_end", "inf"), ("dt", "inf"), ("t_start", "-inf"),
                         ("rel_tol", "inf"), ("abs_tol", "nan"))],
    # a relative tolerance below round-off
    # finite ends whose difference is not: no finite step count
    _malformed("span-infinite", "t_end - t_start must be finite", lambda sc: sc["integrator"]
               .update(t_start=-1e308, t_end=1e308, method="rk45_adaptive")),
    _malformed("rel_tol-below-eps", "rel_tol must be at least", lambda sc: sc["integrator"].update(
        rel_tol=1e-300)),
    _malformed("forcing-vector-infinite", "forcing vector", lambda sc: sc["params"].update(
        forcing={"kind": "constant", "vector": [[float("inf"), 0.0], [0.0, 0.0]]})),
    _malformed("omega-infinite", "'omega'", _with_forcing("harmonic", omega=float("inf"))),
    # a potential's numbers are finite, as the couplings are
    _malformed("potential-kappa-infinite", "potential kappa", lambda sc: sc["params"].update(
        potential={"kind": "quartic_pure", "kappa": float("inf")})),
    _malformed("potential-shift-nan", "potential shift", lambda sc: sc["params"].update(
        potential={"kind": "quartic_shifted", "kappa": 0.1, "shift": float("nan")})),
    # alpha2 != 0 makes L second order: a first-order psi tier cannot solve it
    *[_malformed(f"alpha2-on-{tier}", "'alpha2'", lambda sc, tier=tier: sc.update(
        model_tier=tier, params={"preset": "schrodinger", "alpha2": 0.7}))
      for tier in ("schrodinger", "direct_nonlinear", "modified_first_order")],
    # the second-order tiers solve for psi_ddot, which alpha2 == 0 leaves undefined
    *[_malformed(f"alpha2-zero-on-{tier}", "'alpha2'", lambda sc, tier=tier: sc.update(
        model_tier=tier, params={"preset": "schrodinger"}))
      for tier in ("second_order", "full")],
])
def test_malformed_scenario_exit_2(tmp_path, capsys, scenario, field):
    # refused at load time with a ScenarioError that names the field
    path = write(tmp_path, "malformed", scenario)
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ScenarioError: ") and field in err
    assert err.count("ScenarioError") == 1
    assert not (tmp_path / "malformed_trajectory.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "check"])
@pytest.mark.parametrize("matrix, reason", [
    pytest.param(np.array([[0.0, 1.0], [0.0, 0.0]]), "WrongSymmetryClass: generator 'g' is "
                 "neither Hermitian nor antihermitian", id="neither"),
    pytest.param(np.zeros((2, 2)), "generator 'g' is zero", id="zero"),
])
def test_bad_charge_generator_refused_before_anything_runs(tmp_path, capsys, command, matrix,
                                                            reason):
    # the loader classifies each generator as the charge monitor does: a
    # zero generator or one of neither symmetry class is refused by its
    # label, exit 2, before a step is taken or a file is written
    sc = {
        "model_tier": "full",
        "params": {"alpha1": 0.4, "alpha2": 0.3, "alpha6": 0.9, "alpha7": 0.25},
        "initial": {"psi0": vec([0.5, 0.3j]), "psi_dot0": vec([0.1, 0.0]),
                    "gamma0": mat(np.eye(2))},
        "integrator": {"dt": 1e-3, "t_end": 0.01},
        "outputs": ["trajectory", "diagnostics", "charges"],
        "generators": [{"label": "H", "matrix": mat(np.eye(2))},
                       {"label": "g", "matrix": mat(matrix)}],
    }
    path = write(tmp_path, "g", sc)
    out = tmp_path / "out"
    assert main([command, "--scenario", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ScenarioError: ") and reason in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("drift, accepted", [(5e-10, True), (2e-9, False)])
def test_generator_tolerance_is_the_one_of_every_form(tmp_path, capsys, drift, accepted):
    # the loader classifies a generator against HERM_TOL_FACTOR = 1e-9: at
    # drift 5e-10 it is Hermitian, at 2e-9 it is refused, exit 2
    a = np.array([[1.0, drift / 2.0], [-drift / 2.0, 1.0]])
    sc = {
        "model_tier": "full",
        "params": {"alpha1": 0.4, "alpha2": 0.3, "alpha6": 0.9, "alpha7": 0.25},
        "initial": {"psi0": vec([0.5, 0.3j]), "psi_dot0": vec([0.1, 0.0]),
                    "gamma0": mat(np.eye(2))},
        "integrator": {"dt": 1e-3, "t_end": 0.01},
        "outputs": ["charges"],
        "generators": [{"label": "a", "matrix": mat(a)}],
    }
    path = write(tmp_path, "g", sc)
    if accepted:
        assert load_scenario(path).generators[0][0] == "a"
        assert main(["charges", "--scenario", str(path), "--out", str(tmp_path)]) == 0
    else:
        assert main(["charges", "--scenario", str(path), "--out", str(tmp_path)]) == 2
        assert "neither Hermitian nor antihermitian" in capsys.readouterr().err


def _non_finite_field(field: str, value: float):
    """An edit putting ``value`` into one entry of the array literal ``field``."""
    bad_vec, bad_mat = vec([1.0, 0.0]), mat(np.eye(2))
    bad_vec[1][0] = bad_mat[1][1][1] = value
    return {
        "psi0": lambda sc: sc["initial"].update(psi0=bad_vec),
        # the initial velocities on the tier that steps both
        "psi_dot0": lambda sc: sc.update(model_tier="full",
                                         initial={**sc["initial"], "psi_dot0": bad_vec}),
        "gamma0": lambda sc: sc["initial"].update(gamma0=bad_mat),
        "gamma_dot0": lambda sc: sc.update(model_tier="full",
                                           initial={**sc["initial"], "gamma_dot0": bad_mat}),
        "chi": lambda sc: sc.update(chi=bad_mat),
        "gamma_tilde": lambda sc: sc.update(
            model_tier="second_order", params={"alpha1": 0.5, "alpha2": 1.0, "alpha5": -1.0},
            gamma_tilde=bad_mat),
        "generators[1]": lambda sc: sc.update(generators=[mat(np.eye(2)), bad_mat]),
        "forcing vector": lambda sc: sc["params"].update(
            forcing={"kind": "constant", "vector": bad_vec}),
    }[field]


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
@pytest.mark.parametrize("field", ["psi0", "psi_dot0", "gamma0", "gamma_dot0", "chi",
                                   "gamma_tilde", "generators[1]", "forcing vector"])
def test_non_finite_array_literal_exit_2(tmp_path, capsys, field, value):
    # JSON's Infinity and NaN load as numbers; every array literal refuses them
    # by name, at load time, with no numpy warning on the way
    sc = schrodinger_scenario()
    _non_finite_field(field, value)(sc)
    path = write(tmp_path, "non_finite", sc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["charges", "--scenario", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"ScenarioError: {field} must have finite entries, got ")


def test_chi_diag_generator_must_be_finite(tmp_path, capsys):
    path = write(tmp_path, "diag", schrodinger_scenario(chi="diag:[1, Infinity]"))
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("ScenarioError: chi: diag generator entries "
                                              "must be finite")


def test_kozlov_heat_reads_hbar_and_tau(tmp_path):
    sc = schrodinger_scenario(model_tier="second_order",
                              params={"preset": "kozlov-heat", "hbar": 2.0, "tau": 0.25})
    params = load_scenario(write(tmp_path, "heat", sc)).params
    assert (params.alpha1, params.alpha2, params.alpha5) == (2.0, -2.0, -2.0)


@pytest.mark.parametrize("command", ["simulate", "reduce"])
@pytest.mark.parametrize("tier", ["schrodinger", "direct_nonlinear"])
def test_first_order_psi_tier_refuses_alpha1_zero(tmp_path, capsys, tier, command):
    sc = schrodinger_scenario(model_tier=tier, params={"alpha5": -1.0})
    path = write(tmp_path, "a1zero", sc)
    assert main([command, "--scenario", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("DegenerateKinetic: ") and "alpha1 == 0" in err


@pytest.mark.parametrize("tier, alpha2", [("full", 0.3), ("modified_first_order", 0.0)])
def test_gamma_tier_refuses_alpha6_zero_before_it_steps(tmp_path, capsys, tier, alpha2):
    # the couplings are refused when the run is set up: exit 2, not a step failure
    sc = schrodinger_scenario(model_tier=tier, chi="diag:[1, 2]",
                              params={"alpha1": 0.4, "alpha2": alpha2, "alpha6": 0.0,
                                      "alpha7": 0.25})
    path = write(tmp_path, "a6zero", sc)
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(
        "DegenerateKinetic: alpha6 = 0.000e+00 vanishes relative to its terms")


def test_harmonic_forcing_takes_omega(tmp_path):
    sc = schrodinger_scenario()
    _with_forcing("harmonic", omega=2.0)(sc)
    forcing = load_scenario(write(tmp_path, "harmonic", sc)).params.forcing
    assert np.array_equal(forcing(0.5), np.array([0.1 * np.cos(1.0), 0.0]))


@pytest.mark.parametrize("command", ["simulate", "reduce", "oracle", "charges"])
def test_seed_only_on_check(tmp_path, capsys, command):
    path = write(tmp_path, "sch", schrodinger_scenario())
    with pytest.raises(SystemExit) as exc:
        main([command, "--scenario", str(path), "--out", str(tmp_path), "--seed", "5"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_check_takes_seed(tmp_path):
    path = write(tmp_path, "sch", schrodinger_scenario())
    assert main(["check", "--scenario", str(path), "--out", str(tmp_path), "--seed", "5"]) == 0


def test_check_refuses_a_negative_seed(tmp_path, capsys):
    # exit 2, a bad input, not 1, the code of failed verdicts
    path = write(tmp_path, "sch", schrodinger_scenario(seed=-3))
    assert main(["check", "--scenario", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("ScenarioError: scenario key 'seed' must be")
    path = write(tmp_path, "sch", schrodinger_scenario())
    with pytest.raises(SystemExit) as exc:
        main(["check", "--scenario", str(path), "--out", str(tmp_path), "--seed", "-1"])
    assert exc.value.code == 2
    assert "--seed: must be a non-negative integer, got -1" in capsys.readouterr().err


class TestCheck:
    def test_pass_case(self, tmp_path, capsys):
        path = write(tmp_path, "ok", schrodinger_scenario())
        assert main(["check", "--scenario", str(path), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "ok_check.json").read_text())
        assert report["all_passed"]
        assert any(v["check"] == "el_vs_action_gradient" for v in report["verdicts"])

    def test_injected_sign_error_fails(self, tmp_path, capsys):
        sc = schrodinger_scenario(inject_sign_error=True)
        path = write(tmp_path, "fault", sc)
        assert main(["check", "--scenario", str(path), "--out", str(tmp_path)]) == 1
        report = json.loads((tmp_path / "fault_check.json").read_text())
        bad = [v for v in report["verdicts"] if v["check"] == "el_vs_action_gradient"]
        assert bad and bad[0]["passed"] is False

    def test_static_case(self, tmp_path):
        # equilibrium scenario: every drift is exactly zero and the check passes
        sc = {
            "model_tier": "full",
            "params": {"alpha1": 0.4, "alpha2": 0.3, "alpha6": 0.9, "alpha7": 0.25},
            "initial": {"psi0": vec([0.0, 0.0]), "gamma0": mat(np.eye(2))},
            "integrator": {"dt": 1e-2, "t_end": 0.2},
            "seed": 5,
        }
        path = write(tmp_path, "static", sc)
        assert main(["check", "--scenario", str(path), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "static_check.json").read_text())
        drift = [v for v in report["verdicts"] if v["check"] == "energy_drift"][0]
        assert drift["value"] == 0.0

    def test_killing_plus_alpha8_full_check(self, tmp_path, monkeypatch):
        # the killing preset (alpha6 + n alpha7 = 0) with alpha8 != 0: the
        # closed-form kinetic inverse runs it, never the numeric oracle
        numeric = count_numeric_inverse(monkeypatch)
        sc = {
            "model_tier": "full",
            "params": {"preset": "killing", "alpha1": 0.4, "alpha2": 0.3, "alpha8": 0.3},
            "initial": {
                "psi0": vec([0.5, 0.3j]),
                "psi_dot0": vec([0.1, 0.0]),
                "gamma0": mat(np.eye(2)),
                "gamma_dot0": mat(np.array([[0.05, 0.01], [0.01, -0.02]])),
            },
            "integrator": {"dt": 1e-3, "t_end": 0.2, "sample_stride": 50},
            "seed": 11,
        }
        path = write(tmp_path, "killing8", sc)
        assert main(["check", "--scenario", str(path), "--out", str(tmp_path)]) == 0
        assert numeric == []

    def test_full_model_check(self, tmp_path):
        sc = {
            "model_tier": "full",
            "params": {"alpha1": 0.4, "alpha2": 0.3, "alpha3": 0.1, "alpha6": 0.9,
                       "alpha7": 0.25, "alpha8": 0.1, "alpha9": 0.1, "kappa": 0.05},
            "initial": {
                "psi0": vec([0.5, 0.3j]),
                "psi_dot0": vec([0.1, 0.0]),
                "gamma0": mat(np.eye(2)),
                "gamma_dot0": mat(np.array([[0.05, 0.01], [0.01, -0.02]])),
            },
            "integrator": {"dt": 1e-3, "t_end": 0.5, "sample_stride": 50},
            "seed": 11,
        }
        path = write(tmp_path, "full", sc)
        assert main(["check", "--scenario", str(path), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "full_check.json").read_text())
        names = {v["check"] for v in report["verdicts"]}
        assert {"energy_drift", "charge_drift", "legendre_round_trip"} <= names


def test_action_gradient_verdict_is_scale_free(tmp_path):
    # L and s L share their equations of motion: at a power of two s the
    # residual and the action gradient scale by exactly s, so the verdict
    # value keeps its bits, and an injected sign error fails at every scale
    couplings = {"alpha1": 0.4, "alpha2": 0.3, "alpha3": 0.1, "alpha6": 0.9,
                 "alpha7": 0.25, "alpha8": 0.1, "kappa": 0.05}
    values = {}
    for s in (2.0 ** -40, 1.0, 2.0 ** 40):
        sc = {
            "model_tier": "full",
            "params": {**{k: s * v for k, v in couplings.items()}, "alpha9": 0.1},
            "initial": {"psi0": vec([0.5, 0.3j]), "psi_dot0": vec([0.1, 0.0]),
                        "gamma0": mat(np.eye(2)),
                        "gamma_dot0": mat(np.array([[0.05, 0.01], [0.01, -0.02]]))},
            "integrator": {"dt": 1e-3, "t_end": 0.05, "sample_stride": 25},
            "seed": 11,
        }
        for fault in (False, True):
            path = write(tmp_path, "scaled", {**sc, "inject_sign_error": fault})
            code = main(["check", "--scenario", str(path), "--out", str(tmp_path)])
            verdicts = {v["check"]: v for v in
                        json.loads((tmp_path / "scaled_check.json").read_text())["verdicts"]}
            verdict = verdicts["el_vs_action_gradient"]
            assert verdict["passed"] is not fault
            if fault:
                assert code == 1
            else:
                values[s] = verdict["value"]
    assert values[2.0 ** -40] == values[1.0] == values[2.0 ** 40]


@pytest.mark.parametrize("kappa", [0.0, 0.05])
@pytest.mark.parametrize("tier", list(STEPPED_BLOCKS))
def test_check_asserts_charges_on_gamma_tiers_and_theta1_on_frozen_ones(tmp_path, tier,
                                                                        kappa):
    # alpha5 = 0 everywhere, so only the tier decides whether charges are
    # asserted; theta1 is asserted only on the first-order psi flows on a
    # frozen gamma, with or without a potential (a second-order psi flow
    # conserves the U(1) charge, not theta1)
    alpha2 = 0.3 if tier in ("second_order", "full") else 0.0
    sc = {
        "model_tier": tier,
        "params": {"alpha1": 0.4, "alpha2": alpha2, "alpha4": 0.2, "alpha6": 0.9,
                   "alpha7": 0.25, "kappa": kappa},
        "initial": {"psi0": vec([0.5, 0.3j]), "gamma0": mat(np.eye(2))},
        "integrator": {"dt": 1e-2, "t_end": 0.05},
        "seed": 5,
    }
    if "gamma_dot" in STEPPED_BLOCKS[tier]:
        sc["initial"]["gamma_dot0"] = mat(np.array([[0.05, 0.01], [0.01, -0.02]]))
    path = write(tmp_path, "split", sc)
    main(["check", "--scenario", str(path), "--out", str(tmp_path)])
    verdicts = {v["check"]: v for v in
                json.loads((tmp_path / "split_check.json").read_text())["verdicts"]}
    steps_gamma = tier in ("gamma_geodesic", "full", "modified_first_order")
    assert ("charge_drift" in verdicts) == steps_gamma
    if steps_gamma:
        assert verdicts["charge_drift"]["tol"] == 1e-6
    assert (verdicts["theta1_drift"]["tol"] is not None) == (
        tier in ("schrodinger", "direct_nonlinear"))
    assert verdicts["theta1_drift"]["passed"] is not False


_FORCING = {"kind": "constant", "vector": vec([0.3, 0.2j])}
_SECOND_ORDER = {"model_tier": "second_order",
                 "params": {"alpha1": 0.5, "alpha2": 1.0, "alpha5": -1.0}}


@pytest.mark.parametrize("case, moving, recorded", [
    # a second-order psi flow conserves the U(1) charge, not theta1
    pytest.param(_SECOND_ORDER, "theta1_drift", {"theta1_drift"}, id="second_order"),
    # alpha4 enters the second-order psi equation: energy is conserved
    pytest.param({"model_tier": "second_order",
                  "params": {"alpha1": 0.5, "alpha2": 0.7, "alpha4": 0.3, "alpha5": -1.0},
                  "integrator": {"method": "rk4", "dt": 0.002, "t_end": 2.0,
                                 "sample_stride": 20}},
                 "theta1_drift", {"theta1_drift"}, id="second_order_alpha4"),
    # the recorded energy is that of the one-metric L
    pytest.param({**_SECOND_ORDER, "gamma_tilde": mat(np.array([[1.3, 0.2 + 0.1j],
                                                                [0.2 - 0.1j, 0.8]]))},
                 "energy_drift", {"energy_drift", "theta1_drift"}, id="two_metric"),
    # a forcing, an opaque callable, leaves nothing asserted (a constant one
    # still conserves energy, which the table cannot tell)
    pytest.param({"model_tier": "direct_nonlinear",
                  "params": {"preset": "schrodinger", "forcing": _FORCING}},
                 "theta1_drift", {"energy_drift", "theta1_drift"}, id="forced_first_order"),
    pytest.param({"model_tier": "full",
                  "params": {"alpha1": 0.4, "alpha2": 0.3, "alpha6": 0.9, "alpha7": 0.25,
                             "forcing": _FORCING},
                  "initial": {"gamma_dot0": mat(np.array([[0.01, 0.02 + 0.01j],
                                                          [0.02 - 0.01j, -0.01]]))}},
                 "charge_drift", {"energy_drift", "theta1_drift", "charge_drift"},
                 id="forced_full"),
])
def test_check_records_what_a_scenario_does_not_conserve(tmp_path, case, moving, recorded):
    # the quantity ``moving`` drifts (by 0.02 to 1.7) because the scenario
    # does not conserve it; check records it and the other unconserved ones
    # with a null tolerance instead of failing the run, and asserts the rest
    sc = {"chi": "diag:[1, 2]",
          "initial": {"psi0": vec([0.6 + 0.1j, 0.2 - 0.3j]), "psi_dot0": vec([0.05, 0.02j])},
          "integrator": {"method": "rk4", "dt": 0.002, "t_end": 0.4, "sample_stride": 20},
          "seed": 3}
    sc.update({k: v for k, v in case.items() if k != "initial"})
    sc["initial"] = {**sc["initial"], **case.get("initial", {})}
    if "psi_dot" not in STEPPED_BLOCKS[sc["model_tier"]]:
        del sc["initial"]["psi_dot0"]
    path = write(tmp_path, "cons", sc)
    assert main(["check", "--scenario", str(path), "--out", str(tmp_path)]) == 0
    verdicts = {v["check"]: v for v in
                json.loads((tmp_path / "cons_check.json").read_text())["verdicts"]}
    assert verdicts[moving]["value"] > 0.01
    for name, verdict in verdicts.items():
        assert (verdict["tol"] is None) == (name in recorded)
        assert verdict["passed"] is (None if name in recorded else True)
    sc["inject_sign_error"] = True
    path = write(tmp_path, "cons", sc)
    assert main(["check", "--scenario", str(path), "--out", str(tmp_path)]) == 1


class TestReduce:
    def test_canonical_case(self, tmp_path, capsys):
        sc = schrodinger_scenario()
        sc["initial"]["gamma0"] = mat(np.eye(2))   # I/(2 alpha) with alpha = 1/2
        path = write(tmp_path, "red", sc)
        assert main(["reduce", "--scenario", str(path), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "red_reduce.json").read_text())
        assert report["canonical"] is True
        assert np.allclose(report["form_xy"], -np.eye(2))
        assert not report["chart_refused"]

    def test_imaginary_part_coefficients(self, tmp_path):
        sc = schrodinger_scenario()
        sc["chi"] = mat(np.array([[1.0, 0.2 + 0.1j], [0.2 - 0.1j, 3.0]]))
        sc["initial"]["gamma0"] = mat(np.array([[1.0, 0.3j], [-0.3j, 2.0]]))
        path = write(tmp_path, "red2", sc)
        assert main(["reduce", "--scenario", str(path), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "red2_reduce.json").read_text())
        assert np.allclose(report["A"], [[0.0, 0.3], [-0.3, 0.0]])
        assert np.allclose(report["alpha_mat"], [[0.0, 0.1], [-0.1, 0.0]])

    def test_indefinite_chart_refused_but_emitted(self, tmp_path):
        sc = schrodinger_scenario()
        sc["initial"]["gamma0"] = mat(np.diag([1.0, -1.0]))
        path = write(tmp_path, "indef", sc)
        assert main(["reduce", "--scenario", str(path), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "indef_reduce.json").read_text())
        assert report["chart_refused"] is True
        assert report["S"] is not None

    def test_indefinite_with_requested_chart_errors(self, tmp_path, capsys):
        sc = schrodinger_scenario(request_chart=True)
        sc["initial"]["gamma0"] = mat(np.diag([1.0, -1.0]))
        path = write(tmp_path, "indef2", sc)
        assert main(["reduce", "--scenario", str(path), "--out", str(tmp_path)]) == 2
        assert "NotPositiveDefinite" in capsys.readouterr().err

    @pytest.mark.parametrize("request_chart", [False, True])
    def test_negative_alpha1_chart_refused(self, tmp_path, capsys, request_chart):
        # at alpha1 < 0 a positive-definite Gamma has no chart with
        # C^ Gamma C = I / (2 alpha1): it is refused, and the report is JSON
        # without NaN, written with no numpy warning
        sc = {"model_tier": "schrodinger", "params": {"alpha1": -0.5, "alpha5": 1},
              "chi": "diag:[1, 2]", "initial": {"psi0": vec([1.0, 0.0])},
              "request_chart": request_chart}
        path = write(tmp_path, "neg", sc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["reduce", "--scenario", str(path), "--out", str(tmp_path)])
        if request_chart:
            assert code == 2
            assert "Gamma / alpha1" in capsys.readouterr().err
            return
        assert code == 0

        def refuse(token):
            raise ValueError(f"non-finite JSON token {token}")

        report = json.loads((tmp_path / "neg_reduce.json").read_text(), parse_constant=refuse)
        assert report["chart_refused"] is True and report["chart"] is None

    def test_wrong_tier_rejected(self, tmp_path):
        sc = geodesic_scenario()
        path = write(tmp_path, "geo", sc)
        assert main(["reduce", "--scenario", str(path), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("forcing", [
        {"kind": "constant", "vector": vec([0.1 - 0.2j, 0.3])},
        {"kind": "harmonic", "vector": vec([0.1 - 0.2j, 0.3]), "omega": 2.0},
    ], ids=["constant", "harmonic"])
    def test_multipliers_are_the_flow_velocity(self, tmp_path, forcing):
        # with alpha4 and a forcing the multipliers are the psi velocity of
        # the scenario's own flow at t_start, bit for bit
        sc = schrodinger_scenario()
        sc["params"].update(alpha4=0.3, forcing=forcing)
        sc["initial"]["psi0"] = vec([0.6 + 0.2j, -0.4j])
        sc["integrator"]["t_start"] = 0.4
        path = write(tmp_path, "forced", sc)
        assert main(["reduce", "--scenario", str(path), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "forced_reduce.json").read_text())
        s = load_scenario(path)
        flow = rhs_direct_nonlinear_raw(s.psi0, s.gamma0, s.params, s.chi, 0.4)
        assert np.array_equal(decode_pairs(report["multipliers"], (2,), "multipliers"), flow)


_REPO_ROOT = Path(__file__).resolve().parent.parent


def _oracle(tmp_path, capsys, name, sc):
    """Run ``oracle`` on the scenario ``sc``: (exit code, stdout, stderr)."""
    path = write(tmp_path, name, sc)
    code = main(["oracle", "--scenario", str(path), "--out", str(tmp_path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_FROZEN_G = np.array([[1.3, 0.2 + 0.1j], [0.2 - 0.1j, 1.1]])
_ORACLE_COUPLINGS = {"alpha1": 0.5, "alpha2": 1.0, "alpha4": 0.3, "alpha5": -1.0}


class TestOracle:
    def test_gamma_geodesic(self, tmp_path, capsys):
        path = write(tmp_path, "geo", geodesic_scenario())
        assert main(["oracle", "--scenario", str(path), "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "max deviation" in out
        assert float(out.strip().split()[-1]) < 1e-7
        assert (tmp_path / "geo_oracle.csv").exists()

    def test_schrodinger(self, tmp_path, capsys):
        path = write(tmp_path, "sch", schrodinger_scenario())
        assert main(["oracle", "--scenario", str(path), "--out", str(tmp_path)]) == 0
        assert float(capsys.readouterr().out.strip().split()[-1]) < 1e-9

    # rho: a bound on the largest |eigenvalue| of the flow's generator A (for
    # alpha5 = 0 it is the phase rate alpha4 / (2 alpha1) = 2 exactly)
    @pytest.mark.parametrize("tier, params, rho, gamma_tilde", [
        ("schrodinger", {"preset": "schrodinger", "alpha4": 0.3}, 1.7, None),
        ("schrodinger", {"alpha1": 0.5, "alpha4": 2.0}, 2.0, None),
        ("direct_nonlinear", {**_ORACLE_COUPLINGS, "alpha2": 0.0}, 1.7, None),
        ("second_order", _ORACLE_COUPLINGS, 1.9, None),
        ("second_order", _ORACLE_COUPLINGS, 2.4, np.diag([1.5, 0.8])),
    ], ids=["schrodinger-alpha4", "schrodinger-alpha5-zero", "direct_nonlinear",
            "second_order", "second_order-gamma_tilde"])
    def test_linear_flow_is_matched_at_rk4_order(self, tmp_path, capsys, tier, params, rho,
                                                 gamma_tilde):
        # RK4's leading error on y' = A y over t_end is t_end rho^5 dt^4 / 120
        # times max|y0| (= 1 here); the bound doubles it, and halving dt cuts
        # the deviation at least 12x, near the 16x of order 4
        initial = {"psi0": vec([1.0, 0.5j]), "gamma0": mat(_FROZEN_G)}
        if tier == "second_order":
            initial["psi_dot0"] = vec([0.2, -0.1j])
        sc = {"model_tier": tier, "params": params, "chi": "diag:[1, 2]", "initial": initial}
        if gamma_tilde is not None:
            sc["gamma_tilde"] = mat(gamma_tilde)
        deviations = []
        for dt in (0.05, 0.025):
            sc["integrator"] = {"method": "rk4", "dt": dt, "t_end": 1.0}
            code, out, _ = _oracle(tmp_path, capsys, "lin", sc)
            assert code == 0
            deviations.append(float(out.split()[-1]))
            assert deviations[-1] < 2.0 * 1.0 * rho ** 5 * dt ** 4 / 120.0
        assert deviations[0] > 12.0 * deviations[1]

    def test_schrodinger_exact_column_is_the_hamiltonian_exponential(self, tmp_path,
                                                                     monkeypatch):
        # the benchmark's oracle_schrodinger_n4 scenario: the CLI's exact
        # column against exp(-i H t / hbar) psi0, H = gamma0^-1 chi and
        # hbar = 2 alpha1 / -alpha5, written out here
        monkeypatch.syspath_prepend(str(_REPO_ROOT))
        from perfbench.scenarios import build_workload
        cmd = build_workload("verify", 1, tmp_path / "scenarios")[3]
        path = cmd.argv[cmd.argv.index("--scenario") + 1]
        assert path.endswith("oracle_schrodinger_n4.json")
        assert main(["oracle", "--scenario", path, "--out", str(tmp_path)]) == 0
        s = load_scenario(path)
        h = np.linalg.solve(s.gamma0, s.chi)
        hbar = 2.0 * s.params.alpha1 / -s.params.alpha5
        rows = np.loadtxt(tmp_path / "oracle_schrodinger_n4_oracle.csv", delimiter=",",
                          skiprows=1)
        exact = np.abs([matrix_exp(-1j * h / hbar, t - rows[0, 0]) @ s.psi0
                        for t in rows[:, 0]])
        assert np.max(np.abs(rows[:, 2:-1:2] - exact)) <= 1e-14

    @pytest.mark.parametrize("tier, params, named", [
        ("schrodinger", {"preset": "schrodinger", "kappa": 0.5}, "a potential"),
        ("schrodinger", {"preset": "schrodinger", "potential": {
            "kind": "quartic_shifted", "kappa": 0.1, "shift": 1.0}}, "a potential"),
        ("direct_nonlinear", {"preset": "schrodinger", "kappa": 0.5}, "a potential"),
        ("schrodinger", {"preset": "schrodinger", "forcing": {
            "kind": "constant", "vector": vec([0.1, 0.0])}}, "forcing"),
        ("second_order", {**_ORACLE_COUPLINGS, "forcing": {
            "kind": "constant", "vector": vec([0.1, 0.0])}}, "forcing"),
        ("full", {"alpha1": 0.4, "alpha2": 0.3, "alpha6": 0.9, "alpha7": 0.25}, "'full'"),
        ("modified_first_order", {"alpha1": 0.4, "alpha6": 0.9, "alpha7": 0.25},
         "'modified_first_order'"),
    ])
    def test_refuses_a_flow_with_no_exact_solution(self, tmp_path, capsys, tier, params,
                                                   named):
        sc = schrodinger_scenario(model_tier=tier, params=params)
        code, _, err = _oracle(tmp_path, capsys, "sch", sc)
        assert code == 2
        assert err.startswith("NoOracleForTier: ") and named in err
        assert not (tmp_path / "sch_oracle.csv").exists()

    def test_alpha1_zero_is_refused_by_the_operator(self, tmp_path, capsys):
        sc = schrodinger_scenario(params={"alpha1": 0.0, "alpha5": -1.0})
        code, _, err = _oracle(tmp_path, capsys, "sch", sc)
        assert code == 2 and err.startswith("DegenerateKinetic: ")
        assert not (tmp_path / "sch_oracle.csv").exists()


class TestCharges:
    def test_charges_outputs(self, tmp_path, capsys):
        sc = schrodinger_scenario(outputs=["trajectory", "charges"])
        path = write(tmp_path, "chg", sc)
        assert main(["charges", "--scenario", str(path), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "chg_charges.jsonl").read_text().splitlines()
        assert lines and "charges" in json.loads(lines[0])
        summary = json.loads((tmp_path / "chg_charge_summary.json").read_text())
        assert "charges" in summary


SPECIAL = [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e300, -1e-300, 0.1]
#: keys that json escapes (", \, non-ASCII), that % formatting reads (%),
#: and whose sorted order is not their numeric one (A10 < A2)
ODD_LABELS = ["A2", "A10", "50%", "%s", "%(x)s", 'q"uote', "back\\slash", "ψ̇_ℏ", "H0"]


def _record(fields, row):
    """The record of ``fields`` (key: column index, or a dict of the same
    kind) at one row of a table."""
    return {key: _record(value, row) if isinstance(value, dict) else row[value]
            for key, value in fields.items()}


class TestWriters:
    """The row writer against per-line json.dumps and one joined CSV string."""

    @pytest.mark.parametrize("non_finite", [False, True])
    def test_jsonl_bytes_are_json_dumps(self, tmp_path, rng, non_finite):
        fields = {"t": 0, "energy": 1, "theta1": 2, "herm_drift": 3,
                  "charges": {label: 4 + j for j, label in enumerate(ODD_LABELS)}}
        scale = 10.0 ** rng.integers(-300, 300, (12, 1))
        table = rng.normal(size=(12, 4 + len(ODD_LABELS))) * scale
        if non_finite:
            # one special value per row, and a wholly finite row between them
            for i, value in enumerate(SPECIAL):
                table[i, i % table.shape[1]] = value
            table[len(SPECIAL) + 1, 5] = -0.0
        columns = [table[:, k] for k in range(table.shape[1])]
        leaves = {key: columns[value] if isinstance(value, int)
                  else {label: columns[k] for label, k in value.items()}
                  for key, value in fields.items()}
        path = tmp_path / "rows.jsonl"
        cli._write_jsonl(path, leaves)
        expected = "".join(json.dumps(_record(fields, row), sort_keys=True) + "\n"
                           for row in table.tolist())
        assert path.read_bytes() == expected.encode()

    def test_csv_bytes_are_the_joined_lines(self, tmp_path, rng):
        table = rng.normal(size=(9, 5)) * 10.0 ** rng.integers(-300, 300, (9, 1))
        for i, value in enumerate(SPECIAL):
            table[i, i % 5] = value
        header = ["t", "Re(psi_1)", "50%", "energy", "herm_drift"]
        template = ", ".join(["%.17g"] * 5)
        joined = "\n".join([", ".join(header), *(template % tuple(row)
                                                for row in table.tolist())]) + "\n"
        path = tmp_path / "rows.csv"
        cli._write_csv(path, header, table)
        assert path.read_text() == joined

    def _charges_run(self, tmp_path, t_end):
        # n = 4: the default generators are H0 ... H15 and A0 ... A15, G = 32
        sc = schrodinger_scenario(
            chi="diag:[1, 2, 3, 4]", initial={"psi0": vec([1.0, 0.5, 0.0, 0.25])},
            integrator={"method": "rk4", "dt": 1e-3, "t_end": t_end, "sample_stride": 1})
        s = load_scenario(write(tmp_path, "chg", sc))
        return s, cli._run_trajectory(s)

    def test_charges_jsonl_encodes_each_key_once(self, tmp_path, monkeypatch):
        dumps = json.dumps
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return dumps(*args, **kwargs)

        monkeypatch.setattr(json, "dumps", counting)
        counts = []
        for t_end in (0.002, 0.05):
            s, traj = self._charges_run(tmp_path, t_end)
            calls.clear()
            cli._charges_jsonl(traj, s, tmp_path)
            counts.append(len(calls))
        # t, energy, theta1, herm_drift, charges, the 32 labels, and the summary
        assert counts == [5 + 32 + 1] * 2

    def test_charges_jsonl_streams(self, tmp_path, monkeypatch):
        """The writer's allocation peak at S = 101, G = 32 stays within 1.25
        times that of a writer that formats each line with json.dumps and
        holds one line at a time: the file is never built as one string."""
        s, traj = self._charges_run(tmp_path, 0.1)
        labels = [label for label, _ in cli._generators(s)]
        monitored = diagnostics.monitor(traj, s.params, s.gamma0, cli._generators(s))
        assert (traj.times.size, len(labels)) == (101, 32)
        monkeypatch.setattr(diagnostics, "monitor", lambda *args: monitored)

        def per_line(traj, s, out_dir):
            charges = diagnostics.monitor()[2]
            with (out_dir / f"{s.name}_charges.jsonl").open("w") as fh:
                for t, e, th, d, values in zip(
                        traj.times.tolist(), traj.energy.tolist(), traj.theta1.tolist(),
                        traj.herm_drift.tolist(), charges.tolist()):
                    fh.write(json.dumps({"t": t, "energy": e, "theta1": th, "herm_drift": d,
                                         "charges": dict(zip(labels, values))},
                                        sort_keys=True) + "\n")
            return cli._write_report(out_dir / f"{s.name}_charge_summary.json",
                                     diagnostics.drift_summary(traj, labels, charges))

        peaks, outputs = [], []
        for writer, out in ((per_line, tmp_path / "ref"), (cli._charges_jsonl, tmp_path / "new")):
            out.mkdir()
            writer(traj, s, out)          # warm: first-call allocations aside
            tracemalloc.start()
            writer(traj, s, out)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            outputs.append((out / "chg_charges.jsonl").read_bytes())
        assert outputs[0] == outputs[1]
        assert peaks[1] <= 1.25 * peaks[0], peaks
