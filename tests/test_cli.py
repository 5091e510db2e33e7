import json

import numpy as np
import pytest

from hermiton.cli import main
from hermiton.integrate import STEPPED_BLOCKS
from hermiton.scenario import (
    dump_scenario,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
)


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
    def test_parse_serialize_parse_identity(self, tmp_path):
        path = write(tmp_path, "s", schrodinger_scenario())
        s1 = load_scenario(path)
        d1 = scenario_to_dict(s1)
        s2 = scenario_from_dict(d1, name=s1.name)
        d2 = scenario_to_dict(s2)
        assert d1 == d2

    def test_dump_and_reload(self, tmp_path):
        path = write(tmp_path, "s", geodesic_scenario())
        s1 = load_scenario(path)
        out = tmp_path / "echo.json"
        dump_scenario(s1, out)
        s2 = load_scenario(out)
        assert np.allclose(s2.gamma0, s1.gamma0)
        assert s2.model_tier == s1.model_tier

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

    def test_killing_geodesic_is_degenerate(self, tmp_path, capsys):
        # preset killing has A + n B = 0: the geodesic tier refuses to run
        sc = geodesic_scenario(params={"preset": "killing"})
        path = write(tmp_path, "killing", sc)
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "gamma_geodesic" in err and "degenerate" in err.lower()


def _malformed(case: str, field: str, edit):
    sc = schrodinger_scenario()
    edit(sc)
    return pytest.param(sc, field, id=case)


@pytest.mark.parametrize("scenario, field", [
    _malformed("chi-size", "chi", lambda sc: sc.update(chi=mat(np.eye(3)))),
    _malformed("chi-nonsquare", "chi", lambda sc: sc.update(
        chi=[[pair(1.0), pair(0.0), pair(0.0)]] * 2)),
    _malformed("chi-diag-size", "chi", lambda sc: sc.update(chi="diag:[1, 2, 3]")),
    _malformed("gamma0-ragged", "gamma0", lambda sc: sc["initial"].update(
        gamma0=[[pair(1.0), pair(0.0)], [pair(1.0)]])),
    _malformed("gamma_dot0-size", "gamma_dot0", lambda sc: sc["initial"].update(
        gamma_dot0=mat(np.eye(3)))),
    _malformed("gamma_tilde-size", "gamma_tilde", lambda sc: sc.update(
        gamma_tilde=mat(np.eye(3)))),
    _malformed("generator-size", "generators[1]", lambda sc: sc.update(
        generators=[mat(np.eye(2)), mat(np.eye(3))])),
    _malformed("canonical_frozen", "canonical_frozen", lambda sc: sc.update(
        model_tier="canonical_frozen")),
])
def test_malformed_scenario_exit_2(tmp_path, capsys, scenario, field):
    # refused at load time with a ScenarioError that names the field
    path = write(tmp_path, "malformed", scenario)
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ScenarioError: ") and field in err
    assert err.count("ScenarioError") == 1
    assert not (tmp_path / "malformed_trajectory.csv").exists()


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


@pytest.mark.parametrize("kappa", [0.0, 0.05])
@pytest.mark.parametrize("tier", [t for t, blocks in STEPPED_BLOCKS.items()
                                  if "pi" not in blocks])
def test_check_asserts_charges_on_gamma_tiers_and_theta1_on_frozen_ones(tmp_path, tier,
                                                                        kappa):
    # alpha5 = 0 everywhere, so only the tier decides whether charges are
    # asserted; theta1 is asserted only on a frozen gamma without a potential
    alpha2 = 0.3 if tier in ("second_order", "full") else 0.0
    sc = {
        "model_tier": tier,
        "params": {"alpha1": 0.4, "alpha2": alpha2, "alpha4": 0.2, "alpha6": 0.9,
                   "alpha7": 0.25, "kappa": kappa},
        "initial": {"psi0": vec([0.5, 0.3j]), "gamma0": mat(np.eye(2)),
                    "gamma_dot0": mat(np.array([[0.05, 0.01], [0.01, -0.02]]))},
        "integrator": {"dt": 1e-2, "t_end": 0.05},
        "seed": 5,
    }
    path = write(tmp_path, "split", sc)
    main(["check", "--scenario", str(path), "--out", str(tmp_path)])
    verdicts = {v["check"]: v for v in
                json.loads((tmp_path / "split_check.json").read_text())["verdicts"]}
    steps_gamma = tier in ("gamma_geodesic", "full", "modified_first_order")
    assert ("charge_drift" in verdicts) == steps_gamma
    assert (verdicts["theta1_drift"]["tol"] is not None) == (not steps_gamma and kappa == 0.0)


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

    def test_wrong_tier_rejected(self, tmp_path):
        sc = geodesic_scenario()
        path = write(tmp_path, "geo", sc)
        assert main(["reduce", "--scenario", str(path), "--out", str(tmp_path)]) == 2


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

    def test_no_oracle_for_full_tier(self, tmp_path, capsys):
        sc = {
            "model_tier": "full",
            "params": {"alpha1": 0.4, "alpha2": 0.3, "alpha6": 0.9, "alpha7": 0.25},
            "initial": {"psi0": vec([0.5, 0.1]), "gamma0": mat(np.eye(2))},
            "integrator": {"dt": 1e-2, "t_end": 0.1},
        }
        path = write(tmp_path, "full", sc)
        assert main(["oracle", "--scenario", str(path), "--out", str(tmp_path)]) == 2
        assert "NoOracleForTier" in capsys.readouterr().err


class TestCharges:
    def test_charges_outputs(self, tmp_path, capsys):
        sc = schrodinger_scenario(outputs=["trajectory", "charges"])
        path = write(tmp_path, "chg", sc)
        assert main(["charges", "--scenario", str(path), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "chg_charges.jsonl").read_text().splitlines()
        assert lines and "charges" in json.loads(lines[0])
        summary = json.loads((tmp_path / "chg_charge_summary.json").read_text())
        assert "charges" in summary
