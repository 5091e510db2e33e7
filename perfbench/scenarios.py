"""Seeded scenario files and the command sequence of each workload.

Every workload is a list of CLI commands over scenario files generated from
one seed.  Each command carries a correctness gate that reads what the
command wrote; the gates never look at timings.

Scalar products are drawn as I + H with H Hermitian and its spectrum scaled
into [-0.4, 0.4], so every Gamma has eigenvalues in [0.6, 1.4] and stays
well conditioned at every n this benchmark uses (n <= 8).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("ensemble", "dense_record", "verify", "wide_gamma")

MAX_N = 8
#: oracle: largest allowed |numerical - exact| over all samples
ORACLE_TOL = 1e-9
#: charges: largest allowed relative drift of every monitored invariant
DRIFT_TOL = 1e-6
#: largest allowed hermiticity drift in a charge summary
HERM_TOL = 1e-8


# -- scenario JSON encoding (complex numbers are [re, im] pairs) -------------

def _vec(v) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=complex)]


def _mat(m) -> list:
    return [_vec(row) for row in np.asarray(m, dtype=complex)]


def random_hermitian(rng, n: int, spectral_norm: float) -> np.ndarray:
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = (m + m.conj().T) / 2.0
    return h * (spectral_norm / np.max(np.abs(np.linalg.eigvalsh(h))))


def random_gamma(rng, n: int) -> np.ndarray:
    return np.eye(n) + random_hermitian(rng, n, 0.4)


def random_vector(rng, n: int, norm: float = 1.0) -> np.ndarray:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return norm * v / np.linalg.norm(v)


FULL_PARAMS = {"alpha1": 0.4, "alpha2": 0.3, "alpha3": 0.1, "alpha6": 0.9,
                "alpha7": 0.25, "alpha8": 0.1, "alpha9": 0.1, "kappa": 0.05}
MODIFIED_PARAMS = {"alpha1": 0.5, "alpha3": 0.1, "alpha5": -1.0, "alpha6": 1.0,
                    "alpha7": 0.2, "alpha8": 0.1, "alpha9": 0.1, "kappa": 0.05}
GEODESIC_PARAMS = {"alpha6": 1.0, "alpha7": 0.2}
SECOND_ORDER_PARAMS = {"alpha1": 0.5, "alpha2": 1.0, "alpha5": -1.0}


def scenario(tier: str, n: int, rng, integrator: dict,
             outputs=("trajectory",)) -> dict:
    """One scenario of ``tier`` at dimension ``n`` with random initial data;
    its own ``seed`` (used by ``check``) is drawn from ``rng`` too."""
    if not 1 <= n <= MAX_N:
        raise ValueError(f"n must lie in 1..{MAX_N}, got {n}")
    gamma0 = random_gamma(rng, n)
    chi = random_hermitian(rng, n, 1.0)
    sc = {"model_tier": tier, "integrator": dict(integrator),
          "outputs": list(outputs), "seed": int(rng.integers(2**31))}
    if tier == "schrodinger":
        sc["params"] = {"preset": "schrodinger"}
        sc["chi"] = _mat(chi)
        sc["initial"] = {"psi0": _vec(random_vector(rng, n)), "gamma0": _mat(gamma0)}
    elif tier == "direct_nonlinear":
        sc["params"] = {
            "preset": "schrodinger",
            "potential": {"kind": "quartic_shifted", "kappa": 0.1, "shift": 1.0},
            "forcing": {"kind": "harmonic", "omega": 1.3,
                        "vector": _vec(random_vector(rng, n, 0.1))}}
        sc["chi"] = _mat(chi)
        sc["initial"] = {"psi0": _vec(random_vector(rng, n)), "gamma0": _mat(gamma0)}
    elif tier == "second_order":
        sc["params"] = dict(SECOND_ORDER_PARAMS)
        sc["chi"] = _mat(chi)
        sc["gamma_tilde"] = _mat(random_gamma(rng, n))
        sc["initial"] = {"psi0": _vec(random_vector(rng, n)),
                         "psi_dot0": _vec(random_vector(rng, n, 0.2)),
                         "gamma0": _mat(gamma0)}
    elif tier == "gamma_geodesic":
        sc["params"] = dict(GEODESIC_PARAMS)
        sc["initial"] = {"gamma0": _mat(gamma0),
                         "gamma_dot0": _mat(random_hermitian(rng, n, 0.2))}
    elif tier == "full":
        # alpha5 = 0 and no forcing: energy and every linear-group charge
        # are conserved, so the charge gate and check's verdicts all apply
        sc["params"] = dict(FULL_PARAMS)
        sc["initial"] = {"psi0": _vec(random_vector(rng, n, 0.6)),
                         "psi_dot0": _vec(random_vector(rng, n, 0.1)),
                         "gamma0": _mat(gamma0),
                         "gamma_dot0": _mat(random_hermitian(rng, n, 0.05))}
    elif tier == "modified_first_order":
        sc["params"] = dict(MODIFIED_PARAMS)
        sc["chi"] = _mat(chi)
        sc["initial"] = {"psi0": _vec(random_vector(rng, n, 0.6)),
                         "gamma0": _mat(gamma0),
                         "gamma_dot0": _mat(random_hermitian(rng, n, 0.05))}
    else:
        raise ValueError(f"no generator for tier {tier!r}")
    return sc


# -- correctness gates --------------------------------------------------------

#: a gate reads a command's output directory, exit code and captured stdout
#: and returns a list of problems (empty when the command is correct)
Gate = Callable[[Path, int, str], list]


def _exit_ok(out: Path, code: int, stdout: str) -> list:
    return [] if code == 0 else [f"exit code {code}"]


def _files_present(*names: str) -> Gate:
    def gate(out: Path, code: int, stdout: str) -> list:
        problems = _exit_ok(out, code, stdout)
        problems += [f"missing {nm}" for nm in names
                     if not (out / nm).is_file() or (out / nm).stat().st_size == 0]
        return problems
    return gate


def _check_passed(name: str) -> Gate:
    def gate(out: Path, code: int, stdout: str) -> list:
        problems = _exit_ok(out, code, stdout)
        path = out / f"{name}_check.json"
        if not path.is_file():
            return problems + [f"missing {path.name}"]
        report = json.loads(path.read_text())
        if not report["all_passed"]:
            failed = [v["check"] for v in report["verdicts"] if v["passed"] is False]
            problems.append(f"check {name} failed: {failed}")
        return problems
    return gate


def _oracle_within(name: str) -> Gate:
    def gate(out: Path, code: int, stdout: str) -> list:
        problems = _exit_ok(out, code, stdout)
        path = out / f"{name}_oracle.csv"
        if not path.is_file():
            return problems + [f"missing {path.name}"]
        with path.open() as fh:
            rows = list(csv.reader(fh, skipinitialspace=True))
        worst = max(float(r[-1]) for r in rows[1:])
        if not worst <= ORACLE_TOL:
            problems.append(f"oracle {name} deviation {worst:.3e} > {ORACLE_TOL:.0e}")
        return problems
    return gate


def _drifts_within(name: str, keys) -> Gate:
    """Problems with ``<name>_charge_summary.json``: each listed relative
    drift and every charge drift (when ``charges`` is listed) must stay
    under DRIFT_TOL, the hermiticity drift under HERM_TOL."""
    def gate(out: Path, code: int, stdout: str) -> list:
        path = out / f"{name}_charge_summary.json"
        if not path.is_file():
            return [f"missing {path.name}"]
        summary = json.loads(path.read_text())
        drifts = {k: summary[k] for k in keys if k != "charges"}
        if "charges" in keys:
            drifts.update({f"charge {k}": v for k, v in summary["charges"].items()})
        problems = [f"{name} {k} drift {v:.3e} > {DRIFT_TOL:.0e}"
                    for k, v in drifts.items() if not v <= DRIFT_TOL]
        if not summary["max_herm_drift"] <= HERM_TOL:
            problems.append(f"{name} hermiticity drift {summary['max_herm_drift']:.3e}")
        return problems
    return gate


def _all(*gates: Gate) -> Gate:
    def gate(out: Path, code: int, stdout: str) -> list:
        return [p for g in gates for p in g(out, code, stdout)]
    return gate


# -- workloads ----------------------------------------------------------------

@dataclass(frozen=True)
class Command:
    """One CLI invocation (without ``--out``) and the gate on its outputs."""

    argv: tuple
    gate: Gate


def _write(scen_dir: Path, name: str, sc: dict) -> str:
    path = scen_dir / f"{name}.json"
    path.write_text(json.dumps(sc, indent=1, sort_keys=True))
    return str(path)


_METHODS = ("rk4", "rk45_adaptive", "implicit_midpoint")
_ENSEMBLE_TIERS = ("schrodinger", "direct_nonlinear", "second_order",
                   "gamma_geodesic", "full", "modified_first_order")


def _ensemble(rng, scen_dir: Path) -> list:
    # every CLI-reachable tier at n = 1, 2, 4; each tier runs each of the
    # three methods once, at a different n
    argv = ["simulate"]
    expected = []
    for i, tier in enumerate(_ENSEMBLE_TIERS):
        for j, n in enumerate((1, 2, 4)):
            method = _METHODS[(i + j) % 3]
            integ = {"method": method, "dt": 0.01, "t_end": 0.6,
                     "sample_stride": 20, "rel_tol": 1e-7, "abs_tol": 1e-9}
            name = f"ens_{tier}_n{n}_{method}"
            argv += ["--scenario", _write(scen_dir, name,
                                          scenario(tier, n, rng, integ))]
            expected.append(f"{name}_trajectory.csv")
    return [Command(tuple(argv), _files_present(*expected))]


def _dense_record(rng, scen_dir: Path) -> list:
    integ = {"method": "rk4", "dt": 0.005, "t_end": 0.5, "sample_stride": 1}
    outputs = ("trajectory", "diagnostics", "charges")
    sch = _write(scen_dir, "dense_schrodinger_n4",
                 scenario("schrodinger", 4, rng, integ, outputs))
    full = _write(scen_dir, "dense_full_n2",
                  scenario("full", 2, rng, integ, outputs))
    files = [f"{nm}_{kind}" for nm in ("dense_schrodinger_n4", "dense_full_n2")
             for kind in ("trajectory.csv", "diagnostics.jsonl", "charges.jsonl")]
    simulate = _all(_files_present(*files),
                    _drifts_within("dense_schrodinger_n4", ("energy", "theta1")),
                    _drifts_within("dense_full_n2", ("energy", "charges")))
    charges = _all(_exit_ok, _drifts_within("dense_full_n2", ("energy", "charges")))
    return [Command(("simulate", "--scenario", sch, "--scenario", full), simulate),
            Command(("charges", "--scenario", full), charges)]


def _verify(rng, scen_dir: Path) -> list:
    cmds = []
    check_integ = {"method": "rk4", "dt": 0.002, "t_end": 0.4, "sample_stride": 20}
    for tier, n in (("full", 2), ("schrodinger", 4), ("gamma_geodesic", 4)):
        name = f"check_{tier}_n{n}"
        path = _write(scen_dir, name, scenario(tier, n, rng, check_integ))
        cmds.append(Command(("check", "--scenario", path), _check_passed(name)))
    oracle_integ = {
        "schrodinger": {"method": "rk45_adaptive", "dt": 0.01, "t_end": 2.0,
                        "rel_tol": 1e-11, "abs_tol": 1e-13, "sample_stride": 5},
        "gamma_geodesic": {"method": "rk4", "dt": 0.002, "t_end": 1.0,
                           "sample_stride": 25},
    }
    for tier, integ in oracle_integ.items():
        name = f"oracle_{tier}_n4"
        path = _write(scen_dir, name, scenario(tier, 4, rng, integ))
        cmds.append(Command(("oracle", "--scenario", path), _oracle_within(name)))
    return cmds


def _wide_gamma(rng, scen_dir: Path) -> list:
    cmds = []
    for tier in ("full", "modified_first_order", "gamma_geodesic"):
        for structural in (False, True):
            integ = {"method": "rk4", "dt": 0.005, "t_end": 0.25,
                     "sample_stride": 25, "resymmetrize_gamma": structural}
            name = f"wide_{tier}_n{MAX_N}_{'real' if structural else 'complex'}"
            path = _write(scen_dir, name, scenario(tier, MAX_N, rng, integ))
            cmds.append(Command(("simulate", "--scenario", path),
                                _files_present(f"{name}_trajectory.csv")))
    return cmds


_GENERATORS = {"ensemble": _ensemble, "dense_record": _dense_record,
             "verify": _verify, "wide_gamma": _wide_gamma}


def build_workload(workload: str, seed: int, scen_dir: Path) -> list:
    """Write the workload's scenario files for ``seed`` into ``scen_dir``
    and return its command sequence."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    scen_dir.mkdir(parents=True, exist_ok=True)
    return _GENERATORS[workload](rng, scen_dir)
