"""Batch command-line front-end.

Commands: ``simulate``, ``check``, ``reduce``, ``oracle``, ``charges``.
Common flags: ``--scenario <path>`` (repeatable for simulate) and
``--out <dir>``; ``check`` also takes ``--seed <n>`` (n >= 0), which
overrides the scenario seed of its randomized checks.  Verbosity is
controlled by the ``HERMITON_LOG`` environment variable (error, info,
debug).

Exit codes: 0 success, 2 validation failure (bad scenario, non-Hermitian
matrices, degenerate kinetic operators, missing oracle), 3 step failure
mid-run, 1 for a completed check run with failing verdicts.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import canonical, diagnostics, dynamics, oracles
from .errors import HermitonError, NoOracleForTier, ScenarioError, StepFailure
from .hermitian_algebra import hermitian_basis, hermiticity_drift
from .integrate import STEPPED_BLOCKS, Trajectory, integrate
from .models import FullState
from .scenario import Scenario, encode_pairs, load_scenario

log = logging.getLogger("hermiton")

_FLOAT_FMT = "%.17g"
#: the velocity-linear tiers on a frozen Gamma, the ones ``reduce`` applies to
_PSI_ONLY_TIERS = tuple(t for t, blocks in STEPPED_BLOCKS.items() if blocks == ("psi",))


def _initial_state(s: Scenario) -> FullState:
    return FullState(psi=s.psi0, psi_dot=s.psi_dot0, gamma=s.gamma0,
                     gamma_dot=s.gamma_dot0, t=s.integrator.t_start)


def _run_trajectory(s: Scenario) -> Trajectory:
    return integrate(_initial_state(s), s.model_tier, s.integrator, s.params,
                     s.chi, gamma_tilde=s.gamma_tilde)


def _write_csv(path: Path, header: list, table: np.ndarray) -> None:
    """The header line, then one line per row of the (S, C) float table,
    every entry as %.17g."""
    template = ", ".join([_FLOAT_FMT] * len(header))
    path.write_text("\n".join([", ".join(header), *(template % tuple(row)
                                                   for row in table.tolist())]) + "\n")


def _trajectory_csv(traj: Trajectory, path: Path) -> None:
    # psi and G in their real view: Re and Im of each entry side by side
    n = traj.states[0].n
    labels = ([f"psi_{a + 1}" for a in range(n)]
              + [f"G_{a + 1}{b + 1}" for a in range(n) for b in range(n)])
    cols = ["t", *(f"{part}({label})" for label in labels for part in ("Re", "Im")),
            "energy", "theta1", "herm_drift"]
    entries = np.concatenate([np.array([s.psi for s in traj.states], dtype=complex),
                              np.array([s.gamma for s in traj.states],
                                       dtype=complex).reshape(-1, n * n)], axis=1)
    diags = [[d["energy"], d["theta1"], d["herm_drift"]] for d in traj.diagnostics]
    _write_csv(path, cols, np.column_stack([traj.times, entries.view(float), diags]))


def _diagnostics_jsonl(traj: Trajectory, path: Path) -> None:
    with path.open("w") as fh:
        for diag in traj.diagnostics:
            fh.write(json.dumps(diag, sort_keys=True) + "\n")


def _generators(s: Scenario) -> list:
    """The scenario's charge generators; by default H<i> = b and A<i> = i b
    for each matrix b of the Hermitian basis."""
    if s.generators:
        return list(s.generators)
    return [gen for i, b in enumerate(hermitian_basis(s.n))
            for gen in ((f"H{i}", b), (f"A{i}", 1j * b))]


def _write_report(path: Path, report: dict) -> str:
    """Write the JSON text of a report to ``path`` and return that text."""
    text = json.dumps(report, indent=2, sort_keys=True)
    path.write_text(text)
    return text


def _charges_jsonl(traj: Trajectory, s: Scenario, out_dir: Path) -> str:
    """Write ``<name>_charges.jsonl`` and ``<name>_charge_summary.json``;
    returns the summary's JSON text."""
    reports = diagnostics.monitor(traj, s.params, s.chi, gamma0=s.gamma0,
                                  generators=_generators(s))
    with (out_dir / f"{s.name}_charges.jsonl").open("w") as fh:
        for rep in reports:
            fh.write(json.dumps({
                "t": rep.t,
                "energy": rep.energy,
                "theta1": rep.theta1,
                "herm_drift": rep.hermiticity_drift,
                "charges": {label: value for label, value in rep.charges},
            }, sort_keys=True) + "\n")
    return _write_report(out_dir / f"{s.name}_charge_summary.json",
                         diagnostics.drift_summary(reports))


def cmd_simulate(s: Scenario, out_dir: Path) -> int:
    traj = _run_trajectory(s)
    if "trajectory" in s.outputs:
        _trajectory_csv(traj, out_dir / f"{s.name}_trajectory.csv")
    if "diagnostics" in s.outputs:
        _diagnostics_jsonl(traj, out_dir / f"{s.name}_diagnostics.jsonl")
    if "charges" in s.outputs:
        _charges_jsonl(traj, s, out_dir)
    log.info("simulate %s: %d samples to t=%g", s.name, traj.times.size, traj.times[-1])
    return 0


def _check_verdicts(s: Scenario, rng: np.random.Generator) -> list[dict]:
    verdicts = []

    def add(name, value, tol):       # tol None: recorded, not asserted
        verdicts.append({"check": name, "value": float(value),
                         "tol": None if tol is None else float(tol),
                         "passed": None if tol is None else bool(value <= tol)})

    traj = _run_trajectory(s)
    conserved = diagnostics.conserved_quantities(s.model_tier, s.params, s.chi,
                                                 s.gamma_tilde)
    add("energy_drift", diagnostics.rel_drift(traj.series("energy")), conserved.get("energy"))
    add("theta1_drift", diagnostics.rel_drift(traj.series("theta1")), conserved.get("theta1"))
    add("hermiticity_drift", float(max(d["herm_drift"] for d in traj.diagnostics)), 1e-8)

    if "gamma" in STEPPED_BLOCKS[s.model_tier]:
        summary = diagnostics.drift_summary(
            diagnostics.monitor(traj, s.params, s.chi, s.gamma0, _generators(s)))
        worst = max(summary["charges"].values()) if summary["charges"] else 0.0
        add("charge_drift", worst, conserved.get("charges"))

    if s.params.alpha2 != 0.0 and s.model_tier == "full":
        state = _initial_state(s)
        point = canonical.legendre_regular(state, s.params)
        psid, gd = canonical.legendre_inverse(point, s.params)
        err = max(float(np.max(np.abs(psid - state.psi_dot))),
                  float(np.max(np.abs(gd - state.gamma_dot))))
        add("legendre_round_trip", err, 1e-10)

    # analytic residual against the discretized-action gradient
    times, psis, gammas, derivs = _smooth_path_near(s, rng)
    node = times.size // 2
    path = oracles.DiscretizedPath(times=times, psis=psis, gammas=gammas)
    fd_psi = oracles.action_gradient_fd(path, s.params, s.chi, "psi", node)
    fd_gamma = oracles.action_gradient_fd(path, s.params, s.chi, "gamma", node)
    state = FullState(psi=psis[node], psi_dot=derivs["psi_dot"][node],
                      gamma=gammas[node], gamma_dot=derivs["gamma_dot"][node],
                      t=float(times[node]))
    res = dynamics.el_residual(
        state, (derivs["psi_ddot"][node], derivs["gamma_ddot"][node]),
        s.params, s.chi)
    sign = -1.0 if s.inject_sign_error else 1.0
    # relative with no absolute floor (the guard of hermiticity_drift), so
    # the verdict is the same for the model s L at any scale s
    scale_r = max(float(np.max(np.abs(fd_psi))), float(np.max(np.abs(fd_gamma))), 1e-300)
    err = max(float(np.max(np.abs(sign * res.r_psi - fd_psi))),
              float(np.max(np.abs(sign * res.r_gamma - fd_gamma)))) / scale_r
    add("el_vs_action_gradient", err, 1e-4)
    return verdicts


def _smooth_path_near(s: Scenario, rng: np.random.Generator):
    """Smooth synthetic path through the scenario's initial data, with
    analytic derivatives, for the residual-vs-action check."""
    n = s.n
    m = 41
    dt = 2e-3
    times = s.integrator.t_start + dt * np.arange(m)
    freq_psi = rng.uniform(0.5, 1.5, size=n)
    amp = 0.05
    herm = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    herm = amp * (herm + herm.conj().T) / 2.0
    psi0 = s.psi0 if np.linalg.norm(s.psi0) else np.ones(n, dtype=complex)

    def psi_fn(t):
        return psi0 * (1.0 + amp * np.sin(freq_psi * t))

    def psi_dot_fn(t):
        return psi0 * amp * freq_psi * np.cos(freq_psi * t)

    def psi_ddot_fn(t):
        return -psi0 * amp * freq_psi ** 2 * np.sin(freq_psi * t)

    def gamma_fn(t):
        return s.gamma0 + herm * np.sin(t)

    psis = np.stack([psi_fn(t) for t in times])
    gammas = np.stack([gamma_fn(t) for t in times])
    derivs = {
        "psi_dot": np.stack([psi_dot_fn(t) for t in times]),
        "psi_ddot": np.stack([psi_ddot_fn(t) for t in times]),
        "gamma_dot": np.stack([herm * np.cos(t) for t in times]),
        "gamma_ddot": np.stack([-herm * np.sin(t) for t in times]),
    }
    return times, psis, gammas, derivs


def cmd_check(s: Scenario, out_dir: Path, seed: int | None) -> int:
    rng = np.random.default_rng(s.seed if seed is None else seed)
    verdicts = _check_verdicts(s, rng)
    report = {"scenario": s.name, "verdicts": verdicts,
              "all_passed": all(v["passed"] is not False for v in verdicts)}
    print(_write_report(out_dir / f"{s.name}_check.json", report))
    return 0 if report["all_passed"] else 1


def cmd_reduce(s: Scenario, out_dir: Path) -> int:
    if s.model_tier not in _PSI_ONLY_TIERS:
        raise ScenarioError(f"reduce applies to the {'/'.join(_PSI_ONLY_TIERS)} tiers, "
                            f"not {s.model_tier}")
    chart = canonical.darboux_reduce(s.gamma0, s.chi, s.params,
                                     require_chart=s.request_chart)
    lam = dynamics.rhs_direct_nonlinear_raw(s.psi0, s.gamma0, s.params, s.chi,
                                            s.integrator.t_start)

    def real_mat(m):
        return None if m is None else np.asarray(m, dtype=float).tolist()

    report = {
        "scenario": s.name,
        "alpha": chart.alpha,
        "S": real_mat(chart.S),
        "A": real_mat(chart.A),
        "sigma": real_mat(chart.sigma),
        "alpha_mat": real_mat(chart.alpha_mat),
        "form_xy": real_mat(chart.form_xy),
        "form_xx": real_mat(chart.form_xx),
        "form_yy": real_mat(chart.form_yy),
        "ham_xx": real_mat(chart.ham_xx),
        "ham_yy": real_mat(chart.ham_yy),
        "ham_xy": real_mat(chart.ham_xy),
        "legendre_ux": real_mat(chart.legendre_ux),
        "legendre_uy": real_mat(chart.legendre_uy),
        "legendre_vx": real_mat(chart.legendre_vx),
        "legendre_vy": real_mat(chart.legendre_vy),
        "canonical": chart.canonical,
        "chart": None if chart.chart_matrix is None else encode_pairs(chart.chart_matrix),
        "chart_refused": chart.chart_matrix is None,
        "multipliers": encode_pairs(lam),
    }
    print(_write_report(out_dir / f"{s.name}_reduce.json", report))
    return 0


def _exact_solution(s: Scenario):
    """(labels, the compared block of a state, the exact block at elapsed
    time t) of the scenario's exact solution; NoOracleForTier when it has
    none.  The Schrodinger solution covers only the plain flow
    2i alpha1 Gamma psid = -alpha5 chi psi: alpha1 and alpha5 nonzero, no
    alpha4, potential or forcing."""
    n = s.n
    # both solves take gamma0, which passed the condition test at load
    if s.model_tier == "gamma_geodesic":
        sol = oracles.GammaExponentialSolution(
            G=s.gamma0, E=np.linalg.solve(s.gamma0, s.gamma_dot0))
        labels = [f"G_{a + 1}{b + 1}" for a in range(n) for b in range(n)]
        return labels, lambda state: state.gamma, lambda t: oracles.exact_gamma(sol, t)
    if s.model_tier == "schrodinger":
        p = s.params
        uncovered = [name for name, present in (
            ("alpha1 = 0", p.alpha1 == 0.0),
            ("alpha5 = 0", p.alpha5 == 0.0),
            ("alpha4 != 0", p.alpha4 != 0.0),
            ("a potential", p.effective_potential.kind != "none"),
            ("forcing", p.forcing is not None)) if present]
        if uncovered:
            raise NoOracleForTier("the exact Schrodinger solution does not cover "
                                  f"{', '.join(uncovered)}")
        h = np.linalg.solve(s.gamma0, np.asarray(s.chi, dtype=complex))
        hbar_eff = 2.0 * p.alpha1 / -p.alpha5
        return ([f"abs_psi_{a + 1}" for a in range(n)], lambda state: state.psi,
                lambda t: oracles.exact_schrodinger(s.psi0, h, hbar_eff, t))
    raise NoOracleForTier(f"no exact solution for tier {s.model_tier!r}")


def cmd_oracle(s: Scenario, out_dir: Path) -> int:
    labels, numerical, exact_at = _exact_solution(s)
    traj = _run_trajectory(s)
    header = ["t", *(f"{kind}_{label}" for label in labels for kind in ("num", "exact")),
              "deviation"]
    rows = []
    for t, state in zip(traj.times, traj.states):
        num = numerical(state)
        exact = exact_at(float(t) - float(traj.times[0]))
        # abs of each scalar: np.abs of the array rounds some moduli apart
        rows.append([t, *(abs(z) for pair in zip(num.ravel(), exact.ravel()) for z in pair),
                     np.max(np.abs(num - exact))])
    table = np.array(rows)
    _write_csv(out_dir / f"{s.name}_oracle.csv", header, table)
    print(f"max deviation vs exact solution: {table[:, -1].max():.3e}")
    return 0


def cmd_charges(s: Scenario, out_dir: Path) -> int:
    traj = _run_trajectory(s)
    print(_charges_jsonl(traj, s, out_dir))
    return 0


def _configure_logging() -> None:
    level = os.environ.get("HERMITON_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level not in levels:
        level = "error"
    logging.basicConfig(level=levels[level], format="%(levelname)s %(name)s: %(message)s")


def non_negative_int(text: str) -> int:
    """A ``--seed`` value: an integer >= 0, as numpy's generators take."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _refuse_shared_names(paths, scenarios) -> None:
    """Refuse two scenarios of one ``simulate`` whose file stems, and so
    whose output names, are the same: the later run would overwrite the
    earlier one's files."""
    first = {}
    for path, s in zip(paths, scenarios):
        if s.name in first:
            raise ScenarioError(f"scenarios {first[s.name]} and {path} share the name "
                                f"{s.name!r}, so their outputs would overwrite each other")
        first[s.name] = path


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: a caller that runs main many times parses with
    # the same parser
    parser = argparse.ArgumentParser(
        prog="hermiton",
        description="Finite-level Schrodinger-type systems with a dynamical scalar product")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, multi_scenario=False):
        if multi_scenario:
            p.add_argument("--scenario", action="append", required=True,
                           help="scenario JSON file (repeatable)")
        else:
            p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--out", default=".", help="output directory")

    common(sub.add_parser("simulate", help="integrate a scenario and write outputs"),
           multi_scenario=True)
    check = sub.add_parser("check", help="run the invariant suite on a scenario")
    common(check)
    check.add_argument("--seed", type=non_negative_int, default=None,
                       help="override the scenario seed of the randomized checks")
    common(sub.add_parser("reduce", help="Darboux/Dirac reduction report"))
    common(sub.add_parser("oracle", help="compare against the exact solution"))
    common(sub.add_parser("charges", help="conserved-charge time series"))
    return parser


def main(argv=None) -> int:
    _configure_logging()
    args = _build_parser().parse_args(argv)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    try:
        if args.command == "simulate":
            scenarios = [load_scenario(p) for p in args.scenario]
            _refuse_shared_names(args.scenario, scenarios)
            for s in scenarios:
                cmd_simulate(s, out_dir)
            return 0
        s = load_scenario(args.scenario)
        if args.command == "check":
            return cmd_check(s, out_dir, args.seed)
        if args.command == "reduce":
            return cmd_reduce(s, out_dir)
        if args.command == "oracle":
            return cmd_oracle(s, out_dir)
        if args.command == "charges":
            return cmd_charges(s, out_dir)
        raise ScenarioError(f"unknown command {args.command}")
    except StepFailure as exc:
        print(f"StepFailure: {exc}", file=sys.stderr)
        return 3
    except HermitonError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
