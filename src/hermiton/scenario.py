"""Scenario files: JSON descriptions of a simulation run.

Complex numbers are encoded as two-element [re, im] arrays, vectors as
lists of such pairs and matrices as n x n nested lists of pairs.  All
referenced matrices are validated (hermiticity, invertibility) at load
time, before anything runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import HermitonError, ScenarioError
from .hermitian_algebra import hermitian_form
from .integrate import MODEL_TIERS, STEPPED_BLOCKS, IntegratorConfig
from .models import ModelParams, PotentialSpec, preset

__all__ = ["Scenario", "load_scenario", "scenario_to_dict", "dump_scenario"]

_PARAM_KEYS = ("alpha1", "alpha2", "alpha3", "alpha4", "alpha5",
               "alpha6", "alpha7", "alpha8", "alpha9", "kappa", "hbar")
_OUTPUT_KINDS = ("trajectory", "diagnostics", "charges")


def encode_complex(z: complex) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def decode_complex(pair) -> complex:
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
        raise ScenarioError(f"complex numbers are [re, im] pairs, got {pair!r}")
    return complex(float(pair[0]), float(pair[1]))


def encode_vector(v) -> list:
    return [encode_complex(z) for z in np.asarray(v, dtype=complex)]


def decode_vector(data) -> np.ndarray:
    return np.array([decode_complex(p) for p in data], dtype=complex)


def encode_matrix(m) -> list:
    return [[encode_complex(z) for z in row] for row in np.asarray(m, dtype=complex)]


def decode_matrix(data) -> np.ndarray:
    return np.array([[decode_complex(p) for p in row] for row in data], dtype=complex)


def _square_matrix(data, n: int, name: str) -> np.ndarray:
    """Decode the n x n matrix literal of field ``name``; any other shape,
    or entries that are not [re, im] pairs, raise ScenarioError."""
    try:
        m = decode_matrix(data)
    except (HermitonError, TypeError, ValueError) as exc:
        raise ScenarioError(f"{name}: {exc}") from exc
    if m.shape != (n, n):
        raise ScenarioError(f"{name} must be a {n} x {n} matrix, got shape {m.shape}")
    return m


def _decode_chi(spec, n: int) -> np.ndarray:
    """chi is a matrix literal or a named generator like "diag:[1,2]"."""
    if spec is None:
        return np.zeros((n, n), dtype=complex)
    if isinstance(spec, str):
        if spec.startswith("diag:"):
            try:
                diag = np.asarray(json.loads(spec[len("diag:"):]), dtype=float)
            except (TypeError, ValueError) as exc:
                raise ScenarioError(f"chi: bad diag generator {spec!r}: {exc}") from exc
            if diag.shape != (n,):
                raise ScenarioError(f"chi: diag generator needs {n} entries, got {spec!r}")
            return np.diag(diag).astype(complex)
        raise ScenarioError(f"unknown chi generator {spec!r}")
    return _square_matrix(spec, n, "chi")


def _decode_params(data, n: int) -> ModelParams:
    data = dict(data or {})
    preset_name = data.pop("preset", None)
    potential_spec = data.pop("potential", None)
    forcing_spec = data.pop("forcing", None)
    tau = data.pop("tau", 1.0)

    base = {}
    if preset_name is not None:
        p = preset(preset_name, n=n, hbar=float(data.get("hbar", 1.0)), tau=float(tau))
        base = {k: getattr(p, k) for k in _PARAM_KEYS}
    for key in list(data):
        if key not in _PARAM_KEYS:
            raise ScenarioError(f"unknown params key {key!r}")
        base[key] = float(data.pop(key))

    if potential_spec is not None:
        kind = potential_spec.get("kind", "none")
        if kind == "custom":
            raise ScenarioError("custom potentials are not expressible in scenarios")
        base["potential"] = PotentialSpec(
            kind=kind,
            kappa=float(potential_spec.get("kappa", 0.0)),
            shift=float(potential_spec.get("shift", 0.0)))

    if forcing_spec is not None:
        vector = decode_vector(forcing_spec.get("vector", []))
        if vector.size != n:
            raise ScenarioError("forcing vector has wrong length")
        kind = forcing_spec.get("kind", "constant")
        if kind == "constant":
            base["forcing"] = lambda t, v=vector: v
        elif kind == "harmonic":
            omega = float(forcing_spec.get("omega", 1.0))
            base["forcing"] = lambda t, v=vector, w=omega: v * np.cos(w * t)
        else:
            raise ScenarioError(f"unknown forcing kind {kind!r}")

    try:
        return ModelParams(**base)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


@dataclass(frozen=True)
class Scenario:
    model_tier: str
    params: ModelParams
    chi: np.ndarray
    psi0: np.ndarray
    psi_dot0: np.ndarray
    gamma0: np.ndarray
    gamma_dot0: np.ndarray
    integrator: IntegratorConfig
    outputs: tuple = ("trajectory", "diagnostics")
    seed: int = 0
    gamma_tilde: Optional[np.ndarray] = None
    generators: tuple = ()
    request_chart: bool = False
    inject_sign_error: bool = False
    name: str = "scenario"
    raw: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.psi0.size


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    return scenario_from_dict(raw, name=path.stem)


def scenario_from_dict(raw: dict, name: str = "scenario") -> Scenario:
    try:
        tier = raw["model_tier"]
    except KeyError as exc:
        raise ScenarioError("scenario needs model_tier") from exc
    if tier not in MODEL_TIERS:
        raise ScenarioError(f"unknown model tier {tier!r}")
    if "pi" in STEPPED_BLOCKS[tier]:
        raise ScenarioError(f"model tier {tier!r} steps the momentum pi, "
                            "which a scenario file has no field for")

    initial = raw.get("initial", {})
    if "psi0" in initial:
        psi0 = decode_vector(initial["psi0"])
        n = psi0.size
    elif "gamma0" in initial:
        n = len(initial["gamma0"])
        psi0 = np.zeros(n, dtype=complex)
    else:
        raise ScenarioError("initial data needs psi0 or gamma0")
    psi_dot0 = (decode_vector(initial["psi_dot0"])
                if "psi_dot0" in initial else np.zeros(n, dtype=complex))
    if psi_dot0.size != n:
        raise ScenarioError(f"psi_dot0 needs {n} entries, got {psi_dot0.size}")
    gamma0_raw = (_square_matrix(initial["gamma0"], n, "gamma0")
                  if "gamma0" in initial else np.eye(n, dtype=complex))
    gamma_dot0_raw = (_square_matrix(initial["gamma_dot0"], n, "gamma_dot0")
                      if "gamma_dot0" in initial else np.zeros((n, n), dtype=complex))
    chi = _decode_chi(raw.get("chi"), n)
    try:
        gamma0 = hermitian_form(gamma0_raw)
        gamma_dot0 = hermitian_form(gamma_dot0_raw, require_invertible=False)
        if np.linalg.norm(chi):
            chi = hermitian_form(chi, require_invertible=False)
    except HermitonError as exc:
        raise ScenarioError(f"{type(exc).__name__}: {exc}") from exc

    params = _decode_params(raw.get("params"), n)

    integ = dict(raw.get("integrator", {}))
    try:
        cfg = IntegratorConfig(
            dt=float(integ.get("dt", 1e-3)),
            t_end=float(integ.get("t_end", 1.0)),
            t_start=float(integ.get("t_start", 0.0)),
            method=integ.get("method", "rk4"),
            rel_tol=float(integ.get("rel_tol", 1e-8)),
            abs_tol=float(integ.get("abs_tol", 1e-10)),
            resymmetrize_gamma=bool(integ.get("resymmetrize_gamma", False)),
            sample_stride=int(integ.get("sample_stride", 1)),
        )
    except ValueError as exc:
        raise ScenarioError(f"bad integrator config: {exc}") from exc

    outputs = tuple(raw.get("outputs", ["trajectory", "diagnostics"]))
    for out in outputs:
        if out not in _OUTPUT_KINDS:
            raise ScenarioError(f"unknown output kind {out!r}")

    gamma_tilde = None
    if raw.get("gamma_tilde") is not None:
        gamma_tilde_raw = _square_matrix(raw["gamma_tilde"], n, "gamma_tilde")
        try:
            gamma_tilde = hermitian_form(gamma_tilde_raw)
        except HermitonError as exc:
            raise ScenarioError(f"gamma_tilde: {exc}") from exc

    generators = tuple(
        (g.get("label", f"gen{i}"), _square_matrix(g.get("matrix"), n, f"generators[{i}]"))
        if isinstance(g, dict) else (f"gen{i}", _square_matrix(g, n, f"generators[{i}]"))
        for i, g in enumerate(raw.get("generators", [])))

    return Scenario(
        model_tier=tier, params=params, chi=chi, psi0=psi0, psi_dot0=psi_dot0,
        gamma0=gamma0, gamma_dot0=gamma_dot0, integrator=cfg, outputs=outputs,
        seed=int(raw.get("seed", 0)), gamma_tilde=gamma_tilde,
        generators=generators, request_chart=bool(raw.get("request_chart", False)),
        inject_sign_error=bool(raw.get("inject_sign_error", False)),
        name=name, raw=raw)


def scenario_to_dict(s: Scenario) -> dict:
    """Canonical serialized form; parse -> serialize -> parse is identity."""
    out = {
        "model_tier": s.model_tier,
        "params": {k: float(np.real(getattr(s.params, k))) for k in _PARAM_KEYS},
        "chi": encode_matrix(s.chi),
        "initial": {
            "psi0": encode_vector(s.psi0),
            "psi_dot0": encode_vector(s.psi_dot0),
            "gamma0": encode_matrix(s.gamma0),
            "gamma_dot0": encode_matrix(s.gamma_dot0),
        },
        "integrator": {
            "method": s.integrator.method,
            "dt": s.integrator.dt,
            "t_end": s.integrator.t_end,
            "t_start": s.integrator.t_start,
            "rel_tol": s.integrator.rel_tol,
            "abs_tol": s.integrator.abs_tol,
            "resymmetrize_gamma": s.integrator.resymmetrize_gamma,
            "sample_stride": s.integrator.sample_stride,
        },
        "outputs": list(s.outputs),
        "seed": s.seed,
        "request_chart": s.request_chart,
        "inject_sign_error": s.inject_sign_error,
    }
    if s.params.potential.kind != "none":
        out["params"]["potential"] = {
            "kind": s.params.potential.kind,
            "kappa": s.params.potential.kappa,
            "shift": s.params.potential.shift,
        }
        out["params"].pop("kappa", None)
    if "forcing" in s.raw.get("params", {}):
        out["params"]["forcing"] = s.raw["params"]["forcing"]
    if s.gamma_tilde is not None:
        out["gamma_tilde"] = encode_matrix(s.gamma_tilde)
    if s.generators:
        out["generators"] = [
            {"label": label, "matrix": encode_matrix(m)} for label, m in s.generators]
    return out


def dump_scenario(s: Scenario, path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(s), indent=2, sort_keys=True))
