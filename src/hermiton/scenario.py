"""Scenario files: JSON descriptions of a simulation run.

Complex arrays are encoded as their real view: every entry becomes an
[re, im] pair of numbers, so a vector is a list of pairs and an n x n matrix
n nested lists of n pairs.  Numbers, flags and array literals are checked
for their JSON type, and all referenced matrices are validated (hermiticity,
invertibility) at load time, before anything runs.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .diagnostics import _is_hermitian
from .errors import HermitonError, ScenarioError, WrongSymmetryClass
from .hermitian_algebra import hermitian_form
from .integrate import MODEL_TIERS, STEPPED_BLOCKS, IntegratorConfig
from .models import ModelParams, PotentialSpec, preset

__all__ = ["Scenario", "load_scenario"]

_PARAM_KEYS = ("alpha1", "alpha2", "alpha3", "alpha4", "alpha5",
               "alpha6", "alpha7", "alpha8", "alpha9", "kappa")
_OUTPUT_KINDS = ("trajectory", "diagnostics", "charges")
_TOP_KEYS = ("model_tier", "params", "chi", "initial", "integrator", "outputs", "seed",
             "gamma_tilde", "generators", "request_chart", "inject_sign_error")
_INITIAL_KEYS = ("psi0", "psi_dot0", "gamma0", "gamma_dot0")
_INTEGRATOR_KEYS = ("dt", "t_end", "t_start", "method", "rel_tol", "abs_tol",
                    "resymmetrize_gamma", "sample_stride")
_POTENTIAL_KEYS = {"none": ("kind",), "quartic_pure": ("kind", "kappa"),
                   "quartic_shifted": ("kind", "kappa", "shift")}
_FORCING_KEYS = {"constant": ("kind", "vector"), "harmonic": ("kind", "vector", "omega")}
_GENERATOR_KEYS = ("label", "matrix")


def _known_keys(block, allowed, where: str) -> dict:
    """``block``, a JSON object whose keys all lie in ``allowed``; anything
    else raises ScenarioError naming the first unknown key."""
    if not isinstance(block, dict):
        raise ScenarioError(f"{where} must be a JSON object, got {block!r}")
    unknown = [key for key in block if key not in allowed]
    if unknown:
        raise ScenarioError(f"unknown {where} key {unknown[0]!r}")
    return block


_JSON_TYPES = {float: ((int, float), "a number"), int: (int, "an integer"),
               bool: (bool, "true or false"), str: (str, "a string"),
               list: (list, "a JSON list"), dict: (dict, "a JSON object")}


def _typed(value, kind: type, name: str):
    """``value`` as a ``kind`` (float, int, bool, str, list or dict), read
    only from a JSON value of that type (any number for float); anything
    else raises ScenarioError naming the field."""
    accepted, what = _JSON_TYPES[kind]
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise ScenarioError(f"{name} must be {what}, got {value!r}")
    return kind(value)


def encode_pairs(z) -> list:
    """The [re, im] literal of a complex array: its real view, nested as
    the array is."""
    z = np.ascontiguousarray(z, dtype=complex)
    return z.view(float).reshape(*z.shape, 2).tolist()


def decode_pairs(data, shape: tuple, name: str) -> np.ndarray:
    """The complex array of field ``name`` from its [re, im] literal, whose
    entries must be finite number pairs in array shape ``shape``; a None
    length is any length >= 1.  Each entry has the bits of complex(re, im)."""
    try:
        pairs = np.array(data)
    except ValueError:           # ragged nesting
        pairs = np.array(None)
    want = (*shape, 2)
    if (pairs.dtype.kind not in "iuf" or pairs.ndim != len(want)
            or any(got == 0 if size is None else got != size
                   for got, size in zip(pairs.shape, want))):
        dims = ", ".join("m >= 1" if size is None else str(size) for size in want)
        raise ScenarioError(f"{name} must be [re, im] number pairs in an array of shape "
                            f"({dims}), got {reprlib.repr(data)}")
    if not np.isfinite(pairs).all():
        raise ScenarioError(f"{name} must have finite entries, got {reprlib.repr(data)}")
    return pairs.astype(float).view(complex)[..., 0]


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
            if not np.isfinite(diag).all():
                raise ScenarioError(f"chi: diag generator entries must be finite, got {spec!r}")
            return np.diag(diag).astype(complex)
        raise ScenarioError(f"unknown chi generator {spec!r}")
    return decode_pairs(spec, (n, n), "chi")


def _decode_params(data, n: int) -> ModelParams:
    data = _typed(data, dict, "scenario key 'params'")
    preset_name = data.pop("preset", None)
    potential_spec = data.pop("potential", None)
    forcing_spec = data.pop("forcing", None)
    # a settable value must be read: hbar by schrodinger and kozlov-heat, tau by kozlov-heat
    if "hbar" in data and preset_name is None:
        raise ScenarioError("params key 'hbar' is read only by a preset")
    if "tau" in data and preset_name != "kozlov-heat":
        raise ScenarioError("params key 'tau' is read only by the 'kozlov-heat' preset")
    reads_hbar = "hbar" in data
    hbar = _typed(data.pop("hbar", 1.0), float, "params key 'hbar'")
    tau = _typed(data.pop("tau", 1.0), float, "params key 'tau'")

    base = {}
    if preset_name is not None:
        try:
            p = preset(preset_name, n=n, hbar=hbar, tau=tau)
        except ValueError as exc:
            raise ScenarioError(f"preset {preset_name!r}: {exc}") from exc
        if reads_hbar and preset_name not in ("schrodinger", "kozlov-heat"):
            raise ScenarioError("params key 'hbar' is read only by the 'schrodinger' and "
                                f"'kozlov-heat' presets, not by {preset_name!r}")
        base = {k: getattr(p, k) for k in _PARAM_KEYS}
    for key in list(data):
        if key not in _PARAM_KEYS:
            raise ScenarioError(f"unknown params key {key!r}")
        base[key] = _typed(data.pop(key), float, f"params key {key!r}")

    if potential_spec is not None:
        kind = _typed(_known_keys(potential_spec, ("kind", "kappa", "shift"), "potential")
                      .get("kind", "none"), str, "potential key 'kind'")
        if kind == "custom":
            raise ScenarioError("custom potentials are not expressible in scenarios")
        if kind not in _POTENTIAL_KEYS:
            raise ScenarioError(f"unknown potential kind {kind!r}")
        _known_keys(potential_spec, _POTENTIAL_KEYS[kind], f"{kind} potential")
        try:
            base["potential"] = PotentialSpec(kind=kind, **{
                key: _typed(potential_spec.get(key, 0.0), float, f"potential key {key!r}")
                for key in ("kappa", "shift")})
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc

    if forcing_spec is not None:
        kind = _typed(_known_keys(forcing_spec, ("kind", "vector", "omega"), "forcing")
                      .get("kind", "constant"), str, "forcing key 'kind'")
        if kind not in _FORCING_KEYS:
            raise ScenarioError(f"unknown forcing kind {kind!r}")
        _known_keys(forcing_spec, _FORCING_KEYS[kind], f"{kind} forcing")
        vector = decode_pairs(forcing_spec.get("vector"), (n,), "forcing vector")
        if kind == "constant":
            base["forcing"] = lambda t, v=vector: v
        elif kind == "harmonic":
            omega = _typed(forcing_spec.get("omega", 1.0), float, "forcing key 'omega'")
            if not np.isfinite(omega):
                raise ScenarioError(f"forcing key 'omega' must be finite, got {omega}")
            base["forcing"] = lambda t, v=vector, w=omega: v * np.cos(w * t)

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
    _known_keys(raw, _TOP_KEYS, "scenario")
    try:
        tier = raw["model_tier"]
    except KeyError as exc:
        raise ScenarioError("scenario needs model_tier") from exc
    if tier not in MODEL_TIERS:
        raise ScenarioError(f"unknown model tier {tier!r}")

    initial = _known_keys(raw.get("initial", {}), _INITIAL_KEYS, "initial")
    # an initial velocity is read only by a tier that steps it
    for key, block in (("psi_dot0", "psi_dot"), ("gamma_dot0", "gamma_dot")):
        if key in initial and block not in STEPPED_BLOCKS[tier]:
            raise ScenarioError(f"initial key {key!r} is read only by a tier that steps "
                                f"{block}, not by {tier!r}")
    if "psi0" in initial:
        psi0 = decode_pairs(initial["psi0"], (None,), "psi0")
        n = psi0.size
    elif "gamma0" in initial:
        n = decode_pairs(initial["gamma0"], (None, None), "gamma0").shape[0]
        psi0 = np.zeros(n, dtype=complex)
    else:
        raise ScenarioError("initial data needs psi0 or gamma0")
    psi_dot0 = (decode_pairs(initial["psi_dot0"], (n,), "psi_dot0")
                if "psi_dot0" in initial else np.zeros(n, dtype=complex))
    gamma0_raw = (decode_pairs(initial["gamma0"], (n, n), "gamma0")
                  if "gamma0" in initial else np.eye(n, dtype=complex))
    gamma_dot0_raw = (decode_pairs(initial["gamma_dot0"], (n, n), "gamma_dot0")
                      if "gamma_dot0" in initial else np.zeros((n, n), dtype=complex))
    chi = _decode_chi(raw.get("chi"), n)
    try:
        gamma0 = hermitian_form(gamma0_raw)
        gamma_dot0 = hermitian_form(gamma_dot0_raw, require_invertible=False)
        chi = hermitian_form(chi, require_invertible=False)
    except HermitonError as exc:
        raise ScenarioError(f"{type(exc).__name__}: {exc}") from exc

    params = _decode_params(raw.get("params", {}), n)
    blocks = STEPPED_BLOCKS[tier]
    if "psi" in blocks and "psi_dot" not in blocks and params.alpha2 != 0.0:
        raise ScenarioError(f"params key 'alpha2' makes L second order in psi; the "
                            f"first-order tier {tier!r} needs alpha2 == 0")
    if "psi_dot" in blocks and params.alpha2 == 0.0:
        raise ScenarioError(f"params key 'alpha2' is 0; the second-order tier {tier!r} "
                            "solves for psi_ddot and needs alpha2 != 0")
    if raw.get("gamma_tilde") is not None and tier != "second_order":
        raise ScenarioError(f"gamma_tilde is read only by the 'second_order' tier, "
                            f"not by {tier!r}")

    integ = _known_keys(raw.get("integrator", {}), _INTEGRATOR_KEYS, "integrator")
    defaults = {"dt": 1e-3, "t_end": 1.0, "t_start": 0.0, "rel_tol": 1e-8, "abs_tol": 1e-10,
                "resymmetrize_gamma": False, "sample_stride": 1}
    try:
        cfg = IntegratorConfig(method=integ.get("method", "rk4"), **{
            key: _typed(integ.get(key, default), type(default), f"integrator key {key!r}")
            for key, default in defaults.items()})
    except ValueError as exc:
        raise ScenarioError(f"bad integrator config: {exc}") from exc
    if "resymmetrize_gamma" in integ and "gamma" not in blocks:
        raise ScenarioError(f"integrator key 'resymmetrize_gamma' is read only by a tier that "
                            f"steps gamma, not by {tier!r}")

    outputs = tuple(_typed(raw.get("outputs", ["trajectory", "diagnostics"]), list,
                           "scenario key 'outputs'"))
    for out in outputs:
        if out not in _OUTPUT_KINDS:
            raise ScenarioError(f"unknown output kind {out!r}")

    gamma_tilde = None
    if raw.get("gamma_tilde") is not None:
        gamma_tilde_raw = decode_pairs(raw["gamma_tilde"], (n, n), "gamma_tilde")
        try:
            gamma_tilde = hermitian_form(gamma_tilde_raw)
        except HermitonError as exc:
            raise ScenarioError(f"gamma_tilde: {exc}") from exc

    generators = tuple(
        (_typed(_known_keys(g, _GENERATOR_KEYS, f"generators[{i}]").get("label", f"gen{i}"),
                str, f"generators[{i}] key 'label'"),
         decode_pairs(g.get("matrix"), (n, n), f"generators[{i}]"))
        if isinstance(g, dict) else (f"gen{i}", decode_pairs(g, (n, n), f"generators[{i}]"))
        for i, g in enumerate(_typed(raw.get("generators", []), list,
                                     "scenario key 'generators'")))
    labels = [label for label, _ in generators]
    for label in labels:
        if labels.count(label) > 1:
            raise ScenarioError(f"generator label {label!r} appears {labels.count(label)} "
                                "times; each charge needs its own label")
    for label, matrix in generators:      # classified as the charge monitor does
        try:
            if _is_hermitian(matrix, f"generator {label!r}") is None:
                raise ScenarioError(f"generator {label!r} is zero, so it has no charge")
        except WrongSymmetryClass as exc:
            raise ScenarioError(f"{type(exc).__name__}: {exc}") from exc

    scalars = {key: _typed(raw.get(key, default), type(default), f"scenario key {key!r}")
               for key, default in (("seed", 0), ("request_chart", False),
                                    ("inject_sign_error", False))}
    if scalars["seed"] < 0:
        raise ScenarioError(f"scenario key 'seed' must be a non-negative integer, "
                            f"got {scalars['seed']}")
    return Scenario(
        model_tier=tier, params=params, chi=chi, psi0=psi0, psi_dot0=psi_dot0,
        gamma0=gamma0, gamma_dot0=gamma_dot0, integrator=cfg, outputs=outputs,
        gamma_tilde=gamma_tilde, generators=generators, name=name, **scalars)
