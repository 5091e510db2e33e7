"""Spans around the calls between hermiton's layers, recorded from outside.

The tracer replaces, for the duration of a ``with`` block, the names each
module looks up in the layer below it (module attributes are resolved at
call time, so rebinding them reaches every caller).  Each call becomes a
span: name, start, end, parent.  Spans stay in memory until the run ends;
per-layer metrics are computed from them afterwards.  Self time is a span's
duration minus the durations of its direct children.

``numpy.linalg`` factorizations are counted, not spanned, and only while an
RHS span is open, which gives factorizations per RHS evaluation.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter
from time import perf_counter

import numpy as np

#: (module, attribute, span kind) rebound while tracing
TARGETS = (
    [("hermiton.integrate", fn, "step")
     for fn in ("_rk4_step", "_dp_step", "_implicit_midpoint_step")]
    + [("hermiton.integrate", fn, "rhs")
       for fn in ("rhs_direct_nonlinear_raw", "rhs_second_order", "rhs_gamma_geodesic",
                  "_full_accelerations_raw", "_modified_first_order_raw")]
    + [("hermiton.integrate", "hermitian_to_real", "codec"),
       ("hermiton.integrate", "real_to_hermitian", "codec"),
       ("hermiton.integrate", "hermiticity_drift", "herm_drift")]
    + [(mod, fn, fn) for mod in ("hermiton.integrate", "hermiton.diagnostics")
       for fn in ("energy", "theta1")]
    + [("hermiton.cli", "integrate", "integrate"),
       ("hermiton.cli", "load_scenario", "load")]
    + [("hermiton.cli", fn, "write")
       for fn in ("_trajectory_csv", "_diagnostics_jsonl", "_charges_jsonl")]
    + [("hermiton.canonical", "legendre_regular", "canonical"),
       ("hermiton.canonical", "legendre_inverse", "canonical")]
)
_ORACLES = "hermiton.oracles"
_LINALG = ("inv", "solve", "det", "eigh", "cholesky")

#: per-layer metrics computed from one traced batch, with their units
COUNT_METRICS = {
    "integrate.steps": "count",
    "integrate.samples": "count",
    "dynamics.rhs_calls": "count",
    "dynamics.rhs_per_step": "count",
    "dynamics.factorizations_per_rhs": "count",
    "hermitian_algebra.codec_calls": "count",
    "models.energy_calls_per_sample": "count",
    "cli.bytes_written": "bytes",
}
TIME_METRICS = {
    "integrate.self_s": "s",
    "integrate.step_self_s": "s",
    "dynamics.rhs_self_s": "s",
    "dynamics.rhs_us": "us",
    "hermitian_algebra.codec_s": "s",
    "models.record_s": "s",
    "diagnostics.monitor_s": "s",
    "diagnostics.monitor_us_per_sample": "us",
    "cli.write_s": "s",
    "oracles.self_s": "s",
    "canonical.self_s": "s",
    "scenario.load_s": "s",
}


class Tracer:
    """In-memory span recorder; use as a context manager to install it."""

    def __init__(self):
        self.spans = []            # [kind, start, end, parent index]
        self.counts = Counter()    # counts that are not spans
        self._stack = []
        self._open_rhs = 0
        self._saved = []

    def _wrap(self, kind, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [kind, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            if kind == "rhs":
                self._open_rhs += 1
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                if kind == "rhs":
                    self._open_rhs -= 1
        return traced

    def _wrap_build(self, fn):
        # the per-sample record closure is built per run; span it on return
        @functools.wraps(fn)
        def build(*args, **kwargs):
            system = fn(*args, **kwargs)
            system.record = self._wrap("record", system.record)
            return system
        return build

    def _wrap_monitor(self, fn):
        traced = self._wrap("monitor", fn)

        @functools.wraps(fn)
        def monitor(trajectory, *args, **kwargs):
            self.counts["monitor_samples"] += len(trajectory.states)
            return traced(trajectory, *args, **kwargs)
        return monitor

    def _wrap_linalg(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._open_rhs:
                self.counts["factorizations_in_rhs"] += 1
            return fn(*args, **kwargs)
        return counted

    def _rebind(self, module, name, wrapper):
        original = getattr(module, name)
        self._saved.append((module, name, original))
        setattr(module, name, wrapper(original))

    def __enter__(self):
        for mod, name, kind in TARGETS:
            self._rebind(importlib.import_module(mod), name,
                         functools.partial(self._wrap, kind))
        integrate = importlib.import_module("hermiton.integrate")
        self._rebind(integrate, "_build_system", self._wrap_build)
        diagnostics = importlib.import_module("hermiton.diagnostics")
        self._rebind(diagnostics, "monitor", self._wrap_monitor)
        oracles = importlib.import_module(_ORACLES)
        for name in oracles.__all__:
            if inspect.isfunction(getattr(oracles, name)):
                self._rebind(oracles, name,
                             functools.partial(self._wrap, "oracles"))
        for name in _LINALG:
            self._rebind(np.linalg, name, self._wrap_linalg)
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)
        return False

    def command(self, fn, *args):
        """Run one CLI command under a root span."""
        return self._wrap("command", fn)(*args)

    def mark(self) -> tuple:
        """Position to pass to :func:`layer_metrics` for the spans after it."""
        return len(self.spans), Counter(self.counts)


def layer_metrics(tracer: Tracer, since: tuple, bytes_written: int) -> dict:
    """Per-layer metrics of the spans recorded after the ``since`` mark."""
    first, counts_before = since
    spans = tracer.spans[first:]
    counts = tracer.counts - counts_before
    kinds = [s[0] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    in_step = 0
    for i, (kind, _, _, parent) in enumerate(spans):
        if parent >= first:
            child[parent - first] += dur[i]
            if kind == "rhs" and kinds[parent - first] == "step":
                in_step += 1
    n = Counter(kinds)

    def total(kind):
        return sum(d for k, d in zip(kinds, dur) if k == kind)

    def self_time(kind):
        return sum(d - c for k, d, c in zip(kinds, dur, child) if k == kind)

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "integrate.steps": n["step"],
        "integrate.samples": n["record"],
        "dynamics.rhs_calls": n["rhs"],
        "dynamics.rhs_per_step": ratio(in_step, n["step"]),
        "dynamics.factorizations_per_rhs": ratio(counts["factorizations_in_rhs"], n["rhs"]),
        "hermitian_algebra.codec_calls": n["codec"],
        "models.energy_calls_per_sample": ratio(n["energy"], n["record"]),
        "cli.bytes_written": bytes_written,
        "integrate.self_s": self_time("integrate"),
        "integrate.step_self_s": self_time("step"),
        "dynamics.rhs_self_s": self_time("rhs"),
        "dynamics.rhs_us": 1e6 * ratio(total("rhs"), n["rhs"]),
        "hermitian_algebra.codec_s": total("codec"),
        "models.record_s": total("record"),
        "diagnostics.monitor_s": total("monitor"),
        "diagnostics.monitor_us_per_sample":
            1e6 * ratio(total("monitor"), counts["monitor_samples"]),
        "cli.write_s": self_time("write"),
        "oracles.self_s": self_time("oracles"),
        "canonical.self_s": self_time("canonical"),
        "scenario.load_s": total("load"),
    }
