"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on shared machines whose speed drifts by tens of per
cent over seconds (host load, frequency scaling), far more than any bound a
regression check can use.  A fixed kernel, timed next to every measured
interval, tracks that drift: it is a small RK4 integration written against
numpy alone, with the same mix of interpreter overhead and small complex
matrix calls as hermiton's own stepping, and it never changes with the
program under test.

A time ``t`` measured between kernel timings ``c0`` and ``c1`` is reported
as ``t * REFERENCE_S / ((c0 + c1) / 2)``: seconds at the speed at which the
kernel takes REFERENCE_S.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: kernel time on the reference machine (a 2-CPU x86_64 VM, Python 3.11,
#: numpy 2.4 with OpenBLAS pinned to one thread), in seconds
REFERENCE_S = 0.030

_N = 4
_STEPS = 300


def _system():
    rng = np.random.default_rng(12345)
    g = np.eye(_N) + 0.1 * rng.normal(size=(_N, _N))
    g = (g + g.T) / 2.0 + 0j
    h = rng.normal(size=(_N, _N)) + 1j * rng.normal(size=(_N, _N))
    return g, h + h.conj().T


_G, _H = _system()


def _deriv(y):
    psi = y[:_N] + 1j * y[_N:]
    d = np.linalg.solve(_G, _H @ psi) / 2j
    return np.concatenate([d.real, d.imag])


def kernel_seconds() -> float:
    """Wall time of one run of the fixed calibration kernel."""
    y = np.ones(2 * _N)
    dt = 1e-3
    t0 = perf_counter()
    for _ in range(_STEPS):
        k1 = _deriv(y)
        k2 = _deriv(y + (dt / 2.0) * k1)
        k3 = _deriv(y + (dt / 2.0) * k2)
        k4 = _deriv(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return perf_counter() - t0


def at_reference(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between kernel times ``before`` and ``after``,
    rescaled to the reference speed."""
    return seconds * REFERENCE_S / ((before + after) / 2.0)
