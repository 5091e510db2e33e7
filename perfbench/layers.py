"""Per-call timings of hermiton's public layer functions.

Regenerates the per-function rows of the ROADMAP baseline table: each RHS
kernel, ``models.energy``, ``diagnostics.noether_tensors`` and the
Hermitian codec round trip, at n = 2 and n = 8, on inputs drawn from the
run's seed.  Each entry is the median over blocks of the mean time per call,
in microseconds at the calibration kernel's reference speed (the kernel is
timed between entries), named ``<module>.<function>_us.n<k>``.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from hermiton import diagnostics, dynamics, models
from hermiton.hermitian_algebra import hermitian_to_real, real_to_hermitian
from hermiton.models import FullState, ModelParams

import calibrate
from scenarios import (FULL_PARAMS, MODIFIED_PARAMS, SECOND_ORDER_PARAMS,
                       random_gamma, random_hermitian, random_vector)

DIMENSIONS = (2, 8)
FUNCTIONS = ("dynamics.rhs_schrodinger", "dynamics.rhs_second_order",
             "dynamics.rhs_gamma_geodesic", "dynamics.rhs_full",
             "dynamics.rhs_modified_first_order", "models.energy",
             "diagnostics.noether_tensors", "hermitian_algebra.codec_round_trip")
NAMES = tuple(f"{fn}_us.n{n}" for n in DIMENSIONS for fn in FUNCTIONS)

_BLOCKS = 5
_BLOCK_S = 0.004


def _calls(n: int, rng) -> dict:
    """Zero-argument closures, one per function, at dimension n."""
    full = ModelParams(**FULL_PARAMS)
    modified = ModelParams(**MODIFIED_PARAMS)
    second = ModelParams(**SECOND_ORDER_PARAMS)
    gamma, gamma_tilde = random_gamma(rng, n), random_gamma(rng, n)
    chi, gamma_dot = random_hermitian(rng, n, 1.0), random_hermitian(rng, n, 0.05)
    psi = random_vector(rng, n, 0.6)
    state = FullState(psi=psi, psi_dot=random_vector(rng, n, 0.1), gamma=gamma,
                      gamma_dot=gamma_dot)
    return {
        "dynamics.rhs_schrodinger":
            lambda: dynamics.rhs_schrodinger(psi, gamma, chi, 0.5, 1.0),
        "dynamics.rhs_second_order":
            lambda: dynamics.rhs_second_order(state, chi, second, gamma_tilde),
        "dynamics.rhs_gamma_geodesic":
            lambda: dynamics.rhs_gamma_geodesic(gamma, gamma_dot, 2.0, 0.4),
        "dynamics.rhs_full": lambda: dynamics.rhs_full(state, full, chi),
        "dynamics.rhs_modified_first_order":
            lambda: dynamics.rhs_modified_first_order(psi, gamma, gamma_dot, modified, chi),
        "models.energy": lambda: models.energy(state, full, chi),
        "diagnostics.noether_tensors":
            lambda: diagnostics.noether_tensors(state, full, gamma),
        "hermitian_algebra.codec_round_trip":
            lambda: real_to_hermitian(hermitian_to_real(gamma), n),
    }


def _per_call_us(fn) -> float:
    fn()
    reps = 1
    while True:                      # calibrate a block to >= _BLOCK_S
        t0 = perf_counter()
        for _ in range(reps):
            fn()
        if perf_counter() - t0 >= _BLOCK_S:
            break
        reps *= 2
    blocks = []
    for _ in range(_BLOCKS):
        t0 = perf_counter()
        for _ in range(reps):
            fn()
        blocks.append((perf_counter() - t0) / reps)
    return 1e6 * statistics.median(blocks)


def layer_table(seed: int) -> dict:
    """``{name: microseconds per call}`` for every entry of NAMES."""
    rng = np.random.default_rng([seed, 99])
    table = {}
    before = calibrate.kernel_seconds()
    for n in DIMENSIONS:
        for fn, call in _calls(n, rng).items():
            us = _per_call_us(call)
            after = calibrate.kernel_seconds()
            table[f"{fn}_us.n{n}"] = calibrate.at_reference(us, before, after)
            before = after
    return table
