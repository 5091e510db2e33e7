"""Tests of the benchmark itself: exact counts, repeatability across runs,
and metric names that do not depend on the seed.

Run with ``python3 -m pytest perfbench/tests``.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import scenarios  # noqa: E402
import tracing  # noqa: E402
from hermiton import cli  # noqa: E402


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _traced_batch(commands, work: Path) -> dict:
    runner = run.Runner(cli.main, commands, work)
    tracer = tracing.Tracer()
    mark = tracer.mark()
    with tracer, contextlib.redirect_stdout(io.StringIO()):
        _, written = runner.batch(tracer)
    assert runner.failed == 0, runner.problems
    return tracing.layer_metrics(tracer, mark, written)


def test_rk4_makes_four_rhs_calls_per_step(tmp_path):
    integ = {"method": "rk4", "dt": 0.01, "t_end": 0.5, "sample_stride": 10}
    sc = scenarios.scenario("full", 2, np.random.default_rng(0), integ)
    path = tmp_path / "rk4.json"
    path.write_text(json.dumps(sc))
    cmd = scenarios.Command(("simulate", "--scenario", str(path)),
                            lambda out, code, stdout: [] if code == 0 else [code])
    m = _traced_batch([cmd], tmp_path)
    assert m["integrate.steps"] == 50
    assert m["dynamics.rhs_calls"] == 200
    assert m["dynamics.rhs_per_step"] == 4.0
    assert m["integrate.samples"] == 6


@pytest.mark.parametrize("workload", scenarios.WORKLOADS)
def test_counts_repeat_across_traced_runs(workload, tmp_path):
    runs = []
    for k in range(2):
        commands = scenarios.build_workload(workload, 7, tmp_path / f"scen{k}")
        runs.append(_traced_batch(commands, tmp_path / f"work{k}"))
    counts = [{name: m[name] for name in tracing.COUNT_METRICS} for m in runs]
    assert counts[0] == counts[1]
    assert counts[0]["integrate.steps"] > 0
    if workload in ("dense_record", "wide_gamma"):     # RK4 only
        assert counts[0]["dynamics.rhs_per_step"] == 4.0


def test_seed_changes_inputs_not_metric_names(tmp_path):
    files, names = [], []
    for seed in (1, 2):
        scen = tmp_path / f"scen{seed}"
        commands = scenarios.build_workload("verify", seed, scen)
        files.append({p.name: p.read_bytes() for p in scen.iterdir()})
        m = _traced_batch(commands, tmp_path / f"work{seed}")
        names.append([*m, "trace.overhead_frac", *layers.layer_table(seed)])
    assert files[0].keys() == files[1].keys()
    assert all(files[0][k] != files[1][k] for k in files[0])
    assert names[0] == names[1]
    assert names[0] == [m["name"] for m in _spec()["per_layer"]]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_every_metric(trace, section):
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", "wide_gamma",
            "--seed", "4", "--seconds", "0", "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = _spec()[section]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, f"{BENCH.name}/run.py", "--workload", "ensemble",
            "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
