"""Benchmark of the hermiton batch CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of ensemble, dense_record, verify, wide_gamma, or ``all``, which
runs the four one after another, each in a fresh process.  The run writes
its scenario files from the seed, then drives ``hermiton.cli.main``
in-process as one closed-loop client: one batch (the workload's command
sequence) after another until S seconds have passed.  Every command's
outputs pass a correctness gate and must be byte-identical to the first
batch's.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones: set-up time of a
fresh process (median of several), median batch wall time and peak RSS.
With ``--trace 1`` untraced and traced batches alternate, and the metrics
are per-layer: counts and self times from the spans (``tracing.py``), the
public-function timings (``layers.py``) and the tracing overhead.

BLAS and OpenMP are pinned to one thread for every workload.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

#: pinned to one thread by main() before numpy is imported, here and in
#: every child process; numpy, hermiton and the benchmark's own modules are
#: therefore imported inside functions
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: fresh processes timed for setup_s (the median is reported)
SETUP_PROBES = 10
#: fewest timed batches per run, whatever --seconds says
MIN_BATCHES = 3


def _import_hermiton() -> None:
    """Import hermiton from this checkout's sources, or exit nonzero."""
    if not (SRC / "hermiton" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no hermiton sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hermiton  # noqa: F401


def machine_block() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
    }


def _digest(directory: Path) -> tuple:
    """(sha256 per file, total bytes) of every file under ``directory``."""
    digests, size = {}, 0
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digests[str(path.relative_to(directory))] = hashlib.sha256(data).hexdigest()
        size += len(data)
    return digests, size


class Runner:
    """Runs a workload's command sequence and gates every command."""

    def __init__(self, cli_main, commands, work: Path):
        self.cli_main = cli_main
        self.commands = commands
        self.out = work / "out"
        self.reference = None          # first batch's output digests
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def batch(self, tracer=None) -> tuple:
        """Run every command once; return (wall seconds, bytes written)."""
        results = []
        t0 = perf_counter()
        for i, cmd in enumerate(self.commands):
            argv = [*cmd.argv, "--out", str(self.out / f"cmd{i}")]
            captured = io.StringIO()
            with contextlib.redirect_stdout(captured):
                try:
                    code = (tracer.command(self.cli_main, argv) if tracer
                            else self.cli_main(argv))
                except Exception:      # an escaped error fails the command
                    traceback.print_exc()
                    code = None
            results.append((code, captured.getvalue()))
        wall = perf_counter() - t0

        digests, written = [], 0
        for i, (cmd, (code, stdout)) in enumerate(zip(self.commands, results)):
            out = self.out / f"cmd{i}"
            problems = cmd.gate(out, code, stdout) if out.is_dir() else ["no outputs"]
            digest, size = _digest(out) if out.is_dir() else ({}, 0)
            if self.reference is not None and digest != self.reference[i]:
                problems.append("outputs differ from the first batch")
            digests.append(digest)
            written += size
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.append(f"{' '.join(cmd.argv[:1])} #{i}: {problems}")
        if self.reference is None:
            self.reference = digests
        shutil.rmtree(self.out, ignore_errors=True)
        return wall, written


class SetupProbe:
    """Times fresh processes that import hermiton and write the workload's
    scenario files, and checks that they write the same files as this one."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.argv = [sys.executable, str(Path(__file__).resolve()), "--workload",
                     workload, "--seed", str(seed), "--setup-probe"]
        self.work = work
        self.times = []
        self.same_inputs = True

    def __call__(self) -> None:
        target = self.work / "probe"
        t0 = perf_counter()
        with subprocess.Popen([*self.argv, str(target)], stdout=subprocess.PIPE,
                              text=True) as proc:
            ready = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or ready.strip() != "ready":
            raise SystemExit(f"perfbench: set-up probe exited with {proc.returncode}")
        self.times.append(elapsed)
        if _digest(target)[0] != _digest(self.work / "scenarios")[0]:
            self.same_inputs = False
        shutil.rmtree(target)


def _value(v, unit):
    return {"value": v, "unit": unit}


def run_workload(args) -> dict:
    _import_hermiton()
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        from hermiton import cli
        import scenarios
        commands = scenarios.build_workload(args.workload, args.seed, work / "scenarios")
        probe = SetupProbe(args.workload, args.seed, work)
        probe()
        runner = Runner(cli.main, commands, work)
        runner.batch()                 # warm-up; its outputs are the reference
        print(json.dumps({"machine": machine_block()}), flush=True)
        if args.trace:
            metrics, steady = _traced(runner, args)
        else:
            metrics, steady = _untraced(runner, args, probe), True
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in runner.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    if not probe.same_inputs:
        print("FAILED scenario files differ between processes with one seed",
              file=sys.stderr)
    return {"correct": runner.failed == 0 and probe.same_inputs and steady,
            "attempted": runner.attempted, "failed": runner.failed,
            "metrics": metrics}


def _untraced(runner: Runner, args, probe: SetupProbe) -> dict:
    """Timed batches, with the set-up probes spread over the run so that
    their median does not hang on one stretch of machine load."""
    import calibrate

    start = perf_counter()
    cal = [calibrate.kernel_seconds()]
    raw, walls = [], []
    while len(walls) < MIN_BATCHES or perf_counter() < start + args.seconds:
        raw.append(runner.batch()[0])
        cal.append(calibrate.kernel_seconds())
        walls.append(calibrate.at_reference(raw[-1], cal[-2], cal[-1]))
        due = start + len(probe.times) * args.seconds / SETUP_PROBES
        if len(probe.times) < SETUP_PROBES and perf_counter() >= due:
            probe()
    while len(probe.times) < SETUP_PROBES:
        probe()
    print(f"{len(walls)} timed batches; raw batch wall median "
          f"{statistics.median(raw)} s, calibration kernel median "
          f"{statistics.median(cal)} s (reference {calibrate.REFERENCE_S} s)")
    return {
        "setup_s": _value(statistics.median(probe.times), "s"),
        "wall_s": _value(statistics.median(walls), "s"),
        "peak_rss_mb": _value(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _traced(runner: Runner, args) -> tuple:
    """Alternate untraced and traced batches; per-layer metrics from the
    traced ones.  Counts must repeat exactly across traced batches; times
    are rescaled to the reference speed like wall_s."""
    import calibrate
    import layers
    import tracing

    tracer = tracing.Tracer()
    deadline = perf_counter() + args.seconds
    cal = [calibrate.kernel_seconds()]
    plain, traced, per_batch = [], [], []
    while len(traced) < MIN_BATCHES or perf_counter() < deadline:
        wall = runner.batch()[0]
        cal.append(calibrate.kernel_seconds())
        plain.append(calibrate.at_reference(wall, cal[-2], cal[-1]))
        mark = tracer.mark()
        with tracer:
            wall, written = runner.batch(tracer)
        cal.append(calibrate.kernel_seconds())
        scale = calibrate.at_reference(1.0, cal[-2], cal[-1])
        traced.append(wall * scale)
        m = tracing.layer_metrics(tracer, mark, written)
        per_batch.append({k: v * scale if k in tracing.TIME_METRICS else v
                          for k, v in m.items()})

    counts = {k: per_batch[0][k] for k in tracing.COUNT_METRICS}
    steady = all({k: b[k] for k in counts} == counts for b in per_batch)
    if not steady:
        print("FAILED per-layer counts differ between traced batches", file=sys.stderr)
    metrics = {k: _value(v, tracing.COUNT_METRICS[k]) for k, v in counts.items()}
    for k, unit in tracing.TIME_METRICS.items():
        metrics[k] = _value(statistics.median(b[k] for b in per_batch), unit)
    metrics["trace.overhead_frac"] = _value(
        statistics.median(traced) / statistics.median(plain) - 1.0, "ratio")
    for k, us in layers.layer_table(args.seed).items():
        metrics[k] = _value(us, "us")
    print(f"{len(traced)} traced and {len(plain)} untraced batches; "
          f"{len(tracer.spans)} spans")
    return metrics, steady


def _print_metrics(metrics: dict, prefix: str = "") -> None:
    for name, m in metrics.items():
        print(f"{prefix}{name} {m['value']} {m['unit']}")


def run_all(args) -> dict:
    """Every workload in its own process, one after another."""
    import scenarios
    print(json.dumps({"machine": machine_block()}), flush=True)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in scenarios.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: workload {workload} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        print(f"== {workload}")
        _print_metrics(result["metrics"], f"{workload}.")
        print(f"{workload}.failed_frac {result['failed'] / result['attempted']} 1")
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{workload}.{k}": v
                                 for k, v in result["metrics"].items()})
    return total


def main(argv=None) -> int:
    for var in THREAD_ENV:
        os.environ[var] = "1"
    sys.path.insert(0, str(HERE))
    import scenarios
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*scenarios.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        # set-up only: import the program, write the scenario files, report
        _import_hermiton()
        scenarios.build_workload(args.workload, args.seed, Path(args.setup_probe))
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args)
        _print_metrics(result["metrics"])
        print(f"failed_frac {result['failed'] / result['attempted']} 1")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
