"""Digests of every CLI output of the benchmark workloads, for parity checks.

    python3 tools/output_digests.py [--keep DIR] SEED [SEED ...]

For each seed and each workload of ``perfbench/scenarios.py``, the
workload's scenario files are written into a temporary directory and its
commands are run, one after another, through ``hermiton.cli.main`` from this
checkout's ``src/``.  One line is printed per artefact,

    <workload> seed=<seed> cmd<i> <artefact> <sha256>

where the artefact is an output file, ``stdout`` or ``exit`` (the exit
code, or the class of an exception that escaped ``main``).  Run it on two
commits and ``diff`` the two listings: an empty diff means the CLI wrote the
same bytes, printed the same text and exited the same way.  BLAS and OpenMP
are pinned to one thread, as in the benchmark.

With ``--keep DIR`` the artefacts themselves are kept as well, in
``DIR/<workload>/seed<seed>/cmd<i>/``: the output files, ``stdout`` and
``exit``.  ``tools/output_moves.py`` compares two such trees number by number.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.run import THREAD_ENV, _digest  # noqa: E402  (imports no numpy)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def workload_digests(workload: str, seed: int, keep: Path | None = None) -> list:
    """The listing lines of one workload at one seed; with ``keep``, each
    command's artefacts are copied to ``keep/<workload>/seed<seed>/cmd<i>``."""
    from hermiton import cli
    from perfbench.scenarios import build_workload

    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for i, cmd in enumerate(build_workload(workload, seed, tmp / "scenarios")):
            out = tmp / f"cmd{i}"
            captured = io.StringIO()
            with contextlib.redirect_stdout(captured):
                try:
                    code = cli.main([*cmd.argv, "--out", str(out)])
                except Exception as exc:       # an escaped error is an outcome too
                    code = type(exc).__name__
            digests = _digest(out)[0] if out.is_dir() else {}
            if keep is not None:
                kept = keep / workload / f"seed{seed}" / f"cmd{i}"
                if out.is_dir():
                    shutil.copytree(out, kept)
                kept.mkdir(parents=True, exist_ok=True)
                (kept / "stdout").write_text(captured.getvalue())
                (kept / "exit").write_text(f"{code}\n")
            tag = f"{workload} seed={seed} cmd{i}"
            lines += [f"{tag} {name} {sha}" for name, sha in digests.items()]
            lines += [f"{tag} stdout {_sha(captured.getvalue())}", f"{tag} exit {code}"]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keep", type=Path, metavar="DIR",
                        help="also keep every artefact under DIR, which must not exist")
    parser.add_argument("seeds", type=int, nargs="+", metavar="SEED")
    args = parser.parse_args(argv)
    if args.keep is not None and args.keep.exists():
        parser.error(f"--keep {args.keep}: already exists")
    for name in THREAD_ENV:
        os.environ[name] = "1"
    from perfbench.scenarios import WORKLOADS

    for seed in args.seeds:
        for workload in WORKLOADS:
            print("\n".join(workload_digests(workload, seed, args.keep)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
