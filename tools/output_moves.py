"""How far the numbers moved between two trees of CLI outputs.

    python3 tools/output_moves.py DIR_A DIR_B

DIR_A and DIR_B are trees that ``tools/output_digests.py --keep`` wrote on two
commits (any two directories with the same relative file names will do).
One line is printed for each file whose bytes differ:

    <relative path> <largest |a - b| / max(|column|, 1)>

A number's column is its CSV column, or its key path (list indices included)
in a JSON document, the lines of a JSONL file being its rows; any other file
is read as JSON when it parses, and otherwise as whitespace-separated tokens,
each token position a column.  |column| is the largest magnitude in that
column over both files.  A file whose numbers do not pair up (another row
count, another key, a changed word) prints ``structure differs``, and a file
on one side only prints ``only in DIR_A`` or ``only in DIR_B``.  The exit
code is 0 when every file is byte-identical and 1 otherwise.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from pathlib import Path


class StructureDiffers(Exception):
    """The two files' numbers do not pair up."""


def _number(token: str):
    try:
        return float(token)
    except ValueError:
        return None


def _flatten(value, path: str, out: dict) -> None:
    """The numbers of a JSON value by key path; other scalars under
    ``("text", path)`` so that a changed word shows."""
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(item, f"{path}/{key}", out)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _flatten(item, f"{path}[{i}]", out)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        out[path] = float(value)
    else:
        out[("text", path)] = value


def _rows(path: Path) -> list:
    """The file as rows of {column: value}."""
    text = path.read_text()
    if path.suffix == ".csv":
        rows = list(csv.reader(io.StringIO(text), skipinitialspace=True))
        header, body = rows[0], rows[1:]
        return [{col: (_number(cell) if _number(cell) is not None else ("text", cell))
                 for col, cell in zip(header, row)} | {("width",): len(row)}
                for row in body]
    docs = None
    if path.suffix == ".jsonl":
        docs = [json.loads(line) for line in text.splitlines() if line.strip()]
    else:
        try:
            docs = [json.loads(text)]
        except ValueError:
            pass
    if docs is not None:
        rows = []
        for doc in docs:
            row = {}
            _flatten(doc, "", row)
            rows.append(row)
        return rows
    return [{i: (_number(tok) if _number(tok) is not None else ("text", tok))
             for i, tok in enumerate(text.split())}]


def relative_move(path_a: Path, path_b: Path) -> float:
    """The largest |a - b| / max(|column|, 1) over the paired numbers of two
    files; StructureDiffers when they do not pair up."""
    rows_a, rows_b = _rows(path_a), _rows(path_b)
    if len(rows_a) != len(rows_b) or any(ra.keys() != rb.keys()
                                         for ra, rb in zip(rows_a, rows_b)):
        raise StructureDiffers
    scale = {}
    for row in rows_a + rows_b:
        for col, value in row.items():
            if isinstance(value, float):
                scale[col] = max(scale.get(col, 1.0), abs(value))
    worst = 0.0
    for ra, rb in zip(rows_a, rows_b):
        for col, a in ra.items():
            b = rb[col]
            if not isinstance(a, float):
                if a != b:
                    raise StructureDiffers
            elif a != b and not (math.isnan(a) and math.isnan(b)):
                if not (math.isfinite(a) and math.isfinite(b)):
                    return math.inf
                worst = max(worst, abs(a - b) / scale[col])
    return worst


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    dir_a, dir_b = (Path(arg) for arg in args)
    files_a = {p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file()}
    differs = False
    for rel in sorted(files_a | files_b):
        if rel not in files_b:
            print(f"{rel} only in {dir_a}")
        elif rel not in files_a:
            print(f"{rel} only in {dir_b}")
        elif (dir_a / rel).read_bytes() == (dir_b / rel).read_bytes():
            continue
        else:
            try:
                print(f"{rel} {relative_move(dir_a / rel, dir_b / rel):.3e}")
            except (StructureDiffers, ValueError, IndexError):
                print(f"{rel} structure differs")
        differs = True
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
