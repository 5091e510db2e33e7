import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "output_moves.py"
_SPEC = importlib.util.spec_from_file_location("output_moves", _PATH)
output_moves = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(output_moves)


def _tree(root: Path, files: dict) -> Path:
    root.mkdir()
    for name, text in files.items():
        (root / name).write_text(text)
    return root


def test_moves_are_relative_to_the_column(tmp_path, capsys):
    a = _tree(tmp_path / "a", {
        "run_trajectory.csv": "t, x, y\n0, 100, 0.5\n1, 200, 0.25\n",
        "run_diagnostics.jsonl": '{"e": 4.0, "k": "a"}\n{"e": 2.0, "k": "a"}\n',
        "run_check.json": '{"v": [1e-9, 3.0]}',
        "stdout": "max deviation 4.5e-13\n",
        "exit": "0\n",
        "same.json": "[1, 2]",
        "gone.csv": "t\n0\n"})
    b = _tree(tmp_path / "b", {
        "run_trajectory.csv": "t, x, y\n0, 100, 0.5\n1, 202, 0.2\n",
        "run_diagnostics.jsonl": '{"e": 4.0, "k": "a"}\n{"e": 2.5, "k": "a"}\n',
        "run_check.json": '{"v": [2e-9, 3.0]}',
        "stdout": "max deviation 4.6e-13\n",
        "exit": "1\n",
        "same.json": "[1, 2]",
        "new.csv": "t\n0\n"})
    assert output_moves.main([str(a), str(b)]) == 1
    lines = dict(line.rsplit(" ", 1) if " only in " not in line else (line, "")
                 for line in capsys.readouterr().out.splitlines())
    # x moves 2 in a column reaching 202; y moves 0.05 in a column under 1
    assert float(lines["run_trajectory.csv"]) == pytest.approx(0.05)
    assert float(lines["run_diagnostics.jsonl"]) == pytest.approx(0.5 / 4.0)
    assert float(lines["run_check.json"]) == pytest.approx(1e-9)
    assert float(lines["stdout"]) == pytest.approx(1e-14)
    assert float(lines["exit"]) == pytest.approx(1.0 / 1.0)
    assert "same.json" not in lines
    assert f"gone.csv only in {a}" in lines and f"new.csv only in {b}" in lines


@pytest.mark.parametrize("text_a, text_b", [
    ("t, x\n0, 1\n", "t, x\n0, 1\n1, 2\n"),              # another row count
    ("t, x\n0, 1\n", "t, z\n0, 1\n"),                     # another column
    ('{"k": "a", "v": 1}', '{"k": "b", "v": 1}'),        # a changed word
])
def test_unpaired_numbers_are_a_structure_change(tmp_path, capsys, text_a, text_b):
    suffix = ".csv" if text_a.startswith("t") else ".json"
    a = _tree(tmp_path / "a", {f"f{suffix}": text_a})
    b = _tree(tmp_path / "b", {f"f{suffix}": text_b})
    assert output_moves.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out == f"f{suffix} structure differs\n"


def test_identical_trees_exit_0(tmp_path, capsys):
    a = _tree(tmp_path / "a", {"f.csv": "t\n0\n"})
    b = _tree(tmp_path / "b", {"f.csv": "t\n0\n"})
    assert output_moves.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out == ""
