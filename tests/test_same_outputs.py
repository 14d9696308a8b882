"""`tools/same_outputs.py` compares two runs' output directories file by file.

The script is loaded by path, as `test_trace_boundaries.py` loads `spans.py`.
"""

import importlib.util
import json
from pathlib import Path

TOOL_PATH = Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("same_outputs", TOOL_PATH)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _outputs(directory: Path, wall_time: float, csv: bytes, extra: dict) -> Path:
    directory.mkdir(parents=True)
    summary = {"config": {"output": {"directory": str(directory)}, "seed": 7},
               "wall_time_s": wall_time, "final_dof": 57, **extra}
    (directory / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
    (directory / "iterations.csv").write_bytes(csv)
    return directory


def test_differing_files(tmp_path):
    differing_files = _tool().differing_files
    csv = b"n,eta_tilde\n0,1.0000000000000002\n"
    a = _outputs(tmp_path / "a", 0.19, csv, {})
    # wall time and output directory differ between identical runs
    b = _outputs(tmp_path / "b", 0.21, csv, {})
    assert differing_files(a, b) == []

    c = _outputs(tmp_path / "c", 0.19, csv.replace(b"2\n", b"4\n"), {"final_dof": 58})
    assert differing_files(a, c) == ["iterations.csv", "summary.json"]

    (b / "marked_sets.jsonl").write_text("{}\n")
    assert differing_files(a, b) == ["marked_sets.jsonl"]
    assert differing_files(b, a) == ["marked_sets.jsonl"]


def test_first_difference_names_the_line_and_both_lengths(tmp_path):
    first_difference = _tool().first_difference
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    a.write_text("n,eta\n0,1.0\n1,0.5\n2,0.25\n")
    b.write_text("n,eta\n0,1.0\n1,0.5\n")  # the change stops one row earlier
    c.write_text("n,eta\n0,1.0\n1,0.6\n2,0.25\n")
    assert first_difference(a, b) == (
        "first difference at line 4; lines: parent 4, change 3\n"
        "  parent: 2,0.25\n  change: <end of file>"
    )
    assert first_difference(a, c) == (
        "first difference at line 3; lines: parent 4, change 4\n"
        "  parent: 1,0.5\n  change: 1,0.6"
    )
