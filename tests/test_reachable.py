"""Every function in adaptpw is reached by a CLI run, or is a test oracle.

A few tiny configs run in-process through `cli.main` under `sys.setprofile`,
which sees every Python function, method and property the runs enter. The
`def`s of each module's source that no run entered must be exactly the
oracles the tests compare against and the console-script wrapper. The
same configs pin the progress lines `run` prints in each of the five
modes, and `tools/same_outputs.py` compares their runs across two trees.
"""

import ast
import importlib
import json
import pkgutil
import sys
import warnings
from pathlib import Path

import pytest

import adaptpw
from adaptpw.cli import main

#: defined but reached by no run, each for the reason given
UNREACHED = {
    "spectral.hs_norm",  # oracle of the estimators' H^-1 sums
    "verify.subspace_distance",  # oracle of the reference's energy distances
    "cli.console_entry",  # the installed script's sys.exit wrapper around main
}

TRIG = {"family": "trig", "c": 1.0, "terms": [{"k": [1], "a": 1.0}]}
NO_REFERENCE = {"enable_subspace_distance": False}


def random_decay(p, r_cut):
    return {"family": "random-decay", "amplitude": 1.0, "p": p, "r_cut": r_cut}


def triples(*coefficients):
    return [{"index": [k], "re": re, "im": im} for k, re, im in coefficients]


# label: (config, --mode, exit code); every problem gets n_eigs 1
RUNS = {
    # a truncation radius passes its certificate: truncation_M 8, 16, 16, 32 of 40
    "truncation": (
        {"problem": {"dim": 1, "potential": random_decay(4, 40)},
         "algorithm": {"zeta": 0.4, "theta_tilde": 0.6, "tol": 1e-4},
         "verification": NO_REFERENCE, "seed": 3},
        None, 0,
    ),
    "eigen-exact": (
        {"problem": {"dim": 1, "potential": TRIG},
         "algorithm": {"mode": "eigen-exact", "tol": 1e-8}, "verification": {"M_ref": 24},
         "output": {"formats": ["csv", "json", "gnuplot"]}},
        None, 0,
    ),
    "compare": (
        {"problem": {"dim": 2, "potential": random_decay(2.5, 4)},
         "algorithm": {"tol": 1e-5}, "verification": {"M_ref": 10}, "seed": 7},
        "compare", 0,
    ),
    "uniform": (
        {"problem": {"dim": 2, "potential": random_decay(2.5, 3)},
         "verification": {"M_ref": 8}, "seed": 7},
        "uniform", 0,
    ),
    "source": (
        {"problem": {"dim": 1,
                     "potential": {"family": "explicit",
                                   "coefficients": triples((0, 3.0, 0), (1, 0.5, 0), (-1, 0.5, 0))},
                     "rhs": [triples((0, 1.0, 0)), triples((2, 1.0, 0.5), (-2, 1.0, -0.5))]},
         "algorithm": {"mode": "source", "tol": 1e-8}, "verification": {"M_ref": 16}},
        None, 0,
    ),
    "constant-3d": (
        {"problem": {"dim": 3, "potential": {"family": "constant", "c": 1.0}},
         "algorithm": {"M0": 1}, "verification": NO_REFERENCE},
        None, 0,
    ),
    "config-error": ({"problem": {"dim": 4, "potential": TRIG}}, None, 2),
    "parameter-error": ({"problem": {"dim": 1, "potential": TRIG}, "algorithm": {"M0": 0}},
                        None, 2),
}


def write_config(tmp_path, label):
    """Write RUNS[label] into tmp_path and return its `main` arguments."""
    raw, mode, _ = RUNS[label]
    raw = {**raw, "problem": {**raw["problem"], "n_eigs": 1},
           "output": {**raw.get("output", {}), "directory": str(tmp_path / label)}}
    path = tmp_path / f"{label}.json"
    path.write_text(json.dumps(raw))
    return ["run", str(path), "--quiet"] + (["--mode", mode] if mode else [])


def defined_functions() -> dict[tuple[str, int, str], str]:
    """{(file, first line, name): dotted name} of every def in adaptpw, nested ones too.

    The first line is that of the first decorator, as in the code object.
    """
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(path, first, child.name)] = f"{prefix}.{child.name}"
                visit(child, path, f"{prefix}.{child.name}")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}.{child.name}")
            else:
                visit(child, path, prefix)

    for name in ["adaptpw"] + [f"adaptpw.{m.name}" for m in pkgutil.iter_modules(adaptpw.__path__)]:
        path = importlib.import_module(name).__file__
        visit(ast.parse(Path(path).read_text()), path, Path(path).stem)
    return found


def reached_functions(tmp_path) -> set[tuple[str, int, str]]:
    """(file, first line, name) of every Python function the RUNS enter."""
    argvs = {label: write_config(tmp_path, label) for label in RUNS}
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    codes = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sys.setprofile(profile)
        try:
            for label, argv in argvs.items():
                codes[label] = main(argv)
        finally:
            sys.setprofile(None)
    assert codes == {label: code for label, (_, _, code) in RUNS.items()}
    return {(c.co_filename, c.co_firstlineno, c.co_name) for c in seen}


def test_truncation_run_accepts_radii(tmp_path):
    assert main(write_config(tmp_path, "truncation")) == 0
    rows = (tmp_path / "truncation" / "iterations.csv").read_text().splitlines()
    col = rows[0].split(",").index("truncation_M")
    assert [int(row.split(",")[col]) for row in rows[1:]] == [8, 16, 16, 32]


#: label: the line `run` prints for its mode, before the summary's path
PROGRESS = {
    "truncation": "eigen-feasible: tol after 4 iterations, dof 11",
    "eigen-exact": "eigen-exact: tol after 5 iterations, dof 13",
    "source": "source: tol after 8 iterations, dof 13",
    "uniform": "uniform sweep: 3 radii",
    "compare": "compare: adaptive dof 119 vs uniform 149 at matched error",
}


@pytest.mark.parametrize("label", PROGRESS)
def test_progress_lines(tmp_path, capsys, label):
    argv = [arg for arg in write_config(tmp_path, label) if arg != "--quiet"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [PROGRESS[label], f"wrote {tmp_path / label / 'summary.json'}"]


def test_every_function_is_reached_or_an_oracle(tmp_path):
    reached = reached_functions(tmp_path)
    unreached = {name for key, name in defined_functions().items() if key not in reached}
    assert unreached == UNREACHED
