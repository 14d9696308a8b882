"""Check that a change keeps every output of the benchmark pool and of every mode byte-identical.

    python3 tools/same_outputs.py PARENT_CHECKOUT --seed 7 --seed 11

Every pool member that `perfbench/run.py --seed S` would run (the configs
and arguments come from `perfbench/workloads.py`) runs once through the
`src` tree of PARENT_CHECKOUT and once through this checkout's, with
OPENBLAS_NUM_THREADS=2 (outputs depend on the BLAS thread count). So does
each config of `tests/test_reachable.py`, which covers every mode, the
gnuplot script and the exit-2 refusals, without `--quiet`. The two output
directories must hold the same files with the same bytes; summary.json is
compared without `wall_time_s` and the output directory. A reachable
config's exit code, stdout and stderr must match too, with its run
directory written as `<dir>`. Each differing file is printed, a CSV or
JSONL file with its first differing line on each side and both line
counts, summary.json with the keys that differ, and the exit code is 1 on
any difference.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: summary.json keys that differ between identical runs
_RUN_KEYS = ("wall_time_s",)

#: line-oriented outputs, whose first differing line is printed
_TEXT_SUFFIXES = (".csv", ".jsonl")


def _summary(path: Path) -> dict:
    data = json.loads(path.read_text())
    for key in _RUN_KEYS:
        data.pop(key, None)
    data.get("config", {}).get("output", {}).pop("directory", None)
    return data


def differing_keys(a: dict, b: dict) -> list[str]:
    """Dotted paths of the entries that differ between summaries a and b, or exist in one only.

    Values are compared by their JSON text, so a NaN equals a NaN.
    """
    out = []
    for key in sorted(a.keys() | b.keys()):
        x, y = a.get(key), b.get(key)
        if isinstance(x, dict) and isinstance(y, dict):
            out += [f"{key}.{path}" for path in differing_keys(x, y)]
        elif key not in a or key not in b or json.dumps(x) != json.dumps(y):
            out.append(key)
    return out


def differing_files(a: Path, b: Path) -> list[str]:
    """Names of the files that differ between output directories a and b, or exist in one only.

    A directory that does not exist holds no files.
    """
    names = sorted({p.name for d in (a, b) if d.is_dir() for p in d.iterdir() if p.is_file()})
    out = []
    for name in names:
        pa, pb = a / name, b / name
        if not (pa.is_file() and pb.is_file()):
            out.append(name)
        elif name == "summary.json":
            if differing_keys(_summary(pa), _summary(pb)):
                out.append(name)
        elif pa.read_bytes() != pb.read_bytes():
            out.append(name)
    return out


def first_difference(a: Path, b: Path) -> str:
    """The first line where text files a and b differ, each side's text there, both line counts."""
    lines = [p.read_text().splitlines() for p in (a, b)]
    n = next((i for i, (x, y) in enumerate(zip(*lines)) if x != y), min(map(len, lines)))
    text = [f[n] if n < len(f) else "<end of file>" for f in lines]
    return (
        f"first difference at line {n + 1}; lines: parent {len(lines[0])}, change {len(lines[1])}\n"
        f"  parent: {text[0]}\n  change: {text[1]}"
    )


def report(outdirs: list[Path], label: str) -> int:
    """Print each file that differs between two output directories, with detail; their count."""
    files = differing_files(*outdirs)
    for file in files:
        print(f"differs: {label}/{file}")
        pair = [d / file for d in outdirs]
        if not all(p.is_file() for p in pair):
            continue
        if file.endswith(_TEXT_SUFFIXES):
            print(first_difference(*pair))
        elif file == "summary.json":
            print("  keys: " + ", ".join(differing_keys(*map(_summary, pair))))
    return len(files)


def _run(src: Path, cli_args: list[str]) -> subprocess.CompletedProcess:
    """Run the `adaptpw` of the `src` tree with `cli_args`, capturing its text output."""
    env = dict(
        os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2", PYTHONPATH=str(src),
        PYTHONHASHSEED="0", PYTHONWARNINGS="ignore",
    )
    cmd = [sys.executable, "-m", "adaptpw.cli", *cli_args]
    return subprocess.run(cmd, env=env, capture_output=True, text=True)


def compare_pool(trees: dict[str, Path], tmp: Path, seeds: list[int]) -> tuple[int, int]:
    """Run every pool member of `seeds` through both trees; (files compared, files differing).

    A run that exits non-zero raises a RuntimeError.
    """
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads as wl

    files = differing = 0
    for seed in seeds:
        for name, w in wl.WORKLOADS.items():
            for instance_seed in wl.instance_seeds(seed, w.pool):
                member = f"{name}-{seed}-{instance_seed}"
                outdirs = [tmp / tree / member / "out" for tree in trees]
                for src, outdir in zip(trees.values(), outdirs):
                    config = outdir.parent / "config.json"
                    outdir.parent.mkdir(parents=True)
                    config.write_text(json.dumps(wl.make_config(name, instance_seed, str(outdir))))
                    proc = _run(src, wl.cli_args(name, str(config)))
                    if proc.returncode != 0:
                        raise RuntimeError(f"{member} exited {proc.returncode}:\n{proc.stderr}")
                files += len(list(outdirs[0].iterdir()))
                differing += report(outdirs, member)
    return files, differing


def compare_reachable(
    trees: dict[str, Path], tmp: Path, labels: list[str] | None = None
) -> tuple[int, int]:
    """Run the `tests/test_reachable.py` configs through both trees; (outputs compared, differing).

    A run's outputs are its files, its exit code, stdout and stderr. `labels`
    picks configs by label; all of them by default.
    """
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from test_reachable import RUNS, write_config

    compared = differing = 0
    for label in RUNS if labels is None else labels:
        outdirs, streams = [], []
        for tree, src in trees.items():
            directory = tmp / tree / "reachable"
            directory.mkdir(parents=True, exist_ok=True)
            proc = _run(src, [arg for arg in write_config(directory, label) if arg != "--quiet"])
            outdirs.append(directory / label)
            streams.append([str(proc.returncode)] + [
                text.replace(str(directory), "<dir>") for text in (proc.stdout, proc.stderr)
            ])
        for name, parent, change in zip(("exit code", "stdout", "stderr"), *streams):
            if parent != change:
                differing += 1
                print(f"differs: reachable-{label}/{name}")
                print(f"  parent: {parent!r}\n  change: {change!r}")
        compared += 3 + (len(list(outdirs[0].iterdir())) if outdirs[0].is_dir() else 0)
        differing += report(outdirs, f"reachable-{label}")
    return compared, differing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout whose src tree is the baseline")
    parser.add_argument("--seed", type=int, action="append", required=True)
    args = parser.parse_args(argv)

    trees = {"parent": args.parent.resolve() / "src", "change": ROOT / "src"}
    with tempfile.TemporaryDirectory() as tmp:
        files, differing = compare_pool(trees, Path(tmp), args.seed)
        print(f"{differing} of {files} files differ")
        outputs, reachable = compare_reachable(trees, Path(tmp))
        print(f"{reachable} of {outputs} files, exit codes and streams of reachable runs differ")
    return 1 if differing or reachable else 0


if __name__ == "__main__":
    sys.exit(main())
