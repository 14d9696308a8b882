"""Check that a change keeps every output file of the benchmark pool byte-identical.

    python3 tools/same_outputs.py PARENT_CHECKOUT --seed 7 --seed 11

Every pool member that `perfbench/run.py --seed S` would run (the configs
and arguments come from `perfbench/workloads.py`) runs once through the
`src` tree of PARENT_CHECKOUT and once through this checkout's, with
OPENBLAS_NUM_THREADS=2 (outputs depend on the BLAS thread count). The two
output directories must hold the same files with the same bytes;
summary.json is compared without `wall_time_s` and the output directory.
Each differing file is printed, a CSV or JSONL file with its first
differing line on each side and both line counts, and the exit code is 1
on any difference.
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


def differing_files(a: Path, b: Path) -> list[str]:
    """Names of the files that differ between output directories a and b, or exist in one only."""
    names = sorted({p.name for d in (a, b) for p in d.iterdir() if p.is_file()})
    out = []
    for name in names:
        pa, pb = a / name, b / name
        if not (pa.is_file() and pb.is_file()):
            out.append(name)
        elif name == "summary.json":
            if _summary(pa) != _summary(pb):
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


def _run(src: Path, cli_args: list[str]) -> None:
    """Run the `adaptpw` of the `src` tree with `cli_args`; a RuntimeError if it fails."""
    env = dict(
        os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2", PYTHONPATH=str(src),
        PYTHONHASHSEED="0", PYTHONWARNINGS="ignore",
    )
    cmd = [sys.executable, "-m", "adaptpw.cli", *cli_args]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr.decode()}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout whose src tree is the baseline")
    parser.add_argument("--seed", type=int, action="append", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads as wl

    trees = {"parent": args.parent.resolve() / "src", "change": ROOT / "src"}
    files = differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seed:
            for name, w in wl.WORKLOADS.items():
                for instance_seed in wl.instance_seeds(seed, w.pool):
                    member = f"{name}-{seed}-{instance_seed}"
                    outdirs = [Path(tmp) / tree / member / "out" for tree in trees]
                    for src, outdir in zip(trees.values(), outdirs):
                        config = outdir.parent / "config.json"
                        outdir.parent.mkdir(parents=True)
                        raw = wl.make_config(name, instance_seed, str(outdir))
                        config.write_text(json.dumps(raw))
                        _run(src, wl.cli_args(name, str(config)))
                    files += len(list(outdirs[0].iterdir()))
                    for file in differing_files(*outdirs):
                        differing += 1
                        print(f"differs: {member}/{file}")
                        pair = [d / file for d in outdirs]
                        if file.endswith(_TEXT_SUFFIXES) and all(p.is_file() for p in pair):
                            print(first_difference(*pair))
    print(f"{differing} of {files} files differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
