"""Split the wall time of `adaptpw run` benchmark children into five phases.

    python3 tools/child_phases.py --seed 7 --children 20
    python3 tools/child_phases.py --parent PARENT_CHECKOUT --seed 7 --children 20

Each child runs one pool member of a perfbench workload (configs and
arguments from `perfbench/workloads.py`, environment from
`perfbench/run.py`) through a `-c` wrapper that takes CLOCK_MONOTONIC
marks, so a child's time from spawn to exit splits into:

  start   spawn until the wrapper's first line: interpreter start and `site`
  import  `import adaptpw.cli`, numpy included
  setup   `main` until the potential is built and verified
  run     the rest of `main`: the adaptive loop, verification and outputs
  exit    `main` returning until the process has exited: the interpreter's
          finalization, which perfbench's child does not mark
  wall    the sum, spawn to exit, as perfbench's time_to_solution_s times it

Children run one at a time, `--children` per workload and tree, cycling
over the pool. With `--parent`, children of the parent's `src` tree and of
this checkout's alternate, and both are reported. Each `src` tree is
byte-compiled first: perfbench children inherit PYTHONDONTWRITEBYTECODE
when it is set, and a stale `.pyc` then costs about 30 ms of import in
every child. The table gives per phase the median and the quartiles, in
ms; a child that exits non-zero stops the tool.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import run as bench  # noqa: E402  (perfbench/run.py)
import workloads as wl  # noqa: E402

PHASES = ("start", "import", "setup", "run", "exit", "wall")

_WRAPPER = """\
import time
marks = [time.clock_gettime(time.CLOCK_MONOTONIC)]
import json, sys
from adaptpw import cli
marks.append(time.clock_gettime(time.CLOCK_MONOTONIC))
build = cli.build_potential
def build_potential(*args, **kwargs):
    result = build(*args, **kwargs)
    marks.append(time.clock_gettime(time.CLOCK_MONOTONIC))
    return result
cli.build_potential = build_potential
code = cli.main(sys.argv[2:])
marks.append(time.clock_gettime(time.CLOCK_MONOTONIC))
with open(sys.argv[1], "w") as fh:
    json.dump(marks, fh)
sys.exit(code)
"""


def child_phases(src: Path, name: str, instance_seed: int, workdir: Path) -> list[float]:
    """Seconds spent in each of PHASES by one child of workload `name`."""
    workdir.mkdir(parents=True)
    config, marks = workdir / "config.json", workdir / "marks.json"
    config.write_text(json.dumps(wl.make_config(name, instance_seed, str(workdir / "out"))))
    env = {**bench.child_env(len(os.sched_getaffinity(0))), "PYTHONPATH": str(src)}
    cmd = [sys.executable, "-c", _WRAPPER, str(marks), *wl.cli_args(name, str(config))]
    spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    end = time.clock_gettime(time.CLOCK_MONOTONIC)
    if proc.returncode != 0:
        err = proc.stderr.decode()
        raise RuntimeError(f"{name} {instance_seed} exited {proc.returncode}:\n{err}")
    points = [spawn, *json.loads(marks.read_text()), end]
    return [b - a for a, b in zip(points, points[1:])] + [end - spawn]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="checkout whose src tree is also timed")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--children", type=int, default=20, help="children per workload and tree")
    parser.add_argument("--workload", choices=[*wl.WORKLOADS, "all"], default="all")
    args = parser.parse_args(argv)
    if args.children < 2:
        parser.error("--children must be at least 2 for quartiles")

    trees = {"change": ROOT / "src"}
    if args.parent is not None:
        trees = {"parent": args.parent.resolve() / "src", **trees}
    for src in trees.values():
        compileall.compile_dir(src, quiet=1)
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    print(f"{'workload':<10} {'tree':<7}" + "".join(f" {p:>21}" for p in PHASES))
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            pool = wl.instance_seeds(args.seed, wl.WORKLOADS[name].pool)
            times: dict[str, list[list[float]]] = {tree: [] for tree in trees}
            for i in range(args.children):
                # alternate which tree runs first, so neither always follows the other
                order = list(trees.items()) if i % 2 == 0 else list(trees.items())[::-1]
                for tree, src in order:
                    workdir = Path(tmp) / tree / name / f"{i:04d}"
                    times[tree].append(child_phases(src, name, pool[i % len(pool)], workdir))
            for tree, rows in times.items():
                cells = []
                for column in zip(*rows):
                    q1, q2, q3 = (1e3 * q for q in statistics.quantiles(column, n=4))
                    cells.append(f" {q2:6.1f} ({q1:5.1f}-{q3:5.1f})")
                print(f"{name:<10} {tree:<7}" + "".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
