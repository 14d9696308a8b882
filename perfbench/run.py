"""Time-to-solution benchmark of `adaptpw run` on seeded workloads.

    python3 perfbench/run.py --workload adapt3d --seed 7 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 40 --trace 1

Each workload run is a sequence of fresh `adaptpw run` child processes, one
at a time, over a pool of potentials drawn from `--seed`, for `--seconds`
(the first pass over the pool always completes). Every child's outputs are
checked, and `iterations.csv` must hash the same whenever one pool member
is rerun with the same code and thread count.

With `--trace 0` it reports the end-to-end metrics: time_to_solution_s
(spawn to exit), setup_s (spawn to the built and verified potential),
peak_rss_mb and dof_to_tol. With `--trace 1` it alternates untraced and
traced children on the first pool member and reports per-layer spans and
counters (see spans.py) plus the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; a full report with the recorded
environment and per-child fingerprints goes to .perfbench/. The exit code
is 1 when any child fails its output check and 2 when the program sources
are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import spans as tracing
import workloads as wl

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

#: a workload run ends within this many seconds: a child still running then
#: is killed and counted as failed, and no further child starts
HARD_LIMIT_S = 170.0


def monotonic() -> float:
    # system-wide clock, so parent and child timestamps are comparable
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Child:
    instance_seed: int
    traced: bool
    wall_s: float
    setup_s: float | None
    rss_mb: float
    exit_code: int
    config_sha256: str = ""
    dof: int = 0
    iterations: int = 0
    csv_sha256: str = ""
    output_bytes: int = 0
    margins: tuple[float, float] | None = None
    problems: list[str] = field(default_factory=list)
    layers: dict | None = None


def child_env(threads: int) -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS=str(threads),
        OMP_NUM_THREADS=str(threads),
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        PYTHONWARNINGS="ignore",
    )
    return env


def run_child(
    name: str, instance_seed: int, workdir: Path, env: dict, traced: bool,
    timeout: float = HARD_LIMIT_S,
) -> Child:
    """Spawn one `adaptpw run`, wait for it, check its outputs."""
    run_id = f"{len(list(workdir.iterdir())):04d}-{instance_seed}"
    d = workdir / run_id
    d.mkdir()
    outdir = d / "out"
    config = wl.make_config(name, instance_seed, str(outdir))
    (d / "config.json").write_text(json.dumps(config))
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--marks", str(d / "marks.json")]
    if traced:
        cmd += ["--spans", str(d / "spans.json"), "--run-id", run_id]
    cmd += ["--", *wl.cli_args(name, str(d / "config.json"))]

    with open(d / "stderr.txt", "wb") as err:
        start = monotonic()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        end = monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)

    child = Child(
        instance_seed=instance_seed,
        traced=traced,
        wall_s=end - start,
        setup_s=None,
        rss_mb=usage.ru_maxrss / 1024.0,
        exit_code=proc.returncode,
        config_sha256=wl.config_sha256(config),
    )
    if proc.returncode != 0:
        tail = (d / "stderr.txt").read_text(errors="replace").strip().splitlines()[-3:]
        child.problems.append(f"exit code {proc.returncode}: {' | '.join(tail)}")
        return child
    marks = json.loads((d / "marks.json").read_text())
    if "setup_done" in marks:
        child.setup_s = marks["setup_done"] - start
    else:
        child.problems.append("potential was never built")
    try:
        out = wl.check_outputs(name, outdir)
    except (OSError, ValueError, KeyError) as exc:
        child.problems.append(f"unreadable outputs: {exc!r}")
        return child
    child.dof, child.iterations = out.dof, out.iterations
    child.csv_sha256, child.output_bytes = out.csv_sha256, out.output_bytes
    child.problems.extend(out.problems)
    child.margins = out.margins
    if traced:
        recorded = json.loads((d / "spans.json").read_text())
        child.layers = tracing.summarize(recorded["spans"], recorded["counters"])
        child.layers["cli.output_bytes"] = out.output_bytes
    return child


# -- determinism fingerprints -------------------------------------------------


def code_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "adaptpw").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def check_fingerprints(name: str, children: list[Child], threads: int) -> None:
    """Mark children whose iterations.csv differs from an earlier run of the same code.

    Earlier runs are this run's first child per config and every run
    recorded in .perfbench/fingerprints.json for the same code, config and
    BLAS thread count.
    """
    path = STATE / "fingerprints.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    mine = known.setdefault(code_sha256(), {})
    for c in children:
        if not c.csv_sha256:
            continue
        key = f"{name}/{c.instance_seed}/{c.config_sha256[:16]}/threads={threads}"
        expected = mine.setdefault(key, c.csv_sha256)
        if c.csv_sha256 != expected:
            c.problems.append(f"iterations.csv sha256 {c.csv_sha256[:12]} != {expected[:12]} earlier")
    path.write_text(json.dumps(known, indent=1, sort_keys=True))


# -- aggregation --------------------------------------------------------------


def by_instance(children: list[Child], value) -> list[float]:
    """Median of `value` per pool member, in pool order."""
    groups: dict[int, list[float]] = {}
    for c in children:
        groups.setdefault(c.instance_seed, []).append(value(c))
    return [statistics.median(v) for v in groups.values()]


def end_to_end(children: list[Child]) -> dict[str, tuple]:
    """Pool means of per-member medians; setup is independent of the member."""
    return {
        "time_to_solution_s": (statistics.fmean(by_instance(children, lambda c: c.wall_s)), "s"),
        "setup_s": (statistics.median(c.setup_s for c in children), "s"),
        "peak_rss_mb": (statistics.fmean(by_instance(children, lambda c: c.rss_mb)), "MB"),
        "dof_to_tol": (statistics.fmean(by_instance(children, lambda c: c.dof)), "count"),
    }


def per_layer(untraced: list[Child], traced: list[Child]) -> dict[str, tuple]:
    keys = traced[0].layers.keys()
    out = {}
    for key in keys:
        value = statistics.median(c.layers[key] for c in traced)
        unit = "s" if key.endswith("_s") or key.endswith(".s") else "count"
        out[key] = (value, unit)
    out["operator.dense_bytes_peak"] = (out["operator.dense_bytes_peak"][0], "computed_bytes")
    out["estimator.truncation_kept_ratio"] = (out["estimator.truncation_kept_ratio"][0], "ratio")
    out["cli.output_bytes"] = (out["cli.output_bytes"][0], "bytes")
    overhead = statistics.median(c.wall_s for c in traced) - statistics.median(
        c.wall_s for c in untraced
    )
    out["trace.overhead_s"] = (overhead, "s")
    return out


# -- one workload -------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, threads: int):
    w = wl.WORKLOADS[name]
    pool = wl.instance_seeds(seed, w.pool)
    env = child_env(threads)
    workdir = STATE / "work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    children: list[Child] = []
    start = monotonic()
    deadline, hard_deadline = start + seconds, start + HARD_LIMIT_S

    def spawn(instance_seed: int, traced: bool) -> None:
        left = hard_deadline - monotonic()
        children.append(run_child(name, instance_seed, workdir, env, traced, timeout=left))

    try:
        if trace:
            # untraced and traced children alternate on one pool member, so
            # their difference is the tracing overhead
            while True:
                spawn(pool[0], traced=False)
                spawn(pool[0], traced=True)
                pair = children[-1].wall_s + children[-2].wall_s
                if monotonic() + pair > deadline:
                    break
        else:
            for i in itertools.count():
                if i >= len(pool):
                    same = [c.wall_s for c in children if c.instance_seed == pool[i % len(pool)]]
                    if monotonic() + statistics.median(same) > deadline:
                        break
                if monotonic() > hard_deadline:
                    break
                spawn(pool[i % len(pool)], traced=False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_fingerprints(name, children, threads)

    good = [c for c in children if not c.problems]
    failed = len(children) - len(good)
    metrics: dict[str, tuple] = {}
    if trace:
        untraced = [c for c in good if not c.traced]
        traced = [c for c in good if c.traced]
        if untraced and traced:
            metrics = per_layer(untraced, traced)
    elif good:
        metrics = end_to_end(good)
    return children, failed, metrics


# -- environment and report ---------------------------------------------------


def git_commit() -> str | None:
    """HEAD of a git checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int, threads: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "seed": seed,
        "nproc": threads,
        "OPENBLAS_NUM_THREADS": threads,
        "OMP_NUM_THREADS": threads,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "git_commit": git_commit(),
        "code_sha256": code_sha256(),
    }


def print_workload(name: str, children: list[Child], failed: int, metrics: dict, trace: bool):
    w = wl.WORKLOADS[name]
    print(f"== {name}: {w.why}")
    print(
        f"   children {len(children)}, failed {failed}, error_rate "
        f"{failed / len(children):.3f}, pool {sorted({c.instance_seed for c in children})}"
    )
    for c in children:
        if c.problems:
            print(f"   FAILED seed {c.instance_seed}: {'; '.join(c.problems)}")
    if trace and metrics:
        wall = statistics.median(c.wall_s for c in children if c.traced and not c.problems)
        print(f"   traced child wall {wall:.3f} s; layer self time and share of it:")
        for layer in tracing.LAYERS:
            s = metrics[f"{layer}.self_s"][0]
            print(f"     {layer:<10} {s:8.3f} s  {100 * s / wall:5.1f} %")
        print("   boundaries (calls, inclusive s, self s):")
        for span in tracing.SPAN_NAMES:
            calls = metrics[f"{span}.calls"][0]
            print(
                f"     {span:<32} {calls:8.0f} {metrics[f'{span}.s'][0]:8.3f} "
                f"{metrics[f'{span}.self_s'][0]:8.3f}"
            )
    for key, (value, unit) in metrics.items():
        if not trace or not key.endswith((".calls", ".s", ".self_s")):
            print(f"   {key} = {value:.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "adaptpw" / "cli.py").is_file():
        print(f"adaptpw sources not found under {SRC}", file=sys.stderr)
        return 2
    import compileall

    # byte-compile once so that no child pays for it
    compileall.compile_dir(SRC, quiet=1)
    threads = len(os.sched_getaffinity(0))
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)

    attempted = failed = 0
    metrics: dict[str, dict] = {}
    report = {"environment": environment(args.seed, threads), "workloads": {}}
    print("env: " + json.dumps(report["environment"], sort_keys=True))
    for name in names:
        children, n_failed, values = run_workload(name, args.seed, args.seconds, trace, threads)
        print_workload(name, children, n_failed, values, trace)
        attempted += len(children)
        failed += n_failed
        prefix = "" if len(names) == 1 else f"{name}."
        for key, (value, unit) in values.items():
            metrics[prefix + key] = {"value": value, "unit": unit}
        report["workloads"][name] = {
            "children": [asdict(c) for c in children],
            "metrics": {k: list(v) for k, v in values.items()},
        }
    STATE.mkdir(exist_ok=True)
    (STATE / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1)
    )
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
