"""Benchmark workloads: seeded experiment configs and the check of each run's outputs.

Every workload is a random-decay potential (amplitude 1, p = 2.5) whose
phases come from an instance seed. A benchmark run draws a pool of instance
seeds from its `--seed`, so one run averages over several potentials and
the figures of two seeds differ by instance variety divided by the pool
size, not by the spread of a single potential.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dim: int
    r_cut: int
    n_eigs: int
    mode: str  # value of `adaptpw run --mode`
    tol: float
    m_ref: int | None  # None switches verification off
    pool: int  # distinct potentials per benchmark run
    rhs: tuple = ()


# Reference radii and tolerances keep one `adaptpw run` at 2-4 s on a 2-CPU
# machine, so that a 40 s benchmark run covers its whole pool, while each
# workload keeps the layer split it exists for. Each tol maximises, over the
# pool of seed 7, the smallest relative distance of the last two eta_tilde
# values from the stopping threshold (4-4.3% here), so that round-off-level
# changes cannot change an iteration count.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="adapt3d",
            why=(
                "3D adaptive eigen loop alone, verification off: lattice lookups, "
                "convolutions and the truncation search do the work, dense eigh is "
                "negligible"
            ),
            dim=3, r_cut=4, n_eigs=1, mode="eigen-feasible", tol=9.53e-3, m_ref=None,
            pool=10,
        ),
        Workload(
            name="compare2d",
            why=(
                "2D adaptive vs uniform dof at matched error: reference eigh, Cholesky "
                "frames, subspace distances and the uniform sweep dominate, the "
                "adaptive loop is short"
            ),
            dim=2, r_cut=8, n_eigs=2, mode="compare", tol=1.2e-2, m_ref=16, pool=8,
        ),
        Workload(
            name="source2d",
            why=(
                "2D source problem: Cholesky instead of eigh, exact residuals with no "
                "truncation search, empty start set; verification is convolution on "
                "the reference ball"
            ),
            dim=2, r_cut=8, n_eigs=1, mode="source", tol=2.03e-2, m_ref=8, pool=8,
            # e_0 + (e_(3,1) + e_(-3,-1))/2 and e_(2,-5) + e_(-2,5)
            rhs=(
                ((0, 0, 1.0), (3, 1, 0.5), (-3, -1, 0.5)),
                ((2, -5, 1.0), (-2, 5, 1.0)),
            ),
        ),
    )
}

THETA = 0.5
ZETA = 0.1
M0 = 2

#: largest accepted residual_onset_max / residual_max: the Galerkin
#: orthogonality defect sits at the solvers' backward error (~1e-13 here)
ORTHO_RATIO_MAX = 1e-9

#: round-off slack of the Courant-Fischer check final >= reference eigenvalue
EIG_ROUNDOFF = 1e-9


def instance_seeds(seed: int, count: int) -> list[int]:
    """The pool of potential seeds a benchmark seed stands for."""
    rng = random.Random(f"adaptpw-bench:{seed}")
    return [rng.randrange(2**31) for _ in range(count)]


def make_config(name: str, instance_seed: int, outdir: str) -> dict:
    """The JSON config `adaptpw run` receives for one workload instance."""
    w = WORKLOADS[name]
    problem = {
        "dim": w.dim,
        "k0": 0,
        "n_eigs": w.n_eigs,
        "potential": {"family": "random-decay", "amplitude": 1.0, "p": 2.5, "r_cut": w.r_cut},
    }
    if w.rhs:
        problem["rhs"] = [
            [{"index": [a, b], "re": re} for a, b, re in triples] for triples in w.rhs
        ]
    verification = {"enable_subspace_distance": w.m_ref is not None}
    if w.m_ref is not None:
        verification["M_ref"] = w.m_ref
    return {
        "problem": problem,
        "algorithm": {
            "mode": "source" if w.mode == "source" else "eigen-feasible",
            "theta_tilde": THETA,
            "zeta": ZETA,
            "tol": w.tol,
            "M0": M0,
        },
        "verification": verification,
        "output": {"directory": outdir, "formats": ["csv", "json"]},
        "seed": instance_seed,
    }


def config_sha256(config: dict) -> str:
    """Fingerprint of a config apart from where its outputs go."""
    body = {**config, "output": {**config["output"], "directory": ""}}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def cli_args(name: str, config_path: str) -> list[str]:
    """Arguments of `adaptpw` for one run of the workload."""
    return ["run", config_path, "--mode", WORKLOADS[name].mode, "--quiet"]


@dataclass(frozen=True)
class RunOutputs:
    dof: int
    iterations: int
    csv_sha256: str
    output_bytes: int
    margins: tuple[float, float]
    problems: tuple[str, ...]


def check_outputs(name: str, outdir: Path) -> RunOutputs:
    """Read one run's output files and list every violated expectation."""
    w = WORKLOADS[name]
    problems: list[str] = []
    csv_bytes = (outdir / "iterations.csv").read_bytes()
    summary = json.loads((outdir / "summary.json").read_text())
    rows = list(csv.DictReader(csv_bytes.decode().splitlines()))
    if not rows:
        problems.append("iterations.csv has no rows")
        return RunOutputs(0, 0, "", 0, (math.nan, math.nan), tuple(problems))
    last = rows[-1]

    if summary.get("termination_reason") != "tol":
        problems.append(f"termination {summary.get('termination_reason')!r}, not 'tol'")
    if "verification_skipped" in summary:
        problems.append(f"verification skipped: {summary['verification_skipped']}")
    if not float(last["eta_exact"]) <= w.tol:
        problems.append(f"final eta_exact {last['eta_exact']} > tol {w.tol}")
    for row in rows:
        if not float(row["zeta_actual"]) <= ZETA:
            problems.append(f"iteration {row['n']}: zeta_actual {row['zeta_actual']} > {ZETA}")
        onset, top = float(row["residual_onset_max"]), float(row["residual_max"])
        if not onset <= ORTHO_RATIO_MAX * top:
            problems.append(
                f"iteration {row['n']}: Galerkin orthogonality defect {onset:.3e} "
                f"of residual max {top:.3e}"
            )
    dof = int(summary.get("final_dof", -1))
    if dof != int(last["index_set_size"]):
        problems.append(f"summary final_dof {dof} != last row {last['index_set_size']}")
    if w.mode == "compare":
        final = summary.get("final_eigenvalues", [])
        ref = summary.get("reference_eigenvalues", [])
        if len(final) != w.n_eigs or len(ref) != w.n_eigs:
            problems.append("compare run lacks final or reference eigenvalues")
        for lam, lam_ref in zip(final, ref):
            # the run's sets lie inside the reference ball, so Courant-Fischer
            # bounds every discrete eigenvalue below by the reference one
            if lam < lam_ref - EIG_ROUNDOFF * max(1.0, abs(lam_ref)):
                problems.append(f"eigenvalue {lam!r} below reference {lam_ref!r}")
        if summary.get("comparison", {}).get("uniform_dof", -1) < 1:
            problems.append("no uniform ball matched the adaptive error")
    # relative slack of the last two eta_tilde values around the stopping
    # threshold; both positive means the run stopped by tol with that margin
    threshold = w.tol if w.mode == "source" else w.tol / (1.0 + ZETA)
    etas = [float(r["eta_tilde"]) for r in rows]
    before = etas[-2] / threshold - 1.0 if len(etas) > 1 else math.inf
    output_bytes = sum(p.stat().st_size for p in outdir.iterdir() if p.is_file())
    return RunOutputs(
        dof=dof,
        iterations=len(rows),
        csv_sha256=hashlib.sha256(csv_bytes).hexdigest(),
        output_bytes=output_bytes,
        margins=(1.0 - etas[-1] / threshold, before),
        problems=tuple(problems),
    )
