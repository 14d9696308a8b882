"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Shared adaptive runs are built once per module; criteria that share a run
(3, 4 and 7 use the same 8-refinement cosine run) see identical data.
Runtime budgets are asserted against the wall time of the work each
criterion depends on.
"""

import itertools
import json
import math
import time
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from adaptpw import (
    AdaptiveConfig,
    ClusterBoundaryWarning,
    SpectralField,
    ball,
    dorfler_mark,
    fit_rates,
    reference_solve,
    run_distances,
    run_eigen,
    run_source,
)
from adaptpw.cli import build_potential, main, matched_error_comparison, uniform_sweep
from adaptpw.operator import solve_source
from adaptpw.verify import source_errors
from conftest import trig_potential

RD_SPEC = {"family": "random-decay", "amplitude": 1.0, "p": 2.5, "r_cut": 32}
RD_SEED = 7


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, f"criterion {num} ({name}): {detail}"


@dataclass
class TimedRun:
    run: object
    potential: object
    seconds: float
    ref: object = None
    distances: list = None
    per_group: list = None


@pytest.fixture(scope="module")
def smoke_run():
    t0 = time.perf_counter()
    pot = trig_potential(1, 1.0, {})
    cfg = AdaptiveConfig(dim=1, M0=2, k0=0, n_eigs=3, tol=1e-8)
    run = run_eigen(cfg, pot)
    return TimedRun(run=run, potential=pot, seconds=time.perf_counter() - t0)


@pytest.fixture(scope="module")
def cosine_run():
    """Criterion 3's run: 8 refinements with the exactness-limited cosine potential."""
    t0 = time.perf_counter()
    pot = trig_potential(1, 1.0, {(1,): 1.0})
    cfg = AdaptiveConfig(
        dim=1, M0=1, k0=0, n_eigs=1, theta_tilde=0.5, zeta=0.1, tol=0.0, max_iter=8
    )
    run = run_eigen(cfg, pot)
    ref = reference_solve(pot, 0, 1, 64)
    rep = run_distances(run, ref)
    return TimedRun(
        run=run, potential=pot, seconds=time.perf_counter() - t0,
        ref=ref, distances=rep.totals, per_group=rep.per_group,
    )


@pytest.fixture(scope="module")
def trig_tol_run():
    pot = trig_potential(1, 1.0, {(1,): 1.0})
    cfg = AdaptiveConfig(dim=1, M0=2, k0=0, n_eigs=1, zeta=0.2, tol=1e-6)
    return TimedRun(run=run_eigen(cfg, pot), potential=pot, seconds=0.0)


@pytest.fixture(scope="module")
def rd_run():
    """Criterion 9's run: random-decay potential, 12 refinements, plus sweep."""
    t0 = time.perf_counter()
    pot, meta = build_potential(RD_SPEC, 1, seed=RD_SEED)
    cfg = AdaptiveConfig(
        dim=1, M0=2, k0=0, n_eigs=2, theta_tilde=0.5, zeta=0.4, tol=0.0, max_iter=12
    )
    run = run_eigen(cfg, pot)
    ref = reference_solve(pot, 0, 2, 64)
    rep = run_distances(run, ref)
    tr = TimedRun(
        run=run, potential=pot, seconds=0.0,
        ref=ref, distances=rep.totals, per_group=rep.per_group,
    )
    m_hi = int(math.ceil(run.final_index_set.max_radius())) + 1
    tr.sweep = uniform_sweep(pot, 0, 2, list(range(2, m_hi + 1)), ref)
    tr.seconds = time.perf_counter() - t0
    return tr


@pytest.fixture(scope="module")
def d2_run():
    """Criterion 10's run: perturbed two-dimensional potential, warning audit."""
    t0 = time.perf_counter()
    pot = trig_potential(2, 1.0, {(1, 0): 0.3, (0, 1): 0.3})
    cfg = AdaptiveConfig(
        dim=2, M0=2, k0=0, n_eigs=5, theta_tilde=0.5, zeta=0.1, tol=0.0, max_iter=6
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run = run_eigen(cfg, pot)
        ref = reference_solve(pot, 0, 5, 12)
        rep = run_distances(run, ref)
    tr = TimedRun(
        run=run, potential=pot, seconds=time.perf_counter() - t0,
        ref=ref, distances=rep.totals, per_group=rep.per_group,
    )
    tr.boundary_warnings = [
        w for w in caught if issubclass(w.category, ClusterBoundaryWarning)
    ]
    return tr


@pytest.fixture(scope="module")
def source_run():
    t0 = time.perf_counter()
    pot = trig_potential(1, 1.0, {(1,): 1.0})
    cfg = AdaptiveConfig(
        dim=1, theta_tilde=0.6, zeta=0.0, tol=0.0, max_iter=6, mode="source"
    )
    rhs = [SpectralField.unit(1, (0,))]
    run = run_source(cfg, pot, rhs)
    ref_sols = solve_source(ball(64, 1), pot, rhs)
    errors = source_errors(run, ref_sols, pot)
    tr = TimedRun(run=run, potential=pot, seconds=time.perf_counter() - t0)
    tr.errors = errors
    return tr


# -- criteria ------------------------------------------------------------------


def test_criterion_01_exactness_smoke(smoke_run):
    rec = smoke_run.run.records[0]
    ok = (
        len(smoke_run.run.records) == 1
        and rec.eta_tilde == 0.0
        and np.allclose(rec.values, (1.0, 2.0, 2.0), atol=1e-12)
        and smoke_run.seconds < 1.0
    )
    _report(
        1, "exactness smoke test", ok,
        f"eta={rec.eta_tilde}, lambdas={rec.values}, {smoke_run.seconds:.2f}s",
    )


def test_criterion_02_galerkin_orthogonality(
    smoke_run, trig_tol_run, rd_run, d2_run, source_run
):
    """On-set residual coefficients vanish relative to each run's residual scale."""
    worst = 0.0
    worst_label = ""
    for label, tr in [
        ("smoke", smoke_run), ("trig-tol", trig_tol_run), ("random-decay", rd_run),
        ("dim2", d2_run), ("source", source_run),
    ]:
        scale = max(rec.residual_max for rec in tr.run.records)
        if scale == 0.0:
            continue
        for rec in tr.run.records:
            ratio = rec.residual_onset_max / scale
            if ratio > worst:
                worst, worst_label = ratio, f"{label} n={rec.n}"
    _report(
        2, "Galerkin orthogonality", worst < 1e-9,
        f"max on-set ratio {worst:.3e} at {worst_label}",
    )


def test_criterion_03_estimator_equivalence(cosine_run):
    records = cosine_run.run.records
    ok_len = len(records) >= 9  # 8 refinements
    ratios = [
        d / rec.eta_exact for d, rec in zip(cosine_run.distances, records)
    ][2:]
    window = max(ratios) / min(ratios)
    ok = ok_len and window <= 10.0 and cosine_run.seconds < 30.0
    _report(
        3, "estimator equivalence", ok,
        f"window {window:.2f} over iterations 2..{records[-1].n}, "
        f"{cosine_run.seconds:.1f}s",
    )


def test_criterion_04_linear_convergence(cosine_run):
    fit = fit_rates(cosine_run.run.records, cosine_run.distances)
    ok = fit.alpha_hat < 0.95 and fit.alpha_r2 > 0.9
    _report(
        4, "linear convergence", ok,
        f"alpha_hat {fit.alpha_hat:.3f}, r2 {fit.alpha_r2:.3f}",
    )


def test_criterion_05_feasibility_sandwich(cosine_run, rd_run):
    worst_low = math.inf
    worst_high = -math.inf
    nontrivial = 0
    for tr in (cosine_run, rd_run):
        zeta = tr.run.config.zeta
        for rec in tr.run.records:
            lo = (1.0 - zeta) * rec.eta_tilde - 1e-12
            hi = (1.0 + zeta) * rec.eta_tilde + 1e-12
            worst_low = min(worst_low, rec.eta_exact - lo)
            worst_high = max(worst_high, rec.eta_exact - hi)
            if rec.zeta_actual > 0.0:
                nontrivial += 1
    ok = worst_low >= 0.0 and worst_high <= 0.0 and nontrivial >= 1
    _report(
        5, "feasibility sandwich", ok,
        f"slack low {worst_low:.2e}, high {worst_high:.2e}, "
        f"{nontrivial} genuinely truncated iterations",
    )


def test_criterion_06_marking_minimality():
    t0 = time.perf_counter()

    def brute_force(vals, target):
        for k in range(len(vals) + 1):
            if any(sum(c) >= target for c in itertools.combinations(vals, k)):
                return k
        return None

    rng = np.random.default_rng(2024)
    hits = 0
    trials = 200
    for _ in range(trials):
        n = int(rng.integers(1, 13))
        reps = [(int(k),) for k in rng.choice(np.arange(1, 50), size=n, replace=False)]
        vals = rng.uniform(0.01, 1.0, size=n)
        theta = float(rng.uniform(0.05, 0.95))
        total = float(np.sum(vals))
        res = dorfler_mark((reps, vals), theta, total, dim=1)
        if res.pairs_marked == brute_force(list(vals), theta * theta * total):
            hits += 1
    dt = time.perf_counter() - t0
    ok = hits == trials and dt < 5.0
    _report(6, "marking minimality", ok, f"{hits}/{trials} minimal, {dt:.1f}s")


def test_criterion_07_eigenvalue_squared_rate(cosine_run):
    lam_ref = float(cosine_run.ref.cluster.eigenvalues[0])
    records = cosine_run.run.records
    ratios = [
        (rec.values[0] - lam_ref) / d**2
        for rec, d in zip(records, cosine_run.distances)
    ][2:]
    ok = min(ratios) > 0.0 and max(ratios) / min(ratios) <= 20.0
    _report(
        7, "eigenvalue squared rate", ok,
        "ratios from iteration 2: " + ", ".join(f"{r:.3g}" for r in ratios),
    )


def test_criterion_08_monotonicity(smoke_run, cosine_run, rd_run, d2_run):
    ok = True
    detail = []
    for label, tr in [
        ("smoke", smoke_run), ("cosine", cosine_run), ("random-decay", rd_run),
        ("dim2", d2_run),
    ]:
        for l in range(len(tr.run.records[0].values)):
            lams = [rec.values[l] for rec in tr.run.records]
            if not all(b <= a + 1e-12 for a, b in zip(lams, lams[1:])):
                ok = False
                detail.append(f"{label} eigenvalue {l + 1} not monotone")
    errs = [row.max_eigenvalue_error for row in rd_run.sweep]
    if not all(b <= a + 1e-12 for a, b in zip(errs, errs[1:])):
        ok = False
        detail.append("uniform sweep errors not monotone")
    _report(8, "monotonicity", ok, "; ".join(detail) or "all runs monotone")


def test_criterion_09_complexity_slope(rd_run):
    records = rd_run.run.records
    fit = fit_rates(records, rd_run.distances)
    comp = matched_error_comparison(rd_run.run, rd_run.distances, rd_run.sweep)
    ok = (
        len(records) >= 11  # 10 refinements
        and fit.s_hat > 0.0
        and fit.s_r2 > 0.85
        and comp["dof_ratio"] <= 1.5
        and rd_run.seconds < 60.0
    )
    _report(
        9, "complexity slope", ok,
        f"s_hat {fit.s_hat:.2f} (r2 {fit.s_r2:.3f}), dof ratio "
        f"{comp['dof_ratio']:.2f}, {rd_run.seconds:.1f}s",
    )


def test_criterion_10_degenerate_cluster(d2_run):
    # constant potential: ground state plus exactly degenerate 4-fold shell
    pot_const = trig_potential(2, 1.0, {})
    ref_const = reference_solve(pot_const, 0, 5, 8)
    shell_ok = bool(
        np.allclose(ref_const.cluster.eigenvalues, [1.0, 2.0, 2.0, 2.0, 2.0], atol=1e-12)
    )
    no_warnings = len(d2_run.boundary_warnings) == 0
    mono = True
    for gi in range(len(d2_run.per_group[0])):
        seq = [pg[gi] for pg in d2_run.per_group]
        for n in range(2, len(seq) - 1):
            if not seq[n + 1] < seq[n] * (1.0 + 1e-12):
                mono = False
    ok = shell_ok and no_warnings and mono and d2_run.seconds < 60.0
    _report(
        10, "degenerate cluster", ok,
        f"boundary warnings {len(d2_run.boundary_warnings)}, per-group monotone "
        f"{mono}, {d2_run.seconds:.1f}s",
    )


def test_criterion_11_source_loop(source_run):
    fit = fit_rates(source_run.run.records, source_run.errors)
    ok = fit.alpha_hat < 1.0 and fit.alpha_r2 > 0.9 and source_run.seconds < 10.0
    _report(
        11, "source loop contraction", ok,
        f"ratio {fit.alpha_hat:.3f}, r2 {fit.alpha_r2:.3f}, {source_run.seconds:.1f}s",
    )


def test_criterion_12_reproducibility(tmp_path):
    raw = {
        "problem": {"dim": 1, "k0": 0, "n_eigs": 2, "potential": dict(RD_SPEC)},
        "algorithm": {
            "mode": "eigen-feasible", "theta_tilde": 0.5, "zeta": 0.4, "tol": 0.0,
            "M0": 2, "max_iter": 12,
        },
        "verification": {"M_ref": 64},
        "output": {"directory": ""},
        "seed": RD_SEED,
    }
    blobs = []
    for tag in ("a", "b"):
        outdir = tmp_path / tag
        raw["output"]["directory"] = str(outdir)
        cfg_path = tmp_path / f"config_{tag}.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["run", str(cfg_path), "--quiet"]) == 0
        blobs.append((outdir / "iterations.csv").read_bytes())
    ok = blobs[0] == blobs[1]
    _report(12, "reproducibility", ok, f"{len(blobs[0])} bytes, byte-identical {ok}")
