import math

import numpy as np
import pytest

from adaptpw import (
    AdaptiveConfig,
    AdmissibilityWarning,
    SpectralField,
    run_eigen,
    run_source,
)
from conftest import trig_potential


def inline_reference_lambda(m, c, beta, k):
    ks = np.arange(-m, m + 1)
    h = np.zeros((len(ks), len(ks)))
    for i, a in enumerate(ks):
        for j, b in enumerate(ks):
            if a == b:
                h[i, j] = a * a + c
            elif abs(a - b) == 1:
                h[i, j] = beta
    return float(np.linalg.eigvalsh(h)[k])


def test_config_validation():
    with pytest.raises(ValueError):
        AdaptiveConfig(dim=4)
    with pytest.raises(ValueError):
        AdaptiveConfig(dim=1, theta_tilde=1.0)
    with pytest.raises(ValueError):
        AdaptiveConfig(dim=1, zeta=0.6, theta_tilde=0.5)
    with pytest.raises(ValueError):
        AdaptiveConfig(dim=1, M0=0)
    with pytest.raises(ValueError):
        AdaptiveConfig(dim=1, mode="bogus")
    with pytest.raises(ValueError):
        AdaptiveConfig(dim=1, tol=math.nan)
    with pytest.raises(ValueError):
        AdaptiveConfig(dim=1)._replace(mode="bogus")
    assert AdaptiveConfig(dim=1)._replace(mode="source").mode == "source"


def test_records_are_immutable(cosine_potential):
    cfg = AdaptiveConfig(dim=1, M0=1, tol=1e-2)
    record = run_eigen(cfg, cosine_potential).records[0]
    for obj, name in ((cosine_potential, "nu_lower"), (record, "eta_tilde"), (cfg, "tol")):
        with pytest.raises(AttributeError):
            setattr(obj, name, 0.0)


def test_constant_potential_terminates_immediately(constant_potential):
    cfg = AdaptiveConfig(dim=1, M0=2, k0=0, n_eigs=1, tol=1e-8)
    run = run_eigen(cfg, constant_potential)
    assert run.termination_reason == "tol"
    assert len(run.records) == 1
    assert run.records[0].eta_tilde == 0.0
    assert run.records[0].values[0] == pytest.approx(1.0, abs=1e-14)


def test_trig_run_decreasing_and_accurate(cosine_potential):
    cfg = AdaptiveConfig(
        dim=1, M0=1, k0=0, n_eigs=1, theta_tilde=0.5, zeta=0.2, tol=1e-6, max_iter=30
    )
    run = run_eigen(cfg, cosine_potential)
    assert run.termination_reason == "tol"
    etas = [r.eta_tilde for r in run.records]
    assert all(b < a for a, b in zip(etas, etas[1:]))
    lam_ref = inline_reference_lambda(64, 1.0, 0.5, 0)
    assert run.final_cluster.eigenvalues[0] == pytest.approx(lam_ref, abs=1e-6)
    # tol-stop certifies the exact estimator below tol
    last = run.records[-1]
    assert last.eta_exact <= (1.0 + cfg.zeta) * last.eta_tilde + 1e-15
    assert (1.0 + cfg.zeta) * last.eta_tilde < cfg.tol


def test_budget_termination_and_monotone_improvement(cosine_potential):
    # tol = 0 must terminate via budgets; for this analytic potential the
    # markable residual underflows to exactly zero around refinement 12,
    # which counts as exact termination in working precision
    cfg = AdaptiveConfig(
        dim=1, M0=1, k0=0, n_eigs=1, theta_tilde=0.5, zeta=0.2, tol=0.0, max_iter=15
    )
    run = run_eigen(cfg, cosine_potential)
    assert run.termination_reason in ("max_iter", "exact")
    last = run.records[-1].n
    if run.termination_reason == "max_iter":
        assert last == 15
    assert [r.n for r in run.records] == list(range(last + 1))
    sizes = [r.index_set_size for r in run.records]
    assert all(b > a for a, b in zip(sizes, sizes[1:]))
    lam_ref = inline_reference_lambda(64, 1.0, 0.5, 0)
    err5 = run.records[5].values[0] - lam_ref
    err_last = run.records[-1].values[0] - lam_ref
    assert err_last < err5


def test_budget_termination_exact_count(cosine_potential):
    # away from the round-off floor the budget is hit exactly
    cfg = AdaptiveConfig(
        dim=1, M0=1, k0=0, n_eigs=1, theta_tilde=0.5, zeta=0.2, tol=0.0, max_iter=7
    )
    run = run_eigen(cfg, cosine_potential)
    assert run.termination_reason == "max_iter"
    assert [r.n for r in run.records] == list(range(8))


def test_max_dof_termination(cosine_potential):
    cfg = AdaptiveConfig(dim=1, M0=1, tol=0.0, max_iter=100, max_dof=10, zeta=0.2)
    run = run_eigen(cfg, cosine_potential)
    assert run.termination_reason == "max_dof"
    assert run.records[-1].index_set_size >= 10


def test_nesting_and_monotone_eigenvalues(cosine_potential):
    cfg = AdaptiveConfig(dim=1, M0=1, n_eigs=2, tol=0.0, max_iter=8, zeta=0.2)
    run = run_eigen(cfg, cosine_potential)
    sizes = [r.index_set_size for r in run.records]
    assert all(b > a for a, b in zip(sizes, sizes[1:]))
    for prev, cur in zip(run.index_sets, run.index_sets[1:]):
        assert all(cur.positions(prev.entries) >= 0)
    for l in range(2):
        lams = [r.values[l] for r in run.records]
        assert all(b <= a + 1e-12 for a, b in zip(lams, lams[1:]))


def test_exact_and_feasible_paths_coincide_for_small_zeta():
    spec_pot = trig_potential(1, 1.0, {(1,): 0.4, (3,): 0.2})
    base = dict(dim=1, M0=1, k0=0, n_eigs=1, theta_tilde=0.5, tol=0.0, max_iter=6)
    run_exact = run_eigen(AdaptiveConfig(mode="eigen-exact", zeta=0.0, **base), spec_pot)
    run_feas = run_eigen(AdaptiveConfig(mode="eigen-feasible", zeta=1e-12, **base), spec_pot)
    assert len(run_exact.records) == len(run_feas.records)
    for a, b in zip(run_exact.index_sets, run_feas.index_sets):
        assert a == b
    for ra, rb in zip(run_exact.records, run_feas.records):
        assert ra.eta_tilde == rb.eta_tilde


def test_admissibility_warning_emitted(constant_potential):
    cfg = AdaptiveConfig(dim=1, theta_tilde=0.9, zeta=0.1, tol=1e-8)
    with pytest.warns(AdmissibilityWarning):
        run = run_eigen(cfg, constant_potential)
    assert not run.admissible


def test_reproducible_records(cosine_potential):
    cfg = AdaptiveConfig(dim=1, M0=1, tol=0.0, max_iter=6, zeta=0.2)
    r1 = run_eigen(cfg, cosine_potential)
    r2 = run_eigen(cfg, cosine_potential)
    for a, b in zip(r1.records, r2.records):
        assert a.values == b.values
        assert a.eta_tilde == b.eta_tilde
        assert a.index_set_size == b.index_set_size


# -- source loop ---------------------------------------------------------------


def test_source_constant_e0():
    c = 2.0
    v = trig_potential(1, c, {})
    cfg = AdaptiveConfig(dim=1, theta_tilde=0.9, zeta=0.0, tol=1e-12, mode="source")
    run = run_source(cfg, v, [SpectralField.unit(1, (0,))])
    assert run.termination_reason in ("tol", "exact")
    assert run.index_sets[0].to_list() == []
    assert run.index_sets[1].to_list() == [(0,)]
    assert run.final_solutions[0].coefficient((0,)) == pytest.approx(1.0 / c, rel=1e-14)
    assert run.records[0].eta_tilde == pytest.approx(1.0, rel=1e-15)


def test_source_pair_rhs():
    c = 2.0
    v = trig_potential(1, c, {})
    f = SpectralField.unit(1, (1,))
    cfg = AdaptiveConfig(dim=1, theta_tilde=0.5, zeta=0.0, tol=1e-12, mode="source")
    run = run_source(cfg, v, [f])
    assert run.index_sets[1].to_list() == [(-1,), (1,)]
    assert len(run.records) == 2
    assert run.final_solutions[0].coefficient((1,)) == pytest.approx(
        1.0 / (1.0 + c), rel=1e-14
    )


def test_source_contraction(cosine_potential):
    from adaptpw.operator import solve_source
    from adaptpw.frequency import ball
    from adaptpw.verify import fit_rates, source_errors

    cfg = AdaptiveConfig(
        dim=1, theta_tilde=0.6, zeta=0.0, tol=0.0, max_iter=6, mode="source"
    )
    run = run_source(cfg, cosine_potential, [SpectralField.unit(1, (0,))])
    ref = solve_source(ball(64, 1), cosine_potential, [SpectralField.unit(1, (0,))])
    errs = source_errors(run, ref, cosine_potential)
    fit = fit_rates(run.records, errs)
    # contraction certified to be at least rho(theta) = sqrt(1 - a*/a^* theta^2)
    a_lo = max(cosine_potential.alpha_lower, 0.0)
    rho = math.sqrt(1.0 - (a_lo / cosine_potential.alpha_upper) * 0.6**2)
    assert fit.alpha_hat < 1.0
    assert fit.alpha_hat <= rho + 1e-12
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_three_dimensional_runs():
    v = trig_potential(3, 1.0, {})
    # the |G|^2 = 1 shell in d=3 is 6-fold, so N=7 is a clean cluster
    run = run_eigen(AdaptiveConfig(dim=3, M0=1, k0=0, n_eigs=7, tol=1e-8), v)
    assert run.termination_reason == "tol"
    assert np.allclose(run.records[0].values, (1.0,) + (2.0,) * 6, atol=1e-12)
    v3 = trig_potential(3, 1.0, {(1, 0, 0): 0.3})
    run3 = run_eigen(
        AdaptiveConfig(dim=3, M0=1, k0=0, n_eigs=1, tol=1e-4, zeta=0.2, max_iter=6), v3
    )
    assert run3.termination_reason == "tol"
    etas = [r.eta_tilde for r in run3.records]
    assert all(b < a for a, b in zip(etas, etas[1:]))


def test_source_requires_mode():
    v = trig_potential(1, 1.0, {})
    with pytest.raises(ValueError):
        run_source(AdaptiveConfig(dim=1), v, [SpectralField.unit(1, (0,))])
    with pytest.raises(ValueError):
        run_eigen(AdaptiveConfig(dim=1, mode="source"), v)


@pytest.mark.parametrize("mode", ["eigen-feasible", "eigen-exact"])
def test_source_rejects_eigen_modes(mode):
    v = trig_potential(1, 1.0, {})
    with pytest.raises(ValueError, match="run_source requires mode 'source'"):
        run_source(AdaptiveConfig(dim=1, mode=mode), v, [SpectralField.unit(1, (0,))])


def _source_budget_run(potential, **budget):
    cfg = AdaptiveConfig(dim=1, theta_tilde=0.5, zeta=0.0, tol=0.0, mode="source", **budget)
    return run_source(cfg, potential, [SpectralField.unit(1, (0,))])


def test_source_budget_termination(cosine_potential):
    # the budgets stop the source loop by the eigen loop's rules
    run = _source_budget_run(cosine_potential, max_iter=4)
    assert run.termination_reason == "max_iter"
    assert [r.n for r in run.records] == list(range(5))
    run = _source_budget_run(cosine_potential, max_iter=100, max_dof=9)
    assert run.termination_reason == "max_dof"
    sizes = [r.index_set_size for r in run.records]
    assert sizes[-1] >= 9 and all(s < 9 for s in sizes[:-1])
    for run in (_source_budget_run(cosine_potential, max_iter=4), run):
        # the start set is empty, so every frequency counts as added
        assert all(r.dof_delta == r.index_set_size for r in run.records)
        assert all(r.marked_pairs > 0 for r in run.records[:-1])
        assert run.records[-1].marked_pairs == 0
        assert len(run.marks) == len(run.records) - 1


def test_source_first_estimate_is_data_norm(cosine_potential):
    # the empty set's Galerkin solutions are zero, so the first residuals
    # are the data and eta_tilde is their H^-1 norm
    rhs = [
        SpectralField.from_pairs(1, {(0,): 1.0, (2,): 0.5, (-2,): 0.5}),
        SpectralField.from_pairs(1, {(3,): 2.0, (-3,): 2.0}),
    ]
    cfg = AdaptiveConfig(dim=1, theta_tilde=0.5, zeta=0.0, tol=0.0, max_iter=2, mode="source")
    run = run_source(cfg, cosine_potential, rhs)
    first = run.records[0]
    data_norm = math.sqrt(sum(f.hs_norm(-1.0) ** 2 for f in rhs))
    assert first.index_set_size == 0
    assert first.values == (0.0, 0.0)
    assert first.eta_tilde == pytest.approx(data_norm, rel=1e-15)
    assert first.eta_exact == first.eta_tilde
