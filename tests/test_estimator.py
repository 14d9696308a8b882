import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adaptpw.estimator as estimator
from adaptpw import (
    AdaptiveConfig,
    IndexSet,
    SpectralField,
    assemble,
    ball,
    choose_truncation,
    cluster_estimate,
    eta,
    eta_cluster,
    hs_norm,
    residual,
    run_eigen,
    solve_eigen,
    solve_source,
    source_residual,
    truncated_residual,
)
from adaptpw.cli import build_potential
from conftest import coefficient, exhaustive_truncation, trig_potential

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def rd_potential():
    spec = {"family": "random-decay", "amplitude": 1.0, "p": 2.5, "r_cut": 8}
    pot, _ = build_potential(spec, 1, seed=13)
    return pot


@pytest.fixture(scope="module")
def rd_potential_wide():
    spec = {"family": "random-decay", "amplitude": 1.0, "p": 2.5, "r_cut": 32}
    pot, _ = build_potential(spec, 1, seed=7)
    return pot


# -- residual -----------------------------------------------------------------


def test_residual_exact_eigenpair_is_zero():
    c = 1.5
    v = trig_potential(1, c, {})
    r = residual(SpectralField.from_pairs(1, {(0,): 1.0}), c, v)
    assert eta(r) == pytest.approx(0.0, abs=1e-15)
    assert r.truncation_bound == 0.0


def test_residual_trig_hand_values():
    c, beta = 1.0, 0.25
    v = trig_potential(1, c, {(1,): 2 * beta})
    # on G = {0} the discrete eigenpair is (c, e_0)
    r = residual(SpectralField.from_pairs(1, {(0,): 1.0}), c, v)
    assert coefficient(r.field, (1,)) == pytest.approx(-beta, rel=1e-13)
    assert coefficient(r.field, (-1,)) == pytest.approx(-beta, rel=1e-13)
    assert abs(coefficient(r.field, (0,))) <= 1e-15


def test_residual_linear_in_lambda():
    v = trig_potential(1, 1.0, {(1,): 0.5})
    u = SpectralField.from_pairs(1, {(0,): 0.8, (1,): 0.3, (-1,): 0.3})
    r1 = residual(u, 1.0, v)
    r2 = residual(u, 1.0 + 0.25, v)
    diff = r2.field.coefficients_on(r1.support) - r1.field.coefficients_on(r1.support)
    assert np.allclose(diff, 0.25 * u.coefficients_on(r1.support), atol=1e-14)


# -- eta ----------------------------------------------------------------------


def test_eta_trig_case():
    c, beta = 1.0, 0.25
    v = trig_potential(1, c, {(1,): 2 * beta})
    r = residual(SpectralField.from_pairs(1, {(0,): 1.0}), c, v)
    assert eta(r) == pytest.approx(beta, rel=1e-13)
    assert eta(r) == pytest.approx(hs_norm(r.field, -1.0), rel=1e-14)


def test_eta_cluster_pythagorean():
    v = trig_potential(1, 1.0, {})
    zero = residual(SpectralField.from_pairs(1, {(0,): 1.0}), 1.0, v)
    assert eta_cluster([zero, zero]) == pytest.approx(0.0, abs=1e-15)

    class Fake:
        pass

    r3 = Fake()
    r3.per_frequency = np.array([9.0])
    r3.support = IndexSet(1, [[1]])
    r4 = Fake()
    r4.per_frequency = np.array([16.0])
    r4.support = IndexSet(1, [[2]])
    assert eta_cluster([r3, r4]) == pytest.approx(5.0, rel=1e-15)


# -- truncated residual ---------------------------------------------------------


def test_truncated_equals_exact_beyond_support(rd_potential):
    v = trig_potential(1, 1.0, {(1,): 0.5})
    u = SpectralField.from_pairs(1, {(0,): 1.0, (1,): 0.2, (-1,): 0.2})
    exact = residual(u, 0.8, v)
    trunc = truncated_residual(u, 0.8, v, 1)
    assert trunc.truncation_bound == 0.0
    assert np.allclose(
        trunc.field.coefficients_on(exact.support), exact.field.coeffs, atol=1e-15
    )
    # at the support radius the truncated potential is the potential itself,
    # and both residuals must come out of the same arithmetic bit for bit
    u = SpectralField.from_pairs(1, {(0,): 1.0, (2,): 0.3 + 0.1j, (-2,): 0.3 - 0.1j})
    exact = residual(u, 1.7, rd_potential)
    trunc = truncated_residual(u, 1.7, rd_potential, rd_potential.support_radius())
    assert np.array_equal(trunc.support.entries, exact.support.entries)
    assert np.array_equal(trunc.field.coeffs, exact.field.coeffs)
    assert trunc.truncation_bound == 0.0


def test_truncated_overtruncation_example():
    c, beta = 1.0, 0.25
    v = trig_potential(1, c, {(1,): 2 * beta})
    r = truncated_residual(SpectralField.from_pairs(1, {(0,): 1.0}), c, v, 0)
    assert eta(r) == pytest.approx(0.0, abs=1e-15)
    assert r.truncation_bound == pytest.approx(2 * beta, rel=1e-13)


def test_truncation_bound_nonincreasing(rd_potential):
    u = SpectralField.from_pairs(1, {(0,): 1.0, (1,): 0.1, (-1,): 0.1})
    bounds = [truncated_residual(u, 1.0, rd_potential, m).truncation_bound for m in range(9)]
    assert all(b2 <= b1 + 1e-15 for b1, b2 in zip(bounds, bounds[1:]))
    assert bounds[-1] == 0.0


# -- choose_truncation ----------------------------------------------------------


def test_choose_truncation_certifies(rd_potential):
    s = ball(2, 1)
    cluster = solve_eigen(assemble(s, rd_potential), 0, 2)
    fields = cluster.fields()
    lams = [float(x) for x in cluster.eigenvalues]
    rs_exact = [residual(u, lam, rd_potential) for u, lam in zip(fields, lams)]
    for zeta in (0.1, 0.3, 0.5):
        m, rs = choose_truncation(fields, lams, rd_potential, zeta, rs_exact)
        bound = math.sqrt(sum(r.truncation_bound**2 for r in rs))
        assert bound <= zeta * eta_cluster(rs) + 1e-15


def test_choose_truncation_exact_pair():
    c = 2.0
    v = trig_potential(1, c, {})
    u = SpectralField.from_pairs(1, {(0,): 1.0})
    m, rs = choose_truncation([u], [c], v, 0.5, [residual(u, c, v)])
    assert eta_cluster(rs) == pytest.approx(0.0, abs=1e-15)
    assert rs[0].truncation_bound == 0.0


def test_choose_truncation_sandwich(rd_potential_wide):
    """Certified bound implies the two-sided feasibility inequality."""
    pot = rd_potential_wide
    s = ball(2, 1)
    cluster = solve_eigen(assemble(s, pot), 0, 2)
    fields = cluster.fields()
    lams = [float(x) for x in cluster.eigenvalues]
    zeta = 0.4
    rs_exact = [residual(u, lam, pot) for u, lam in zip(fields, lams)]
    m, rs = choose_truncation(fields, lams, pot, zeta, rs_exact)
    assert m < pot.support_radius()  # actually truncated on a coarse set
    assert math.sqrt(sum(r.truncation_bound**2 for r in rs)) > 0.0
    eta_tilde = eta_cluster(rs)
    eta_exact = eta_cluster(rs_exact)
    assert (1 - zeta) * eta_tilde - 1e-12 <= eta_exact <= (1 + zeta) * eta_tilde + 1e-12


def test_choose_truncation_trig_sandwich(cosine_potential):
    cluster = solve_eigen(assemble(ball(4, 1), cosine_potential), 0, 1)
    lam = float(cluster.eigenvalues[0])
    rs_exact = [residual(cluster.field(0), lam, cosine_potential)]
    m, rs = choose_truncation(cluster.fields(), [lam], cosine_potential, 0.2, rs_exact)
    eta_tilde = eta_cluster(rs)
    exact = eta_cluster(rs_exact)
    assert (1 - 0.2) * eta_tilde <= exact + 1e-12
    assert exact <= (1 + 0.2) * eta_tilde + 1e-12


# -- certified skip of the truncation search --------------------------------------


@st.composite
def truncation_case(draw):
    """Random fields against a 1D-3D random-decay potential, 1-3 members."""
    dim = draw(st.sampled_from([1, 2, 3]))
    r_cut = draw(st.integers(1, {1: 16, 2: 8, 3: 4}[dim]))
    spec = {"family": "random-decay", "amplitude": 1.0, "p": 2.5, "r_cut": r_cut}
    pot, _ = build_potential(spec, dim, seed=draw(st.integers(0, 2**16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    support = ball(draw(st.integers(0, 3)), dim)
    members = draw(st.integers(1, 3))
    fields = [
        SpectralField(support, rng.normal(size=len(support)) + 1j * rng.normal(size=len(support)))
        for _ in range(members)
    ]
    lams = [float(x) for x in rng.uniform(0.0, 10.0, members)]
    return pot, fields, lams


@settings(max_examples=60, deadline=None)
@given(truncation_case(), st.data())
def test_truncated_estimator_within_exact_plus_bound(case, data):
    pot, fields, lams = case
    radius = data.draw(st.integers(0, pot.support_radius()))
    rs_exact = [residual(u, lam, pot) for u, lam in zip(fields, lams)]
    rs = [truncated_residual(u, lam, pot, radius) for u, lam in zip(fields, lams)]
    bound = math.sqrt(sum(r.truncation_bound**2 for r in rs))
    assert eta_cluster(rs) <= eta_cluster(rs_exact) + bound * (1 + 1e-12)


def assert_same_search(fields, lams, pot, zeta):
    rs_exact = [residual(u, lam, pot) for u, lam in zip(fields, lams)]
    m, rs = choose_truncation(fields, lams, pot, zeta, rs_exact)
    m_ref, rs_ref = exhaustive_truncation(fields, lams, pot, zeta, rs_exact)
    assert m == m_ref
    assert len(rs) == len(rs_ref)
    for r, r_ref in zip(rs, rs_ref):
        assert r.truncation_bound == r_ref.truncation_bound
        assert np.array_equal(r.support.keys, r_ref.support.keys)
        assert np.array_equal(r.field.coeffs, r_ref.field.coeffs)
    return m


@settings(max_examples=60, deadline=None)
@given(truncation_case(), st.floats(0.0, 0.95))
def test_choose_truncation_matches_exhaustive_search(case, zeta):
    pot, fields, lams = case
    assert_same_search(fields, lams, pot, zeta)


@pytest.mark.parametrize(
    "dim, r_cut, radius, n_eigs, zeta, truncated",
    # the first case is test_choose_truncation_sandwich's
    [(1, 32, 2, 2, 0.4, True), (1, 8, 2, 2, 0.1, False), (2, 8, 2, 2, 0.1, False),
     (3, 4, 1, 1, 0.3, False)],
)
def test_choose_truncation_matches_exhaustive_search_on_clusters(
    dim, r_cut, radius, n_eigs, zeta, truncated
):
    spec = {"family": "random-decay", "amplitude": 1.0, "p": 2.5, "r_cut": r_cut}
    pot, _ = build_potential(spec, dim, seed=7)
    cluster = solve_eigen(assemble(ball(radius, dim), pot), 0, n_eigs)
    lams = [float(x) for x in cluster.eigenvalues]
    m = assert_same_search(cluster.fields(), lams, pot, zeta)
    assert (m < pot.support_radius()) == truncated


def test_feasible_loop_computes_no_truncated_residual(monkeypatch):
    # every radius of this run is skipped; test_choose_truncation_sandwich
    # still accepts a truncated radius, which needs truncated_residual
    calls = []
    real = estimator.truncated_residual

    def counted(*args):
        calls.append(args[3])
        return real(*args)

    monkeypatch.setattr(estimator, "truncated_residual", counted)
    spec = {"family": "random-decay", "amplitude": 1.0, "p": 2.5, "r_cut": 4}
    pot, _ = build_potential(spec, 3, seed=7)
    run = run_eigen(AdaptiveConfig(dim=3, tol=1e-2, zeta=0.1), pot)
    assert run.termination_reason == "tol" and len(run.records) > 2
    assert all(rec.truncation_M == pot.support_radius() for rec in run.records)
    assert calls == []


# -- source residual -------------------------------------------------------------


def test_source_residual_zero_solution_returns_data():
    v = trig_potential(1, 1.0, {(1,): 0.5})
    f = SpectralField.from_pairs(1, {(1,): 0.7, (-1,): 0.7})
    r = source_residual(SpectralField.zero(1), f, v)
    assert np.allclose(r.field.coefficients_on(f.support), f.coeffs, atol=1e-15)


def test_source_residual_exact_solution():
    c = 2.0
    v = trig_potential(1, c, {})
    e1 = SpectralField.from_pairs(1, {(1,): 1.0})
    r = source_residual(SpectralField.from_pairs(1, {(1,): 1.0 / (1.0 + c)}), e1, v)
    assert eta(r) <= 1e-15


def test_source_residual_galerkin_orthogonality():
    v = trig_potential(1, 1.0, {(1,): 1.0})
    s = ball(3, 1)
    f = SpectralField.from_pairs(1, {(0,): 1.0})
    (w,) = solve_source(s, v, [f])
    r = source_residual(w, f, v)
    inside = s.positions(r.support.entries) >= 0
    assert np.max(np.abs(r.field.coeffs[inside])) <= 1e-10


# -- cluster estimates ------------------------------------------------------------


def test_cluster_estimate_pairs_symmetric():
    v = trig_potential(1, 1.0, {(1,): 1.0})
    s = ball(3, 1)
    cluster = solve_eigen(assemble(s, v), 0, 2)
    rs = [residual(cluster.field(l), float(cluster.eigenvalues[l]), v) for l in range(2)]
    est = cluster_estimate(rs, s)
    for rep in est.pair_reps.tolist():
        assert tuple(rep) >= tuple(-x for x in rep)
    # on-set mass sits at the eigensolver's backward-error level
    total_sq = sum(float(np.sum(r.per_frequency)) for r in rs)
    assert total_sq - est.off_set_sq <= 1e-20
    assert est.total == math.sqrt(total_sq)
    assert est.zeta_actual == 0.0
