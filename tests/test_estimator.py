import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adaptpw.estimator as estimator
from adaptpw import (
    AdaptiveConfig,
    IndexSet,
    Residual,
    SpectralField,
    assemble,
    ball,
    choose_truncation,
    cluster_estimate,
    eta,
    eta_cluster,
    hs_norm,
    multiply,
    residual,
    run_eigen,
    solve_eigen,
    solve_source,
    source_residual,
    truncated_residual,
    union,
    verify_potential,
)
from adaptpw.cli import build_potential
from adaptpw.estimator import EstimatorValue, onset_offset_maxima
from adaptpw.frequency import lattice_keys
from adaptpw.spectral import norm_factor
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
    r3.total_sq = 9.0
    r4 = Fake()
    r4.total_sq = 16.0
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
    est = cluster_estimate(rs)
    for rep in est.pair_reps.tolist():
        assert tuple(rep) >= tuple(-x for x in rep)
    # on-set mass sits at the eigensolver's backward-error level
    total_sq = sum(float(np.sum(r.per_frequency)) for r in rs)
    assert total_sq - est.off_set_sq <= 1e-20
    assert est.total == math.sqrt(total_sq)
    assert est.zeta_actual == 0.0


# -- one-pass residuals against the union-and-lookup form ---------------------------


def oracle_residual(u, v, current, lam=0.0, f=None, bound=0.0):
    """The residual on supp u + supp(Vu) (+ supp f): two unions, three projections.

    Its on-set mask is looked up in `current` and its total summed here; its
    product is `multiply(v, u)` itself.
    """
    vu = multiply(v, u)
    support = union(u.support, vu.support)
    if f is not None:
        support = union(support, f.support)
    uc = u.coefficients_on(support)
    head = lam * uc if f is None else f.coefficients_on(support)
    r = head - support.norms_sq.astype(np.float64) * uc - vu.coefficients_on(support)
    per = np.abs(r) ** 2 / (1.0 + support.norms_sq.astype(np.float64))
    on_set = current.positions(support) >= 0
    return Residual(SpectralField(support, r), vu, float(bound), per, on_set, float(np.sum(per)))


def oracle_cluster_estimate(rs, current):
    """cluster_estimate with its own lookups in `current` and one np.sum per member."""
    total_sq = 0.0
    reps, contribs = [np.empty((0, current.dim), dtype=np.int64)], [np.empty(0)]
    for r in rs:
        total_sq += float(np.sum(r.per_frequency))
        outside = current.positions(r.support) < 0
        rows = r.support.entries[outside]
        is_rep = (r.support.pair_keys() == r.support.keys)[outside]
        reps.append(np.where(is_rep[:, None], rows, -rows))
        contribs.append(r.per_frequency[outside])
    reps = np.concatenate(reps)
    _, first, inverse = np.unique(lattice_keys(reps), return_index=True, return_inverse=True)
    order = np.argsort(first)
    pair_contribs = np.bincount(inverse, weights=np.concatenate(contribs))[order]
    total = math.sqrt(total_sq)
    b = math.sqrt(sum(r.truncation_bound**2 for r in rs))
    return EstimatorValue(
        total=total, pair_reps=reps[first[order]], pair_contribs=pair_contribs,
        zeta_actual=b / total if total > 0.0 else 0.0, off_set_sq=sum(pair_contribs.tolist()),
    )


def oracle_onset_offset_maxima(rs, current):
    onset = overall = 0.0
    for r in rs:
        if len(r.support) == 0:
            continue
        mags = np.abs(r.field.coeffs)
        overall = max(overall, float(mags.max()))
        inside = current.positions(r.support) >= 0
        if np.any(inside):
            onset = max(onset, float(mags[inside].max()))
    return onset, overall


def random_symmetric_set(rng, radius, dim, share):
    """A random subset of ball(radius) closed under negation, possibly empty."""
    b = ball(radius, dim)
    keep = rng.random(len(b)) < share
    keep |= keep[b.negation_permutation()]
    return IndexSet(dim, b.entries[keep])


def random_field(rng, support):
    n = len(support)
    return SpectralField(support, rng.normal(size=n) + 1j * rng.normal(size=n))


def assert_same_residual(r, oracle):
    assert np.array_equal(r.support.entries, oracle.support.entries)
    assert r.field.coeffs.tobytes() == oracle.field.coeffs.tobytes()
    assert np.array_equal(r.product.support.entries, oracle.product.support.entries)
    assert r.product.coeffs.tobytes() == oracle.product.coeffs.tobytes()
    assert r.per_frequency.tobytes() == oracle.per_frequency.tobytes()
    assert np.array_equal(r.on_set, oracle.on_set)
    assert r.total_sq == oracle.total_sq
    assert r.truncation_bound == oracle.truncation_bound


def assert_same_estimates(rs, oracles, current):
    est, ref = cluster_estimate(rs), oracle_cluster_estimate(oracles, current)
    assert (est.total, est.zeta_actual, est.off_set_sq) == (
        ref.total, ref.zeta_actual, ref.off_set_sq)
    assert np.array_equal(est.pair_reps, ref.pair_reps)
    assert est.pair_contribs.tobytes() == ref.pair_contribs.tobytes()
    assert onset_offset_maxima(rs) == oracle_onset_offset_maxima(oracles, current)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.sampled_from(["stored", "zero", "empty"]),
       st.integers(0, 2**32 - 1))
def test_one_pass_residuals_match_the_union_form(dim, kind, seed):
    """residual, truncated_residual and source_residual agree bit for bit with the oracle.

    A random positive potential stores V_0; V = 0 is given with no V_0, as
    zeros on a random symmetric set or as the empty field, and verified.
    """
    rng = np.random.default_rng(seed)
    vs = random_symmetric_set(rng, 2, dim, 0.4)
    if kind == "stored":
        v = random_field(rng, union(vs, IndexSet(dim, [0] * dim)))
        c = v.coeffs.copy()
        c = 0.5 * c + 0.5 * np.conj(c[v.support.negation_permutation()])
        c[0] = 1.0 + np.sum(np.abs(c[1:]))  # V_0 first in canonical order
        pot = verify_potential(SpectralField(v.support, c))
    else:
        support = IndexSet(dim) if kind == "empty" else IndexSet(dim, vs.entries[vs.norms_sq > 0])
        pot = verify_potential(SpectralField(support, np.zeros(len(support))))
    current = random_symmetric_set(rng, 3, dim, 0.5)
    us = [random_field(rng, current) for _ in range(2)]
    lams = [float(x) for x in rng.uniform(0.0, 10.0, 2)]
    radius = int(rng.integers(0, pot.support_radius() + 2))

    exact = [residual(u, lam, pot) for u, lam in zip(us, lams)]
    truncated = [truncated_residual(u, lam, pot, radius) for u, lam in zip(us, lams)]
    fs = [random_field(rng, random_symmetric_set(rng, 5, dim, 0.1)) for _ in range(2)]
    source = [source_residual(u, f, pot) for u, f in zip(us, fs)]
    oracles = {
        "exact": [oracle_residual(u, pot.field, current, lam) for u, lam in zip(us, lams)],
        "truncated": [
            oracle_residual(
                u, pot.truncated_field(radius), current, lam,
                bound=norm_factor(dim) * pot.tail_l1(radius) * u.l2_norm(),
            )
            for u, lam in zip(us, lams)
        ],
        "source": [oracle_residual(u, pot.field, current, f=f) for u, f in zip(us, fs)],
    }
    for rs, label in ((exact, "exact"), (truncated, "truncated"), (source, "source")):
        for r, oracle in zip(rs, oracles[label]):
            assert_same_residual(r, oracle)
        assert_same_estimates(rs, oracles[label], current)
