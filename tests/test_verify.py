import math
import tracemalloc
import warnings

import numpy as np
import pytest

from adaptpw import (
    AdaptiveConfig,
    ClusterBoundaryWarning,
    ReferenceOperator,
    SpectralField,
    a_norm,
    assemble,
    ball,
    eigenvalue_gap_check,
    fit_rates,
    multiply,
    reference_solve,
    run_distances,
    run_eigen,
    run_source,
    solve_eigen,
    solve_eigen_block,
    solve_source,
    subspace_distance,
    union,
)
from adaptpw.adapt import IterationRecord
from adaptpw.cli import build_potential
from adaptpw.verify import (
    GROUP_GAP_RTOL, RankDeficiencyError, embed_columns, group_slices, source_errors,
)
from conftest import trig_potential


def fake_records(n, dofs):
    return [
        IterationRecord(
            n=i, index_set_size=dofs[i] + 5, dof_delta=dofs[i], values=(1.0,),
            eta_tilde=1.0, eta_exact=1.0, zeta_actual=0.0, truncation_M=1,
            marked_pairs=1, residual_onset_max=0.0, residual_max=1.0,
        )
        for i in range(n)
    ]


# -- reference solve --------------------------------------------------------


def test_reference_constant(constant_potential):
    ref = reference_solve(constant_potential, 0, 3, 10)
    assert np.allclose(ref.cluster.eigenvalues, [1.0, 2.0, 2.0], atol=1e-12)
    ok, below, above = eigenvalue_gap_check(ref)
    assert ok
    assert above == pytest.approx(1.5, abs=1e-12)


def test_reference_interior_cluster(constant_potential):
    ref = reference_solve(constant_potential, 1, 2, 10)
    assert np.allclose(ref.cluster.eigenvalues, [2.0, 2.0], atol=1e-12)


def test_reference_self_consistency(cosine_potential):
    r32 = reference_solve(cosine_potential, 0, 2, 32)
    r64 = reference_solve(cosine_potential, 0, 2, 64)
    assert np.allclose(r32.cluster.eigenvalues, r64.cluster.eigenvalues, atol=1e-10)


def test_gap_check_detects_cut_multiplet(constant_potential):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ref = reference_solve(constant_potential, 0, 2, 10)
    ok, below, above = eigenvalue_gap_check(ref)
    assert not ok
    ref_trig = reference_solve(trig_potential(1, 1.0, {(1,): 1.0}), 0, 2, 32)
    assert eigenvalue_gap_check(ref_trig)[0]


def test_reference_warns_on_cut_multiplet(constant_potential):
    # eigenvalues 1, 2, 2: a window of two cuts the pair at 2
    with pytest.warns(ClusterBoundaryWarning):
        reference_solve(constant_potential, 0, 2, 10)


def complex_reference_oracle(potential, k0, n_eigs, m_ref, clusters):
    """Reference eigenvalues and per-group distances from the complex Hermitian solve."""
    basis = ball(m_ref, potential.dim)
    ref = solve_eigen(assemble(basis, potential), k0, n_eigs)
    h = ReferenceOperator(basis, potential)
    groups = group_slices(ref.eigenvalues, GROUP_GAP_RTOL)
    distances = [
        [
            subspace_distance(
                embed_columns(c.vectors, c.basis, basis)[:, sl], ref.vectors[:, sl], h
            )
            for sl in groups
        ]
        for c in clusters
    ]
    return ref.eigenvalues, distances


@pytest.mark.parametrize(
    "dim, n_eigs, m_ref, spec, largest_group",
    [
        (2, 2, 12, {"family": "random-decay", "amplitude": 1.0, "p": 2.5, "r_cut": 8}, 1),
        # the symmetric perturbation keeps a degenerate pair of eigenvalues
        (2, 5, 10, {"family": "trig", "c": 1.0, "terms": [{"k": [1, 0], "a": 0.3},
                                                          {"k": [0, 1], "a": 0.3}]}, 2),
        (3, 2, 5, {"family": "random-decay", "amplitude": 1.0, "p": 2.5, "r_cut": 2}, 1),
    ],
)
def test_reference_matches_complex_oracle(dim, n_eigs, m_ref, spec, largest_group):
    pot, _ = build_potential(spec, dim, seed=7)
    cfg = AdaptiveConfig(dim=dim, M0=1, k0=0, n_eigs=n_eigs, tol=0.0, max_iter=4, zeta=0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run = run_eigen(cfg, pot)
        ref = reference_solve(pot, 0, n_eigs, m_ref)
        lam, expected = complex_reference_oracle(pot, 0, n_eigs, m_ref, run.clusters)
    assert max(sl.stop - sl.start for sl in ref.groups) == largest_group
    np.testing.assert_allclose(ref.cluster.eigenvalues, lam, rtol=0.0, atol=1e-12)
    got = [ref.group_distances(c) for c in run.clusters]
    assert min(min(d) for d in expected) > 1e-8
    np.testing.assert_allclose(got, expected, rtol=1e-10, atol=0.0)
    # the reference vectors are real functions: u_-G = conj(u_G)
    neg = ref.basis.negation_permutation()
    vec = ref.cluster.vectors
    assert np.max(np.abs(np.conj(vec[neg]) - vec)) <= 1e-15


def frame_distance_oracle(h, x, y):
    """subspace_distance through the Cholesky frame L^T of the real energy form."""
    frame = np.linalg.cholesky(h.dense()).T

    def orthonormal_frame(v):
        c = h.coords.from_coefficients(v)
        u, s, _ = np.linalg.svd(frame @ c.real + 1j * (frame @ c.imag), full_matrices=False)
        assert s[0] / s[-1] < 1e6
        return u

    qx, qy = orthonormal_frame(x), orthonormal_frame(y)
    return max(
        float(np.linalg.norm(qx - qy @ (qy.conj().T @ qx), 2)),
        float(np.linalg.norm(qy - qx @ (qx.conj().T @ qy), 2)),
    )


@pytest.mark.parametrize(
    "dim, m_ref, r_cut", [(2, 12, 8), (3, 5, 2)]
)
def test_distance_matches_cholesky_frame_oracle(dim, m_ref, r_cut):
    # the random-decay cases of test_reference_matches_complex_oracle, with
    # uniform-sweep balls on both sides of BLOCK_DENSE_MAX: whole-space eigh,
    # then LOBPCG
    sweep = {2: (9, 10), 3: (3, 4)}[dim]
    pot, _ = build_potential(
        {"family": "random-decay", "amplitude": 1.0, "p": 2.5, "r_cut": r_cut}, dim, seed=7
    )
    cfg = AdaptiveConfig(dim=dim, M0=1, k0=0, n_eigs=2, tol=0.0, max_iter=4, zeta=0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run = run_eigen(cfg, pot)
        ref = reference_solve(pot, 0, 2, m_ref)
        balls = [solve_eigen_block(ReferenceOperator(ball(m, dim), pot), 0, 2) for m in sweep]
    assert [stats.block_size == len(c.basis) for c, _, stats in balls] == [True, False]
    h = ReferenceOperator(ref.basis, pot)
    y = ref.cluster.vectors
    for cluster in run.clusters + [c for c, _, _ in balls]:
        x = embed_columns(cluster.vectors, cluster.basis, ref.basis)
        expected = [frame_distance_oracle(h, x[:, sl], y[:, sl]) for sl in ref.groups]
        assert min(expected) >= 1e-8
        got = [subspace_distance(x[:, sl], y[:, sl], ref.operator) for sl in ref.groups]
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=0.0)
        np.testing.assert_allclose(ref.group_distances(cluster), expected, rtol=1e-10, atol=0.0)
        both = frame_distance_oracle(h, x, y)
        assert subspace_distance(x, y, ref.operator) == pytest.approx(both, rel=1e-10, abs=0.0)


def test_reference_path_allocates_no_complex_square_array(compare2d_potential):
    # the matrix-free reference path holds no n x n array at all: one real
    # matrix alone (8 n^2 bytes) would reach the bound, a complex one (16
    # n^2) exceed it
    pot = compare2d_potential
    cfg = AdaptiveConfig(dim=2, M0=2, k0=0, n_eigs=2, tol=1.2e-2, zeta=0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run = run_eigen(cfg, pot)
    n = len(ball(16, 2))
    tracemalloc.start()
    try:
        ref = reference_solve(pot, 0, 2, 16)
        run_distances(run, ref)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n


# -- subspace distance --------------------------------------------------------


def test_distance_identical_subspaces(constant_potential):
    basis = ball(2, 1)
    h = ReferenceOperator(basis, constant_potential)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(len(basis), 2))
    assert subspace_distance(x, x.copy(), h) <= 1e-13


def test_distance_orthogonal_subspaces(constant_potential):
    basis = ball(1, 1)
    h = ReferenceOperator(basis, constant_potential)
    x = np.zeros((3, 1)); x[0, 0] = 1.0  # e_0
    y = np.zeros((3, 1)); y[2, 0] = 1.0  # e_1 (a-orthogonal for constant V)
    assert subspace_distance(x, y, h) == pytest.approx(1.0, abs=1e-12)


def test_distance_matches_sampling_oracle():
    v = trig_potential(1, 1.0, {(1,): 0.6})
    basis = ball(3, 1)  # 7-dim space
    h = assemble(basis, v)
    rng = np.random.default_rng(23)
    x = rng.normal(size=(7, 2))
    y = rng.normal(size=(7, 2))
    d = subspace_distance(x, y, ReferenceOperator(basis, v))

    # oracle: scan the a-unit circle of span(x), project each sample onto
    # span(y); coarse scan plus one local refinement reaches ~1e-8
    frame = np.linalg.cholesky(h.matrix).conj().T  # energy inner product = Euclidean
    zx = (frame @ x).real
    zy = (frame @ y).real
    qx, _ = np.linalg.qr(zx)
    qy, _ = np.linalg.qr(zy)

    def scan(lo, hi, n):
        phi = np.linspace(lo, hi, n)
        u = np.outer(qx[:, 0], np.cos(phi)) + np.outer(qx[:, 1], np.sin(phi))
        resid = u - qy @ (qy.T @ u)
        norms = np.linalg.norm(resid, axis=0)
        k = int(np.argmax(norms))
        return phi[k], float(norms[k])

    phi0, _ = scan(0.0, math.pi, 4000)
    h = math.pi / 4000
    _, worst = scan(phi0 - h, phi0 + h, 4000)
    assert d == pytest.approx(worst, abs=1e-6)


def test_distance_basis_change_invariance(cosine_potential):
    basis = ball(4, 1)
    h = ReferenceOperator(basis, cosine_potential)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(len(basis), 3))
    y = rng.normal(size=(len(basis), 3))
    d0 = subspace_distance(x, y, h)
    for _ in range(5):
        ax = rng.normal(size=(3, 3))
        ay = rng.normal(size=(3, 3))
        d = subspace_distance(x @ ax, y @ ay, h)
        assert d == pytest.approx(d0, abs=1e-10)
    assert 0.0 <= d0 <= 1.0
    assert subspace_distance(y, x, h) == pytest.approx(d0, abs=1e-10)


def test_distance_rank_deficiency(constant_potential):
    basis = ball(2, 1)
    h = ReferenceOperator(basis, constant_potential)
    x = np.zeros((5, 2))
    x[0, 0] = 1.0
    x[0, 1] = 1.0 + 1e-14  # numerically dependent columns
    y = np.eye(5)[:, :2]
    with pytest.raises(RankDeficiencyError):
        subspace_distance(x, y, h)


def test_group_slices():
    lam = np.array([1.0, 2.0, 2.0, 2.0000001, 3.0])
    slices = group_slices(lam, rtol=1e-6)
    assert slices == [slice(0, 1), slice(1, 4), slice(4, 5)]
    slices_fine = group_slices(lam, rtol=1e-9)
    assert slices_fine == [slice(0, 1), slice(1, 3), slice(3, 4), slice(4, 5)]


# -- rate fits -----------------------------------------------------------------


def test_fit_exact_geometric():
    errors = [1.0, 0.5, 0.25, 0.125]
    fit = fit_rates(fake_records(4, [0, 2, 4, 6]), errors)
    assert fit.alpha_hat == pytest.approx(0.5, rel=1e-12)
    assert fit.alpha_r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_flat_flagged():
    fit = fit_rates(fake_records(4, [0, 2, 4, 6]), [1.0, 1.0, 1.0, 1.0])
    assert fit.alpha_hat == pytest.approx(1.0, rel=1e-12)
    assert fit.status == "non-contracting"


def test_fit_power_law():
    dofs = [0, 4, 8, 16, 32, 64]
    errors = [1.0] + [3.0 * d**-2.0 for d in dofs[1:]]
    fit = fit_rates(fake_records(6, dofs), errors)
    assert fit.s_hat == pytest.approx(2.0, abs=1e-10)
    assert fit.s_r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_zero_errors_sentinel():
    fit = fit_rates(fake_records(4, [0, 2, 4, 6]), [1.0, 0.5, 0.0, 0.0])
    assert fit.status == "exact"
    assert math.isnan(fit.alpha_hat)


def test_fit_too_few_points():
    with pytest.raises(ValueError):
        fit_rates(fake_records(3, [0, 2, 4]), [1.0, 0.5, 0.25])


# -- run distances -------------------------------------------------------------


def test_run_distances_decrease(cosine_potential):
    cfg = AdaptiveConfig(dim=1, M0=1, k0=0, n_eigs=1, tol=0.0, max_iter=5, zeta=0.2)
    run = run_eigen(cfg, cosine_potential)
    ref = reference_solve(cosine_potential, 0, 1, 32)
    rep = run_distances(run, ref)
    assert len(rep.totals) == len(run.records)
    assert all(b < a for a, b in zip(rep.totals, rep.totals[1:]))
    # eigenvalue error is quadratic in the subspace distance in the clean regime
    lam_err = [r.values[0] - float(ref.cluster.eigenvalues[0]) for r in run.records]
    ratios = [e / d**2 for e, d in zip(lam_err[:4], rep.totals[:4])]
    assert max(ratios) / min(ratios) < 2.0


def test_error_estimator_ratio_window():
    """Two-sided equivalence of error and estimator for a coercive potential."""
    from adaptpw.cli import build_potential

    pot, _ = build_potential(
        {"family": "random-decay", "amplitude": 1.0, "p": 2.5, "r_cut": 16}, 1, seed=3
    )
    cfg = AdaptiveConfig(dim=1, M0=2, k0=0, n_eigs=1, tol=0.0, max_iter=8, zeta=0.2)
    run = run_eigen(cfg, pot)
    ref = reference_solve(pot, 0, 1, 64)
    rep = run_distances(run, ref)
    lo = 1.0 / (2.0 * math.sqrt(pot.alpha_upper))
    hi = 2.0 / math.sqrt(pot.alpha_lower)
    for rec, dist in list(zip(run.records, rep.totals))[1:]:
        ratio = dist / rec.eta_exact
        assert lo <= ratio <= hi


def test_run_distances_coverage_error(cosine_potential):
    from adaptpw.verify import CoverageError

    cfg = AdaptiveConfig(dim=1, M0=1, k0=0, n_eigs=1, tol=0.0, max_iter=6, zeta=0.2)
    run = run_eigen(cfg, cosine_potential)
    small_ref = reference_solve(cosine_potential, 0, 1, 4)
    with pytest.raises(CoverageError):
        run_distances(run, small_ref)
    with pytest.raises(CoverageError):
        small_ref.group_distances(run.final_cluster)


# -- source errors -------------------------------------------------------------


def source_errors_oracle(run, reference, potential):
    """Per-iterate error by one convolution-based a_norm per right-hand side."""
    out = []
    for sols in run.solutions:
        total = 0.0
        for w, u in zip(sols, reference):
            basis = union(u.support, w.support)
            e = SpectralField(basis, u.coefficients_on(basis) - w.coefficients_on(basis))
            total += a_norm(e, multiply(potential.field, e)) ** 2
        out.append(math.sqrt(total))
    return out


@pytest.mark.parametrize(
    "dim, terms, rhs, m_ref",
    [
        (1, {(1,): 1.0}, [{(0,): 1.0}, {(2,): 1.0, (-2,): 1.0}], 64),
        # reference ball smaller than the run's sets: the union basis matters
        (1, {(1,): 1.0}, [{(0,): 1.0}, {(2,): 1.0, (-2,): 1.0}], 3),
        (2, {(1, 0): 0.5, (1, 1): 0.3}, [{(0, 0): 1.0}, {(1, -2): 0.5j, (-1, 2): -0.5j}], 2),
        # non-Hermitian right-hand sides: complex cos/sin coordinates, whose
        # real and imaginary parts the operator multiplies side by side
        (1, {(1,): 1.0}, [{(1,): 1.0}], 64),
        (2, {(1, 0): 0.5, (1, 1): 0.3}, [{(1, 0): 1.0, (-1, 0): 1.0}, {(1, 1): 0.5j, (0, 1): 1.0}], 8),
    ],
)
def test_source_errors_match_convolution_oracle(dim, terms, rhs, m_ref):
    pot = trig_potential(dim, 1.5, terms)
    fields = [SpectralField.from_pairs(dim, pairs) for pairs in rhs]
    cfg = AdaptiveConfig(
        dim=dim, theta_tilde=0.6, zeta=0.0, tol=1e-9, max_iter=10, mode="source"
    )
    run = run_source(cfg, pot, fields)
    ref = solve_source(ball(m_ref, dim), pot, fields)
    errors = source_errors(run, ref, pot)
    expected = source_errors_oracle(run, ref, pot)
    if m_ref < 5:
        assert run.final_index_set.max_radius() > m_ref
    assert len(errors) == len(run.records) >= 5
    assert expected[-1] > 0.0
    np.testing.assert_allclose(errors, expected, rtol=1e-12, atol=0.0)
