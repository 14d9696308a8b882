import math

import numpy as np
import pytest

import adaptpw.operator as operator
from adaptpw import (
    ClusterBoundaryWarning,
    IndexSet,
    PositivityWarning,
    Potential,
    PotentialError,
    SolverError,
    SpectralField,
    assemble,
    ball,
    hs_norm,
    residual,
    solve_eigen,
    solve_source,
)
from adaptpw.cli import build_potential
from adaptpw.frequency import KEY_LIMIT
from adaptpw.spectral import evaluate_on_grid
from conftest import coefficient, trig_potential

TWO_PI = 2.0 * math.pi


def dense_reference_matrix(m, c, beta):
    """Independent hand-coded matrix for V = c + 2 beta cos x on ball(m, 1).

    Basis ordered by raw frequency -m..m, unlike the package's canonical
    order, so agreement of spectra is a real cross-check.
    """
    ks = np.arange(-m, m + 1)
    h = np.zeros((len(ks), len(ks)))
    for i, a in enumerate(ks):
        for j, b in enumerate(ks):
            if a == b:
                h[i, j] = a * a + c
            elif abs(a - b) == 1:
                h[i, j] = beta
    return h


# -- potential verification ------------------------------------------------


def test_verify_constant():
    v = trig_potential(1, 2.0, {})
    assert v.nu_lower == pytest.approx(2.0, abs=1e-10)
    assert v.nu_upper == pytest.approx(2.0, abs=1e-10)
    assert v.alpha_lower == 1.0
    assert v.alpha_upper == pytest.approx(2.0, abs=1e-10)


def test_verify_trig_bounds():
    v = trig_potential(1, 1.0, {(1,): 0.6})
    assert v.nu_lower == pytest.approx(0.4, abs=1e-9)
    assert v.nu_upper == pytest.approx(1.6, abs=1e-9)
    assert v.l1_total == pytest.approx((1.0 + 0.6) * math.sqrt(TWO_PI), rel=1e-12)


def test_verify_zero_minimum_warns_but_passes():
    with pytest.warns(PositivityWarning):
        v = trig_potential(1, 1.0, {(1,): 1.0})
    assert v.nu_lower <= 0.0
    assert v.nu_upper == pytest.approx(2.0, abs=1e-9)


def test_verify_rejects_sign_changing():
    with pytest.raises(PotentialError):
        trig_potential(1, 0.0, {(1,): 1.0})


@pytest.mark.parametrize(
    "c, terms", [(math.nan, {}), (1.0, {(1,): math.inf}), (1.0, {(2,): math.nan})]
)
def test_verify_rejects_non_finite_coefficients(c, terms):
    # NaN fails every comparison, so the positivity check alone would pass it
    with pytest.raises(PotentialError, match="finite"):
        trig_potential(1, c, terms)


def test_tail_l1():
    v = trig_potential(1, 1.0, {(1,): 0.6})
    assert v.tail_l1(0) == pytest.approx(0.6 * math.sqrt(TWO_PI), rel=1e-12)
    assert v.tail_l1(1) == 0.0
    assert v.support_radius() == 1


def test_support_radius_is_the_exact_ceiling():
    # the integer ceil-sqrt against the float form ceil(sqrt(q) - 1e-12) it
    # replaced: on squares, their neighbours and random norms in key range
    assert trig_potential(2, 2.0, {(3, 4): 0.5, (1, 1): 0.2}).support_radius() == 5
    assert operator._ceil_radius(IndexSet(3)) == 0
    top = KEY_LIMIT - 1
    rows = [[r, 0, 0] for r in (0, 1, 2, 1000, top)]
    rows += [[r, 1, 0] for r in (1, 2, 1000, top)] + [[r, r, r] for r in (1, 7, top)]
    rows += np.random.default_rng(5).integers(-top, top + 1, size=(200, 3)).tolist()
    for g in rows:
        s = IndexSet(3, [g])
        q = int(s.norms_sq.max())
        assert operator._ceil_radius(s) == math.ceil(math.sqrt(q) - 1e-12), g


@pytest.mark.parametrize("dim, r_cut", [(1, 6), (2, 4), (3, 3)])
def test_truncated_field_is_the_projection_onto_a_ball(dim, r_cut):
    # the masked field against project(field, ball(radius)) as it was computed
    # before: a lookup of V's frequencies in the whole ball
    potential, _ = build_potential(
        {"family": "random-decay", "amplitude": 1.0, "p": 2.0, "r_cut": r_cut}, dim, seed=3
    )
    field = potential.field
    for radius in range(potential.support_radius() + 2):
        keep = ball(radius, dim).positions(field.support) >= 0
        truncated = potential.truncated_field(radius)
        assert np.array_equal(truncated.support.entries, field.support.entries[keep])
        assert truncated.coeffs.tobytes() == field.coeffs[keep].tobytes()


# -- assembly ----------------------------------------------------------------


def test_assemble_constant_diagonal():
    v = trig_potential(1, 0.7, {})
    h = assemble(ball(1, 1), v)
    # canonical order [0, -1, 1]
    expected = np.diag([0.7, 1.7, 1.7])
    assert np.allclose(h.matrix, expected, atol=1e-14)


def test_assemble_trig_structure():
    c, beta = 1.5, 0.25
    v = trig_potential(1, c, {(1,): 2 * beta})
    s = ball(1, 1)
    h = assemble(s, v).matrix
    order = s.to_list()
    assert order == [(0,), (-1,), (1,)]
    assert np.allclose(np.diag(h).real, [c, 1 + c, 1 + c], atol=1e-13)
    for i, gi in enumerate(order):
        for j, gj in enumerate(order):
            if abs(gi[0] - gj[0]) == 1:
                assert h[i, j] == pytest.approx(beta, rel=1e-13)
            elif i != j:
                assert h[i, j] == pytest.approx(0.0, abs=1e-15)


def test_assemble_matches_quadrature_oracle():
    c, beta = 1.0, 0.3
    v = trig_potential(1, c, {(1,): 2 * beta})
    s = ball(2, 1)
    h = assemble(s, v).matrix
    n = 32
    x = TWO_PI * np.arange(n) / n
    vals = evaluate_on_grid(v.field, n)
    order = s.to_list()
    for i, gi in enumerate(order):
        for j, gj in enumerate(order):
            ei = np.exp(1j * gi[0] * x) / math.sqrt(TWO_PI)
            ej = np.exp(1j * gj[0] * x) / math.sqrt(TWO_PI)
            grad = gi[0] * gj[0] * np.conj(ei) * ej
            pot = vals * np.conj(ei) * ej
            quad = (TWO_PI / n) * np.sum(grad + pot)
            assert h[i, j] == pytest.approx(quad, abs=1e-12)


def test_assemble_deterministic():
    v = trig_potential(2, 1.0, {(1, 0): 0.4, (0, 1): 0.4})
    s = ball(2, 2)
    h1 = assemble(s, v).matrix
    h2 = assemble(s, v).matrix
    assert np.array_equal(h1, h2)


def test_assemble_hermitian_and_diagonal():
    v = trig_potential(2, 1.2, {(1, 1): 0.3})
    s = ball(3, 2)
    h = assemble(s, v)
    scale = float(np.max(np.abs(h.matrix)))
    assert float(np.max(np.abs(h.matrix - h.matrix.conj().T))) <= 1e-14 * scale
    mean_v = coefficient(v.field, (0, 0)).real / TWO_PI  # (2*pi)^(-d/2) V_0
    assert np.allclose(np.diag(h.matrix).real, s.norms_sq + mean_v, atol=1e-12)


# -- eigen solves -------------------------------------------------------------


def test_solve_eigen_constant_1d():
    v = trig_potential(1, 1.0, {})
    cluster = solve_eigen(assemble(ball(2, 1), v), 0, 3)
    assert np.allclose(cluster.eigenvalues, [1.0, 2.0, 2.0], atol=1e-12)


def test_solve_eigen_constant_2d_shell():
    v = trig_potential(2, 1.0, {})
    cluster = solve_eigen(assemble(ball(2, 2), v), 0, 5)
    assert np.allclose(cluster.eigenvalues, [1.0, 2.0, 2.0, 2.0, 2.0], atol=1e-12)


def test_solve_eigen_matches_inline_reference():
    cluster = solve_eigen(assemble(ball(8, 1), trig_potential(1, 1.0, {(1,): 1.0})), 0, 2)
    wref = np.linalg.eigvalsh(dense_reference_matrix(32, 1.0, 0.5))
    assert np.allclose(cluster.eigenvalues, wref[:2], atol=1e-8)


def test_solve_eigen_interior_cluster():
    v = trig_potential(1, 1.0, {})
    cluster = solve_eigen(assemble(ball(10, 1), v), 1, 2)
    assert np.allclose(cluster.eigenvalues, [2.0, 2.0], atol=1e-12)
    assert cluster.lambda_below == pytest.approx(1.0, abs=1e-12)


def test_solve_eigen_orthonormality_and_realness():
    v = trig_potential(2, 1.0, {(1, 0): 0.3, (0, 1): 0.3})
    cluster = solve_eigen(assemble(ball(3, 2), v), 0, 5)
    gram = cluster.vectors.conj().T @ cluster.vectors
    assert np.allclose(gram, np.eye(5), atol=1e-10)
    # rotated eigenvectors represent real functions
    perm = cluster.basis.negation_permutation()
    for l in range(5):
        vec = cluster.vectors[:, l]
        assert np.max(np.abs(np.conj(vec[perm]) - vec)) <= 1e-9


def test_solve_eigen_reproducible():
    v = trig_potential(2, 1.0, {(1, 1): 0.2})
    h = assemble(ball(2, 2), v)
    c1 = solve_eigen(h, 0, 5)
    c2 = solve_eigen(h, 0, 5)
    assert np.array_equal(c1.vectors, c2.vectors)
    assert np.array_equal(c1.eigenvalues, c2.eigenvalues)


def test_solve_eigen_minmax_monotonicity():
    v = trig_potential(1, 1.0, {(1,): 1.0})
    lams = []
    for m in (3, 5, 8, 12):
        lams.append(solve_eigen(assemble(ball(m, 1), v), 0, 2).eigenvalues)
    for a, b in zip(lams, lams[1:]):
        assert np.all(b <= a + 1e-12)
    wref = np.linalg.eigvalsh(dense_reference_matrix(48, 1.0, 0.5))[:2]
    for lam in lams:
        assert np.all(lam >= wref - 1e-10)


def test_cut_multiplet_warns():
    v = trig_potential(1, 1.0, {})
    with pytest.warns(ClusterBoundaryWarning):
        solve_eigen(assemble(ball(3, 1), v), 0, 2)  # cluster (1, 2) cuts the pair at 2


def test_solve_eigen_window_validation():
    v = trig_potential(1, 1.0, {})
    h = assemble(ball(1, 1), v)
    with pytest.raises(ValueError):
        solve_eigen(h, 2, 2)


def test_galerkin_residual_vanishes_on_set():
    v = trig_potential(1, 1.0, {(1,): 1.0})
    s = ball(6, 1)
    cluster = solve_eigen(assemble(s, v), 0, 2)
    for l in range(2):
        r = residual(cluster.field(l), float(cluster.eigenvalues[l]), v)
        inside = s.positions(r.support.entries) >= 0
        onset = np.max(np.abs(r.field.coeffs[inside]))
        scale = max(1.0, float(np.max(np.abs(r.field.coeffs))))
        assert onset <= 1e-10 * scale


# -- source solves -------------------------------------------------------------


def test_solve_source_diagonal_cases():
    c = 2.0
    v = trig_potential(1, c, {})
    s = ball(2, 1)
    e0 = SpectralField.from_pairs(1, {(0,): 1.0})
    e1 = SpectralField.from_pairs(1, {(1,): 1.0})
    u0, u1 = solve_source(s, v, [e0, e1])
    assert coefficient(u0, (0,)) == pytest.approx(1.0 / c, rel=1e-14)
    assert np.sum(np.abs(u0.coeffs) > 1e-14) == 1
    assert coefficient(u1, (1,)) == pytest.approx(1.0 / (1.0 + c), rel=1e-14)


def test_solve_source_matches_inline_reference():
    v = trig_potential(1, 1.0, {(1,): 1.0})
    s = ball(4, 1)
    e0 = SpectralField.from_pairs(1, {(0,): 1.0})
    (u,) = solve_source(s, v, [e0])
    h = dense_reference_matrix(4, 1.0, 0.5)
    rhs = np.zeros(9)
    rhs[4] = 1.0
    x = np.linalg.solve(h, rhs)
    ks = np.arange(-4, 5)
    for i, k in enumerate(ks):
        assert coefficient(u, (int(k),)) == pytest.approx(x[i], abs=1e-12)


def test_source_eigen_consistency():
    v = trig_potential(1, 1.0, {(1,): 1.0})
    s = ball(5, 1)
    cluster = solve_eigen(assemble(s, v), 0, 1)
    lam = float(cluster.eigenvalues[0])
    u = cluster.field(0)
    (w,) = solve_source(s, v, [SpectralField(u.support, lam * u.coeffs)])
    assert hs_norm(SpectralField(s, w.coefficients_on(s) - u.coefficients_on(s)), 1.0) <= 1e-10


def test_solve_source_rejects_indefinite_matrix():
    # V = -5 bypasses verify_potential, so H = |G|^2 - 5 is indefinite but
    # nonsingular on ball(2): only the Cholesky check can reject it
    norm = math.sqrt(TWO_PI)
    field = SpectralField.from_pairs(1, {(0,): -5.0 * norm})
    v = Potential(
        field=field, nu_lower=-5.0, nu_upper=-5.0, alpha_lower=-5.0, alpha_upper=1.0,
        l1_total=5.0 * norm,
    )
    with pytest.raises(SolverError, match="not positive definite"):
        solve_source(ball(2, 1), v, [SpectralField.from_pairs(1, {(0,): 1.0})])


def test_solve_source_empty_set():
    v = trig_potential(1, 1.0, {})
    sols = solve_source(IndexSet(1), v, [SpectralField.from_pairs(1, {(0,): 1.0})])
    assert len(sols) == 1 and len(sols[0].support) == 0
