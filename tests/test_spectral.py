import math

import numpy as np
import pytest

from adaptpw import (
    IndexSet,
    SpectralField,
    a_inner,
    ball,
    evaluate_on_grid,
    hs_norm,
    multiply,
    project,
)
from conftest import coefficient, trig_field, trig_potential

TWO_PI = 2.0 * math.pi


def dft_coefficients(values, freqs, dim):
    """Recover orthonormal-basis coefficients from grid samples (oracle).

    Exact for trigonometric polynomials when the grid beats the Nyquist
    limit of the sampled function.
    """
    n = values.shape[0]
    x = TWO_PI * np.arange(n) / n
    grids = np.meshgrid(*([x] * dim), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    flat = values.ravel()
    out = {}
    for g in freqs:
        phase = pts @ np.asarray(g, dtype=float)
        out[g] = (TWO_PI ** (dim / 2.0)) * np.mean(flat * np.exp(-1j * phase))
    return out


def random_hermitian_field(dim, radius, seed):
    rng = np.random.default_rng(seed)
    support = ball(radius, dim)
    coeffs = rng.normal(size=len(support)) + 1j * rng.normal(size=len(support))
    perm = support.negation_permutation()
    sym = 0.5 * (coeffs + np.conj(coeffs[perm]))
    return SpectralField(support, sym)


# -- hs_norm -------------------------------------------------------------


def test_hs_norm_examples():
    e0 = SpectralField.from_pairs(1, {(0,): 1.0})
    for s in (-2.0, -1.0, 0.0, 1.0, 3.5):
        assert hs_norm(e0, s) == pytest.approx(1.0, abs=0.0)
    f = SpectralField.from_pairs(1, {(1,): 1.0, (-1,): 1.0})
    assert hs_norm(f, 1.0) == pytest.approx(2.0, rel=1e-15)
    assert hs_norm(f, -1.0) == pytest.approx(1.0, rel=1e-15)


def test_parseval():
    f = random_hermitian_field(2, 3, seed=5)
    assert hs_norm(f, 0.0) == pytest.approx(float(np.linalg.norm(f.coeffs)), rel=1e-14)
    assert f.l2_norm() == pytest.approx(hs_norm(f, 0.0), rel=1e-14)


# -- project -------------------------------------------------------------


def test_project_identity_and_zero():
    f = random_hermitian_field(1, 4, seed=2)
    p = project(f, f.support)
    assert np.array_equal(p.support.entries, f.support.entries)
    assert np.array_equal(p.coeffs, f.coeffs)
    e1 = SpectralField.from_pairs(1, {(1,): 1.0})
    assert len(project(e1, IndexSet(1, [[0]])).support) == 0


def test_project_partial_parseval():
    f = SpectralField.from_pairs(1, {(0,): 2.0, (1,): 1.0, (-1,): 1.0})
    p = project(f, IndexSet(1, [[-1], [1]]))
    assert sorted(p.support.to_list()) == [(-1,), (1,)]
    assert hs_norm(f, 0.0) ** 2 == pytest.approx(
        hs_norm(p, 0.0) ** 2 + 4.0, rel=1e-14
    )


def test_project_idempotent_nonexpansive():
    f = random_hermitian_field(1, 5, seed=9)
    s = ball(2, 1)
    p = project(f, s)
    p2 = project(p, s)
    assert np.allclose(p2.coeffs, p.coeffs)
    for t in (-1.0, 0.0, 1.0, 2.0):
        assert hs_norm(p, t) <= hs_norm(f, t) * (1 + 1e-14)


# -- multiply ------------------------------------------------------------


def test_multiply_constant():
    c = 0.7
    v = trig_field(1, c, {})
    u = SpectralField.from_pairs(1, {(0,): 1.0})
    w = multiply(v, u)
    assert coefficient(w, (0,)) == pytest.approx(c, rel=1e-15)
    assert len(w.support) == 1


def test_multiply_trig_hand_expansion():
    c, beta = 1.0, 0.5
    v = trig_field(1, c, {(1,): 2 * beta})
    u = SpectralField.from_pairs(1, {(0,): 1.0})
    w = multiply(v, u)
    assert coefficient(w, (0,)) == pytest.approx(c, rel=1e-14)
    assert coefficient(w, (1,)) == pytest.approx(beta, rel=1e-14)
    assert coefficient(w, (-1,)) == pytest.approx(beta, rel=1e-14)


def test_multiply_zero():
    z = SpectralField.zero(1)
    f = random_hermitian_field(1, 2, seed=1)
    assert len(multiply(z, f).support) == 0


def test_multiply_matches_grid_oracle():
    v = random_hermitian_field(1, 3, seed=21)
    u = random_hermitian_field(1, 4, seed=22)
    w = multiply(v, u)
    n = 2 * (3 + 4) + 3  # beyond Nyquist for the product
    prod = evaluate_on_grid(v, n) * evaluate_on_grid(u, n)
    recovered = dft_coefficients(prod.astype(complex), w.support.to_list(), 1)
    for g in w.support.to_list():
        assert coefficient(w, g) == pytest.approx(recovered[g], abs=1e-12)


def test_multiply_bilinear_commutative_hermitian():
    v = random_hermitian_field(1, 2, seed=31)
    u = random_hermitian_field(1, 3, seed=32)
    w1 = multiply(v, u)
    w2 = multiply(u, v)
    assert np.allclose(w1.coefficients_on(w2.support), w2.coeffs, rtol=1e-14, atol=1e-14)
    scale = max(1.0, float(np.max(np.abs(w1.coeffs))))
    assert w1.hermitian_defect() <= 1e-14 * scale
    w3 = multiply(v, SpectralField(u.support, 2 * u.coeffs))
    assert np.allclose(w3.coefficients_on(w1.support), 2 * w1.coeffs, rtol=1e-13)


# -- evaluate_on_grid ----------------------------------------------------


def test_evaluate_constant():
    e0 = SpectralField.from_pairs(1, {(0,): 1.0})
    vals = evaluate_on_grid(e0, 8)
    assert np.allclose(vals, (TWO_PI) ** (-0.5))


def test_evaluate_cosine():
    amp = math.sqrt(TWO_PI) / 2.0
    f = SpectralField.from_pairs(1, {(1,): amp, (-1,): amp})
    n = 16
    vals = evaluate_on_grid(f, n)
    x = TWO_PI * np.arange(n) / n
    assert np.allclose(vals, np.cos(x), atol=1e-14)


def test_evaluate_matches_direct_sum_oracle():
    f = random_hermitian_field(2, 2, seed=17)
    n = 7
    vals = evaluate_on_grid(f, n)
    rng = np.random.default_rng(99)
    for _ in range(10):
        i, j = rng.integers(0, n, size=2)
        x = TWO_PI * np.array([i, j]) / n
        direct = sum(
            coefficient(f, g) * (TWO_PI ** (-1.0)) * np.exp(1j * np.dot(g, x))
            for g in f.support.to_list()
        )
        assert vals[i, j] == pytest.approx(direct.real, abs=1e-12)


# -- a_inner -------------------------------------------------------------


def test_a_inner_examples():
    c = 2.0
    vc = trig_potential(1, c, {})
    e0 = SpectralField.from_pairs(1, {(0,): 1.0})
    e1 = SpectralField.from_pairs(1, {(1,): 1.0})
    assert a_inner(e0, e0, vc) == pytest.approx(c, rel=1e-14)
    assert a_inner(e1, e1, vc) == pytest.approx(1.0 + c, rel=1e-14)
    beta = 0.3
    v = trig_potential(1, 1.0, {(1,): 2 * beta})
    assert a_inner(e0, e1, v) == pytest.approx(beta, rel=1e-13)


def test_a_inner_hermitian_and_coercive():
    v = trig_potential(1, 2.0, {(1,): 0.5})
    u = random_hermitian_field(1, 3, seed=41)
    w = random_hermitian_field(1, 3, seed=42)
    assert a_inner(u, w, v) == pytest.approx(np.conj(a_inner(w, u, v)), rel=1e-12)
    quad = a_inner(u, u, v)
    assert abs(quad.imag) <= 1e-12 * abs(quad.real)
    assert quad.real >= v.nu_lower * hs_norm(u, 0.0) ** 2 * (1 - 1e-12)


# -- field plumbing -------------------------------------------------------


def test_coefficients_on_realizes_projection():
    f = random_hermitian_field(1, 4, seed=61)
    s = ball(2, 1)
    aligned = f.coefficients_on(s)
    p = project(f, s)
    assert np.allclose(aligned, p.coefficients_on(s))
