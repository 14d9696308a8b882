import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptpw import (
    IndexSet,
    SpectralField,
    a_norm,
    ball,
    evaluate_on_grid,
    hs_norm,
    multiply,
    verify_potential,
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


# -- a_norm --------------------------------------------------------------


def energy_sq(u, potential):
    return a_norm(u, multiply(potential.field, u)) ** 2


def test_a_norm_examples():
    c = 2.0
    vc = trig_potential(1, c, {})
    e0 = SpectralField.from_pairs(1, {(0,): 1.0})
    e1 = SpectralField.from_pairs(1, {(1,): 1.0})
    assert energy_sq(e0, vc) == pytest.approx(c, rel=1e-14)
    assert energy_sq(e1, vc) == pytest.approx(1.0 + c, rel=1e-14)
    # the cross term a(e0, e1) = beta by polarization: a(e0 + e1) = a(e0) + a(e1) + 2 beta
    beta = 0.3
    v = trig_potential(1, 1.0, {(1,): 2 * beta})
    both = SpectralField.from_pairs(1, {(0,): 1.0, (1,): 1.0})
    cross = 0.5 * (energy_sq(both, v) - energy_sq(e0, v) - energy_sq(e1, v))
    assert cross == pytest.approx(beta, rel=1e-13)


def test_a_norm_coercive():
    v = trig_potential(1, 2.0, {(1,): 0.5})
    u = random_hermitian_field(1, 3, seed=41)
    assert energy_sq(u, v) >= v.nu_lower * hs_norm(u, 0.0) ** 2 * (1 - 1e-12)


def oracle_a_inner(u, v, potential):
    """(grad u, grad v) + (V u, v): each pairing looks its frequencies up in supp v."""
    return _l2_pairing(u, v, kinetic=True) + _l2_pairing(multiply(potential.field, u), v, False)


def _l2_pairing(a, b, kinetic):
    """sum over common frequencies of w(G) * conj(a_G) * b_G."""
    pos = b.support.positions(a.support)
    keep = pos >= 0
    terms = np.conj(a.coeffs[keep]) * b.coeffs[pos[keep]]
    if kinetic:
        terms = terms * a.support.norms_sq[keep].astype(np.float64)
    return complex(np.sum(terms))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.booleans(), st.integers(0, 2**32 - 1))
def test_a_norm_matches_the_pairing_form(dim, symmetric, seed):
    """a_norm(u, V u) equals sqrt(max(0, Re a(u, u))) of the lookup form bit for bit.

    V is a random verified potential, u a field on a random set (closed
    under negation or not, possibly empty).
    """
    rng = np.random.default_rng(seed)
    b = ball(2, dim)
    neg = b.negation_permutation()
    keep = rng.random(len(b)) < 0.4
    keep |= keep[neg]
    keep[0] = True  # V_0, first in canonical order
    c = rng.normal(size=len(b)) + 1j * rng.normal(size=len(b))
    c = 0.5 * c + 0.5 * np.conj(c[neg])
    c[0] = 1.0 + np.sum(np.abs(c[keep][1:]))
    potential = verify_potential(SpectralField(IndexSet(dim, b.entries[keep]), c[keep]))
    region = ball(3, dim)
    chosen = rng.random(len(region)) < rng.choice([0.0, 0.2, 0.5])
    if symmetric:
        chosen |= chosen[region.negation_permutation()]
    support = IndexSet(dim, region.entries[chosen])
    u = SpectralField(support, rng.normal(size=len(support)) + 1j * rng.normal(size=len(support)))
    expected = math.sqrt(max(0.0, oracle_a_inner(u, u, potential).real))
    assert a_norm(u, multiply(potential.field, u)) == expected


# -- field plumbing -------------------------------------------------------


def test_coefficients_on_realizes_projection():
    f = random_hermitian_field(1, 4, seed=61)
    s = ball(2, 1)
    aligned = f.coefficients_on(s)
    pairs = dict(zip(f.support.to_list(), f.coeffs))
    assert np.array_equal(aligned, [pairs.get(g, 0.0) for g in s.to_list()])
