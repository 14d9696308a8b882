"""Folded-FFT grid evaluation against the direct-sum reference.

`ref_evaluate` is the phase-matrix summation that `evaluate_on_grid`
used before the FFT: it sums every coefficient times exp(i G.x) at every
grid point. The FFT folds frequencies modulo n first, so grids smaller
than the support diameter are covered as well as alias-free ones. The
two agree up to round-off, within a tolerance scaled by the l1 size of
the field, and `verify_potential` must still bracket the reference
values on its grid.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptpw import IndexSet, SpectralField, verify_potential
from adaptpw.spectral import FieldError, evaluate_on_grid

#: measured worst case 1.9e-15 in 3D; the bound leaves room for other BLAS/FFT builds
RTOL = 1e-13


def ref_evaluate(f, n):
    """Direct summation of the field on the n^d grid, always complex."""
    dim = f.support.dim
    x = 2.0 * math.pi * np.arange(n) / n
    grids = np.meshgrid(*([x] * dim), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    phases = pts @ f.support.entries.T.astype(np.float64)
    values = (np.exp(1j * phases) @ f.coeffs) * (2.0 * math.pi) ** (-dim / 2.0)
    return values.reshape((n,) * dim)


def tolerance(f):
    l1 = (2.0 * math.pi) ** (-f.support.dim / 2.0) * float(np.sum(np.abs(f.coeffs)))
    return RTOL * max(1.0, l1)


@st.composite
def random_field(draw, dim, radius, hermitian):
    pts = draw(
        st.lists(st.tuples(*[st.integers(-radius, radius)] * dim), min_size=1, max_size=20)
    )
    arr = np.array(pts + [(0,) * dim], dtype=np.int64).reshape(-1, dim)
    support = IndexSet(dim, np.concatenate([arr, -arr]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coeffs = rng.normal(size=len(support)) + 1j * rng.normal(size=len(support))
    if hermitian:
        coeffs = 0.5 * (coeffs + np.conj(coeffs[support.negation_permutation()]))
    return SpectralField(support, coeffs)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_fft_grid_matches_direct_sum(data):
    dim = data.draw(st.sampled_from([1, 2, 3]))
    hermitian = data.draw(st.booleans())
    f = data.draw(random_field(dim, 6, hermitian))
    diameter = 2 * int(np.max(np.abs(f.support.entries))) + 1  # bins needed without folding
    if data.draw(st.booleans()) and diameter > 1:
        n = data.draw(st.integers(1, diameter - 1))  # folded: several G share a bin
    else:
        n = data.draw(st.integers(diameter, diameter + 5))
    if not hermitian:
        with pytest.raises(FieldError, match="not real"):
            evaluate_on_grid(f, n)
        return
    ref = ref_evaluate(f, n)
    vals = evaluate_on_grid(f, n)
    assert vals.shape == (n,) * dim
    assert np.isrealobj(vals)
    assert float(np.max(np.abs(vals - ref.real))) <= tolerance(f)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_verify_potential_brackets_direct_sum(data):
    dim = data.draw(st.sampled_from([1, 2, 3]))
    f = data.draw(random_field(dim, 3, True))
    npts = 4 * (int(math.ceil(f.support.max_radius() - 1e-12)) + 1)  # verification grid
    # shift the mean so the reference minimum is 1
    coeffs = f.coeffs.copy()
    coeffs[f.support.index_of((0,) * dim)] += (1.0 - ref_evaluate(f, npts).real.min()) * (
        2.0 * math.pi
    ) ** (dim / 2.0)
    f = SpectralField(f.support, coeffs)
    ref = ref_evaluate(f, npts).real
    potential = verify_potential(f)
    assert potential.nu_lower <= ref.min()
    assert potential.nu_upper >= ref.max()
