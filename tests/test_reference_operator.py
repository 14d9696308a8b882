"""The matrix-free reference operator against its assembled real matrix."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adaptpw.operator as operator
from adaptpw import (
    IndexSet,
    Potential,
    ReferenceOperator,
    SolverError,
    SpectralField,
    ball,
    certify_count,
    reference_solve,
)
from adaptpw.cli import build_potential

RADII = {1: (0, 3, 12, 40), 2: (0, 2, 6), 3: (0, 1, 3)}


@st.composite
def operator_case(draw):
    """A ball and a Hermitian potential whose support is near, sparse or partly far away."""
    dim = draw(st.sampled_from([1, 2, 3]))
    radius = draw(st.sampled_from(RADII[dim]))
    kind = draw(st.sampled_from(["near", "sparse", "far"]))
    reach = {"near": 3, "sparse": 2 * radius + 4, "far": 3}[kind]
    pts = draw(
        st.lists(st.tuples(*[st.integers(-reach, reach)] * dim), min_size=1, max_size=12)
    )
    if kind == "far":  # terms that never couple the ball, beside near ones
        pts += [(600_000,) + (0,) * (dim - 1), (0,) * (dim - 1) + (-70_000,)]
    arr = np.array(pts, dtype=np.int64).reshape(-1, dim)
    support = IndexSet(dim, np.concatenate([arr, -arr]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = rng.normal(size=len(support)) + 1j * rng.normal(size=len(support))
    c = 0.5 * (c + np.conj(c[support.negation_permutation()]))
    field = SpectralField(support, c)
    return ball(radius, dim), Potential(field, 0.0, 0.0, 0.0, 0.0, 0.0)


@settings(max_examples=80, deadline=None)
@given(operator_case(), st.integers(1, 9))
def test_operator_matches_assembled_matrix(case, columns):
    basis, potential = case
    h = ReferenceOperator(basis, potential)
    a = h.dense()
    n = h.n
    assert np.array_equal(h.diagonal(), a.diagonal())
    idx = np.random.default_rng(n).permutation(n)[: max(1, n // 3)]
    assert np.array_equal(h.rows(idx), a[idx])

    x = np.random.default_rng(columns).normal(size=(n, columns))
    hx = h.apply(x)
    assert h.products == columns
    # FFT round-off: a few ulp of sum |V| per entry; the kinetic part is exact
    l1 = float(np.sum(np.abs(potential.field.coeffs)))
    atol = 1e-14 * (1.0 + l1) * np.abs(x).max() * n
    np.testing.assert_allclose(hx, a @ x, rtol=0.0, atol=atol)
    # complex columns: real and imaginary parts side by side, two products each
    x2 = np.random.default_rng(columns + 1).normal(size=(n, columns))
    z = x + 1j * x2
    atol = 1e-14 * (1.0 + l1) * np.abs(z).max() * n
    np.testing.assert_allclose(h.apply(z), a @ z, rtol=0.0, atol=atol)
    assert h.products == 3 * columns

    # row-sum and norm bounds hold up to the certificate's rounding allowance
    u = np.finfo(float).eps / 2.0
    off = np.abs(a)
    np.fill_diagonal(off, 0.0)
    off = off.sum(axis=1)
    assert np.all(h.row_sums(np.arange(n)) >= off * (1.0 - 4.0 * (n + 2) * u))
    assert h.frobenius() >= float(np.linalg.norm(a)) * (1.0 - 1e-14)


@pytest.mark.parametrize("dim, radius, r_cut", [(1, 6, 3), (2, 4, 2), (3, 2, 1)])
def test_grid_of_2m_plus_r_points_aliases_and_one_more_does_not(
    dim, radius, r_cut, monkeypatch
):
    pot, _ = build_potential(
        {"family": "random-decay", "amplitude": 1.0, "p": 2.5, "r_cut": r_cut}, dim, seed=3
    )
    basis = ball(radius, dim)
    a = ReferenceOperator(basis, pot).dense()
    eye = np.eye(len(basis))
    edge = 2 * radius + r_cut + 1
    assert ReferenceOperator(basis, pot).points == next(
        k for k in range(edge, 2 * edge) if smooth(k)
    )
    monkeypatch.setattr(operator, "grid_points", lambda radius, reach: edge)
    assert np.abs(ReferenceOperator(basis, pot).apply(eye) - a).max() <= 1e-13
    # (M, 0, ..) and (-M, 0, ..) + (r, 0, ..) meet modulo 2M + r
    monkeypatch.setattr(operator, "grid_points", lambda radius, reach: edge - 1)
    assert np.abs(ReferenceOperator(basis, pot).apply(eye) - a).max() > 1e-3


def smooth(k):
    for f in (2, 3, 5):
        while k % f == 0:
            k //= f
    return k == 1


def test_grid_points_is_the_smallest_smooth_size():
    for n in range(1, 3000):
        radius, reach = divmod(n - 1, 2)
        assert operator.grid_points(radius, reach) == next(
            k for k in range(n, 2 * n + 2) if smooth(k)
        )
    # a search by powers, not by counting up: the 5-smooth numbers near 4e12
    # lie millions apart
    assert operator.grid_points(10**12, 2 * 10**12) == 4016775629952


def compare2d_reference():
    pot, _ = build_potential(
        {"family": "random-decay", "amplitude": 1.0, "p": 2.5, "r_cut": 8}, 2, seed=7
    )
    return pot, ReferenceOperator(ball(16, 2), pot)


def test_reference_solve_memory_is_linear_in_n():
    # the compare2d reference, 797 frequencies: block vectors, the FFT grid
    # and a Schur block of 64 rows, as `solve_bytes` models them, stay well
    # below the 8 n^2 bytes of the matrix alone, which is never formed
    pot, h = compare2d_reference()
    n = h.n
    tracemalloc.start()
    try:
        ref = reference_solve(pot, 0, 2, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ref.solver.cert_size == operator.CERT_BLOCK and ref.solver.grid == (45, 45)
    bound = operator.solve_bytes(n, h.points, 2, 3 + operator.BLOCK_GUARD)
    assert peak <= bound < 4 * n * n


def test_certificate_refuses_blocks_beyond_physical_memory(monkeypatch):
    pot, h = compare2d_reference()
    theta, x, res, _ = operator._block_iterate(h, 7, 3, operator.BLOCK_RTOL * h.diagonal().max())
    first = operator.SCHUR_BYTES * operator.CERT_BLOCK * h.n
    monkeypatch.setattr(operator, "physical_memory", lambda: first)
    assert certify_count(h, theta, x, res, 3)[2] == operator.CERT_BLOCK
    monkeypatch.setattr(operator, "physical_memory", lambda: first - 1)
    with pytest.raises(SolverError, match=f"block of 64 needs {first} bytes"):
        certify_count(h, theta, x, res, 3)
    dense = operator.DENSE_CERT_BYTES * h.n**2
    monkeypatch.setattr(operator, "physical_memory", lambda: dense - 1)
    with pytest.raises(SolverError, match="more than physical memory"):
        h.dense()


def test_dense_refuses_an_asymmetric_matrix():
    # V_1 != conj(V_-1): built past `verify_potential`, this potential gives
    # rows that are not symmetric, and every `dense` call checks them
    support = IndexSet(1, np.array([[0], [1], [-1]]))
    field = SpectralField(support, np.array([1.0, 0.5, 0.1], dtype=complex))
    h = ReferenceOperator(ball(3, 1), Potential(field, 0.0, 0.0, 0.0, 0.0, 0.0))
    with pytest.raises(SolverError, match="not symmetric"):
        h.dense()
