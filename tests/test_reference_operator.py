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
    assemble,
    ball,
    certify_count,
    reference_solve,
    union,
    verify_potential,
)
from adaptpw.cli import build_potential

RADII = {1: (0, 3, 12, 40), 2: (0, 2, 6), 3: (0, 1, 3)}


@st.composite
def support_case(draw, far=None):
    """A ball, a symmetric support near it, sparse or partly far away, and a seeded rng.

    The far terms sit at `far[dim]` on the first and the last axis (600,000
    and 70,000 by default), where they never couple the ball.
    """
    dim = draw(st.sampled_from([1, 2, 3]))
    radius = draw(st.sampled_from(RADII[dim]))
    kind = draw(st.sampled_from(["near", "sparse", "far"]))
    reach = {"near": 3, "sparse": 2 * radius + 4, "far": 3}[kind]
    pts = draw(
        st.lists(st.tuples(*[st.integers(-reach, reach)] * dim), min_size=1, max_size=12)
    )
    if kind == "far":  # terms that never couple the ball, beside near ones
        first, last = (far or {}).get(dim, (600_000, 70_000))
        pts += [(first,) + (0,) * (dim - 1), (0,) * (dim - 1) + (-last,)]
    arr = np.array(pts, dtype=np.int64).reshape(-1, dim)
    support = IndexSet(dim, np.concatenate([arr, -arr]))
    return ball(radius, dim), support, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


def hermitian_coefficients(support, rng):
    c = rng.normal(size=len(support)) + 1j * rng.normal(size=len(support))
    return 0.5 * (c + np.conj(c[support.negation_permutation()]))


@st.composite
def operator_case(draw):
    """A ball and a Hermitian potential whose support is near, sparse or partly far away."""
    basis, support, rng = draw(support_case())
    field = SpectralField(support, hermitian_coefficients(support, rng))
    return basis, Potential(field, 0.0, 0.0, 0.0, 0.0, 0.0)


@st.composite
def near_hermitian_case(draw):
    """A ball and a positive potential, Hermitian up to 0.71 of `verify_potential`'s tolerance.

    Its far terms stay near enough for a small verification grid.
    """
    basis, support, rng = draw(support_case({1: (5_000, 700), 2: (100, 40), 3: (12, 7)}))
    dim = support.dim
    support = union(support, IndexSet(dim, np.zeros((1, dim), dtype=np.int64)))
    c = hermitian_coefficients(support, rng)
    c[support.index_of((0,) * dim)] += np.sum(np.abs(c)) + 1.0  # V > 0 on the whole torus
    tol = 1e-12 * max(1.0, float(np.abs(c).max()))
    c += 0.25 * tol * (rng.uniform(-1, 1, len(c)) + 1j * rng.uniform(-1, 1, len(c)))
    return basis, SpectralField(support, c)


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


@settings(max_examples=40, deadline=None)
@given(near_hermitian_case())
def test_verified_potential_makes_matrices_exactly_hermitian(case):
    # `verify_potential` is the one test that V is real: it returns V's
    # Hermitian part, and the matrices built from it need no check of their own
    basis, field = case
    potential = verify_potential(field)
    assert potential.field.hermitian_defect() == 0.0
    h = assemble(basis, potential).matrix
    assert np.array_equal(h, h.conj().T)
    d = ReferenceOperator(basis, potential).dense()
    assert np.array_equal(d, d.T)


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


def test_reference_solve_memory_is_linear_in_n(compare2d_potential, compare2d_reference):
    # the compare2d reference, 797 frequencies: block vectors, the FFT grid
    # and a Schur block of 64 rows, as `solve_bytes` models them, stay well
    # below the 8 n^2 bytes of the matrix alone, which is never formed
    pot, h = compare2d_potential, compare2d_reference
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


def test_certificate_refuses_blocks_beyond_physical_memory(compare2d_reference, monkeypatch):
    h = compare2d_reference
    theta, x, res, _ = operator._block_iterate(h, 7, 3, operator.BLOCK_RTOL * h.diagonal().max())
    first = operator.schur_bytes(operator.CERT_BLOCK, h.n)
    monkeypatch.setattr(operator, "physical_memory", lambda: first)
    assert certify_count(h, theta, x, res, 3)[2] == operator.CERT_BLOCK
    monkeypatch.setattr(operator, "physical_memory", lambda: first - 1)
    with pytest.raises(SolverError, match=f"block of 64 needs {first} bytes"):
        certify_count(h, theta, x, res, 3)
    dense = operator.DENSE_CERT_BYTES * h.n**2
    monkeypatch.setattr(operator, "physical_memory", lambda: dense - 1)
    with pytest.raises(SolverError, match="more than physical memory"):
        h.dense()
