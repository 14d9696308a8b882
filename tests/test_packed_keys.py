"""Packed-key set algebra and array-based kernels against loop references.

The references below are the dict/tuple and per-frequency loop versions
of canonical ordering, lookup, convolution, assembly, pair aggregation
and marking. The array versions keep the same summation order, so every
comparison is exact equality, not a tolerance. The real cos/sin assembly
is the exception: its oracle is an explicit U^H H U, equal up to round-off.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptpw import (
    IndexSet,
    Potential,
    ReferenceOperator,
    Residual,
    SpectralField,
    assemble,
    ball,
    cluster_estimate,
    dorfler_mark,
    multiply,
    union,
    validate_symmetric,
)
from adaptpw.frequency import KEY_LIMIT, sum_box
from adaptpw.operator import _potential_rows

# -- loop references ------------------------------------------------------------


def ref_canonical(arr):
    """Deduplicate and sort rows by (|G|^2, lexicographic components)."""
    if arr.size == 0:
        return arr
    arr = np.unique(arr, axis=0)
    norms = np.sum(arr * arr, axis=1)
    keys = tuple(arr[:, k] for k in reversed(range(arr.shape[1]))) + (norms,)
    return arr[np.lexsort(keys)]


def ref_positions(entries, points):
    pos = {tuple(int(x) for x in row): i for i, row in enumerate(entries)}
    return np.array([pos.get(tuple(int(x) for x in p), -1) for p in points], dtype=np.int64)


def ref_multiply(v, u):
    dim = v.support.dim
    sums = (u.support.entries[None, :, :] + v.support.entries[:, None, :]).reshape(-1, dim)
    support = ref_canonical(sums)
    out = np.zeros(len(support), dtype=np.complex128)
    for k in range(len(v.support)):
        pos = ref_positions(support, u.support.entries + v.support.entries[k])
        np.add.at(out, pos, v.coeffs[k] * u.coeffs)
    out *= (2.0 * math.pi) ** (-dim / 2.0)
    return support, out


def ref_assemble(s, vf):
    n = len(s)
    h = np.zeros((n, n), dtype=np.complex128)
    h[np.diag_indices(n)] = s.norms_sq.astype(np.float64)
    factor = (2.0 * math.pi) ** (-s.dim / 2.0)
    cols = np.arange(n)
    for k in range(len(vf.support)):
        pos = ref_positions(s.entries, s.entries + vf.support.entries[k])
        keep = pos >= 0
        h[pos[keep], cols[keep]] += factor * vf.coeffs[k]
    return h


def ref_cluster_estimate(rs, current):
    """(per-pair dict in first-encounter order, off-set sum, total squared mass)."""
    per_pair = {}
    total_sq = 0.0
    for r in rs:
        total_sq += float(np.sum(r.per_frequency))
        outside = ref_positions(current.entries, r.support.entries) < 0
        for row, c in zip(r.support.entries[outside], r.per_frequency[outside]):
            g = tuple(int(x) for x in row)
            rep = max(g, tuple(-x for x in g))
            per_pair[rep] = per_pair.get(rep, 0.0) + float(c)
    return per_pair, sum(per_pair.values()), total_sq


def ref_dorfler(contribs, theta, total_sq):
    items = sorted(contribs.items(), key=lambda it: (-it[1], sum(x * x for x in it[0]), it[0]))
    accumulated = 0.0
    chosen = []
    for rep, c in items:
        chosen.append(rep)
        accumulated += c
        if accumulated >= theta * theta * total_sq:
            break
    points = chosen + [tuple(-x for x in rep) for rep in chosen]
    return ref_canonical(np.array(points, dtype=np.int64)), math.sqrt(accumulated / total_sq)


def ref_cos_sin_unitary(s):
    """Explicit U: columns e_0, then (e_G + e_-G)/sqrt(2), then i(e_G - e_-G)/sqrt(2).

    Representatives G are the entries lexicographically above their
    negation, in canonical order.
    """
    entries = [tuple(g) for g in s.entries.tolist()]
    index = {g: i for i, g in enumerate(entries)}
    reps = [g for g in entries if g > tuple(-x for x in g)]
    zero = (0,) * s.dim
    u = np.zeros((len(entries), len(entries)), dtype=complex)
    col = 0
    if zero in index:
        u[index[zero], 0] = 1.0
        col = 1
    r = math.sqrt(0.5)
    for j, g in enumerate(reps):
        i, k = index[g], index[tuple(-x for x in g)]
        u[i, col + j] = u[k, col + j] = r
        u[i, col + len(reps) + j] = 1j * r
        u[k, col + len(reps) + j] = -1j * r
    return u


# -- strategies -------------------------------------------------------------------


@st.composite
def symmetric_points(draw, dim, radius=6, max_size=30):
    pts = draw(
        st.lists(
            st.tuples(*[st.integers(-radius, radius)] * dim), min_size=1, max_size=max_size
        )
    )
    arr = np.array(pts, dtype=np.int64).reshape(-1, dim)
    return np.concatenate([arr, -arr])


@st.composite
def field_on(draw, dim, radius=6, max_size=30):
    pts = draw(symmetric_points(dim, radius, max_size))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    support = IndexSet(dim, pts)
    coeffs = rng.normal(size=len(support)) + 1j * rng.normal(size=len(support))
    return SpectralField(support, coeffs)


dims = st.sampled_from([1, 2, 3])


# -- properties -------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_canonical_order_positions_and_negation(data):
    dim = data.draw(dims)
    pts = data.draw(symmetric_points(dim))
    s = IndexSet(dim, pts[np.random.default_rng(0).permutation(len(pts))])
    assert np.array_equal(s.entries, ref_canonical(pts))
    queries = np.concatenate([pts, data.draw(symmetric_points(dim, radius=8))])
    assert np.array_equal(s.positions(queries), ref_positions(s.entries, queries))
    assert np.array_equal(s.negation_permutation(), ref_positions(s.entries, -s.entries))
    assert validate_symmetric(s)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_union_matches_reference(data):
    dim = data.draw(dims)
    a = data.draw(symmetric_points(dim))
    b = data.draw(symmetric_points(dim))
    u = union(IndexSet(dim, a), IndexSet(dim, b))
    assert np.array_equal(u.entries, ref_canonical(np.concatenate([a, b])))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_multiply_matches_reference_exactly(data):
    dim = data.draw(dims)
    v = data.draw(field_on(dim, radius=3, max_size=15))
    u = data.draw(field_on(dim))
    support, coeffs = ref_multiply(v, u)
    w = multiply(v, u)
    assert np.array_equal(w.support.entries, support)
    assert np.array_equal(w.coeffs, coeffs)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_assemble_matches_reference_exactly(data):
    dim = data.draw(dims)
    v = data.draw(field_on(dim, radius=3, max_size=15))
    neg = v.support.negation_permutation()
    hermitian = 0.5 * (v.coeffs + np.conj(v.coeffs[neg]))
    vf = SpectralField(v.support, hermitian)
    s = IndexSet(dim, data.draw(symmetric_points(dim)))
    potential = Potential(vf, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert np.array_equal(assemble(s, potential).matrix, ref_assemble(s, vf))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sum_positions_matches_reference(data):
    dim = data.draw(dims)
    s = IndexSet(dim, data.draw(symmetric_points(dim, radius=4)))
    a = data.draw(symmetric_points(dim, max_size=8))
    b = data.draw(symmetric_points(dim, max_size=8))
    sums = (a[:, None, :] + b[None, :, :]).reshape(-1, dim)
    expected = ref_positions(s.entries, sums).reshape(len(a), len(b))
    assert np.array_equal(s.sum_positions(a, b), expected)


def assert_box_gather_is_key_gather(vf, a, b):
    """`_potential_rows` of all of a against the lattice-key gather, bit for bit."""
    v = np.append((2.0 * math.pi) ** (-vf.support.dim / 2.0) * vf.coeffs, 0.0)
    expected = v[vf.support.sum_positions(a, b)]
    got = _potential_rows(Potential(vf, 0.0, 0.0, 0.0, 0.0, 0.0), a, b)(0, len(a))
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_box_gather_matches_key_gather(data):
    # summands spread over up to 60 per axis: dense sets give boxes of fewer
    # cells than the m x n output (the table), sparse ones more (the key path)
    dim = data.draw(dims)
    v = data.draw(field_on(dim, radius=3, max_size=10))
    pts = v.support.entries
    if data.draw(st.booleans()):  # support entries far outside every box
        far = np.zeros((dim, dim), dtype=np.int64)
        far[np.diag_indices(dim)] = 600_000
        pts = np.concatenate([pts, far, -far])
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    support = IndexSet(dim, pts)
    vf = SpectralField(support, rng.normal(size=len(support)) + 1j * rng.normal(size=len(support)))
    radius = data.draw(st.sampled_from([2, 6, 60]))
    a = data.draw(symmetric_points(dim, radius=radius, max_size=12))
    b = data.draw(symmetric_points(dim, radius=radius, max_size=12))
    assert_box_gather_is_key_gather(vf, a, b)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_box_gather_on_both_sides_of_the_table_size_rule(dim):
    far = 600_000
    axis = (0,) * (dim - 1)
    vf = SpectralField.from_pairs(
        dim,
        {(-far,) + axis: 0.5 - 0.25j, (0,) * dim: 2.0, (far,) + axis: 0.5 + 0.25j,
         (1,) * dim: 0.3 + 0.1j, (-1,) * dim: 0.3 - 0.1j},
    )
    s = ball(3, dim).entries
    spread = np.concatenate([s, 40 * s])  # a box of (160 + 7)^d cells
    for a, b, table in ((s, -s, True), (s, s, True), (spread, -spread, False)):
        assert (sum_box(a, b, len(a) * len(b)) is not None) == table
        assert_box_gather_is_key_gather(vf, a, b)


def test_sum_positions_rejects_summands_out_of_range():
    s = IndexSet(1, [[0]])
    half = KEY_LIMIT // 2
    assert s.sum_positions([[half - 1]], [[1 - half]]).tolist() == [[0]]
    with pytest.raises(ValueError, match=str(half)):
        s.sum_positions([[half]], [[-half]])


def test_far_potential_support_matches_references():
    # a summand past KEY_LIMIT / 2 is fine while every sum stays in key range
    far = 600_000
    vf = SpectralField.from_pairs(1, {(-far,): 0.5 - 0.25j, (0,): 2.0, (far,): 0.5 + 0.25j})
    s = ball(2, 1)
    u = SpectralField(s, np.arange(1.0, len(s) + 1) + 0.5j)
    support, coeffs = ref_multiply(vf, u)
    w = multiply(vf, u)
    assert np.array_equal(w.support.entries, support)
    assert np.array_equal(w.coeffs, coeffs)
    potential = Potential(vf, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert np.array_equal(assemble(s, potential).matrix, ref_assemble(s, vf))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_real_assembly_matches_explicit_unitary_transform(data):
    dim = data.draw(dims)
    v = data.draw(field_on(dim, radius=3, max_size=15))
    neg = v.support.negation_permutation()
    hermitian = 0.5 * (v.coeffs + np.conj(v.coeffs[neg]))
    vf = SpectralField(v.support, hermitian)
    s = IndexSet(dim, data.draw(symmetric_points(dim)))
    potential = Potential(vf, 0.0, 0.0, 0.0, 0.0, 0.0)
    h = assemble(s, potential).matrix
    u = ref_cos_sin_unitary(s)
    oracle = u.conj().T @ h @ u
    real = ReferenceOperator(s, potential)
    a = real.dense()
    tol = 1e-13 * max(1.0, float(np.linalg.norm(h, 2)))
    assert a.dtype == np.float64
    assert np.max(np.abs(oracle.imag)) <= tol
    assert np.max(np.abs(a - oracle.real)) <= tol

    # the coordinate maps are U^H and U, and invert each other
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(len(s), 3)) + 1j * rng.normal(size=(len(s), 3))
    coords = real.coords
    y = coords.from_coefficients(x)
    assert np.max(np.abs(y - u.conj().T @ x)) <= 1e-14 * np.max(np.abs(x))
    assert np.max(np.abs(coords.to_coefficients(y) - x)) <= 1e-14 * np.max(np.abs(x))
    assert np.max(np.abs(coords.to_coefficients(x) - u @ x)) <= 1e-14 * np.max(np.abs(x))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cluster_estimate_and_marking_match_reference(data):
    dim = data.draw(dims)
    fields = data.draw(st.lists(field_on(dim), min_size=1, max_size=3))
    current = IndexSet(dim, data.draw(symmetric_points(dim, radius=4)))
    rs = []
    for f in fields:
        per_frequency = np.abs(f.coeffs) ** 2 / (1.0 + f.support.norms_sq)
        on_set = current.positions(f.support) >= 0
        product = SpectralField.zero(dim)  # cluster_estimate does not read it
        rs.append(Residual(f, product, 0.0, per_frequency, on_set, float(np.sum(per_frequency))))
    per_pair, off, total_sq = ref_cluster_estimate(rs, current)
    est = cluster_estimate(rs)
    assert list(map(tuple, est.pair_reps.tolist())) == list(per_pair)
    assert est.pair_contribs.tolist() == list(per_pair.values())
    assert est.off_set_sq == off
    assert est.total == math.sqrt(total_sq)
    if not per_pair:
        return
    theta = data.draw(st.floats(0.05, 0.95))
    marked, fraction = ref_dorfler(per_pair, theta, off)
    mark = dorfler_mark((est.pair_reps, est.pair_contribs), theta, est.off_set_sq, dim)
    assert np.array_equal(mark.marked.entries, marked)
    assert mark.achieved_fraction == fraction
    assert mark.pairs_marked == len({max(g, tuple(-x for x in g)) for g in mark.marked.to_list()})


# -- key range --------------------------------------------------------------------


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_key_range_boundary(dim):
    edge = KEY_LIMIT - 1
    corner = np.array([[edge] * dim, [-edge] * dim, [edge] + [-edge] * (dim - 1)])
    s = IndexSet(dim, np.concatenate([corner, -corner, np.zeros((1, dim), dtype=int)]))
    assert validate_symmetric(s)
    assert np.array_equal(s.entries[s.positions(corner)], corner)
    for bad in (KEY_LIMIT, -KEY_LIMIT):
        row = [0] * dim
        row[-1] = bad
        with pytest.raises(ValueError, match=str(KEY_LIMIT)):
            IndexSet(dim, [row])


def test_out_of_range_queries_do_not_alias():
    s = IndexSet(2, [[0, 0]])
    # (-1, 2^21) would pack to the key of (0, 0) without the range check
    assert s.positions([[-1, 2 * KEY_LIMIT], [0, 0]]).tolist() == [-1, 0]
    assert s.positions([[0, np.iinfo(np.int64).min]]).tolist() == [-1]
    with pytest.raises(ValueError):
        IndexSet(1, [[np.iinfo(np.int64).min]])
    assert s.positions([-1, 2 * KEY_LIMIT]).tolist() == [-1]


# -- memory ---------------------------------------------------------------------


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_assemble_and_multiply_peaks(compare2d_potential):
    # assemble holds the matrix and the table index of its gather (24 n^2
    # bytes, see below); multiply forms one key per (K, G) pair and no array
    # of summed frequencies
    potential = compare2d_potential
    s = ball(16, 2)
    n, pairs = len(s), len(potential.field.support) * len(s)
    rng = np.random.default_rng(3)
    u = SpectralField(s, rng.normal(size=n) + 1j * rng.normal(size=n))
    assert _traced_peak(assemble, s, potential) < 52 * n * n
    assert _traced_peak(multiply, potential.field, u) < 48 * pairs


def test_dense_real_matrix_peak(compare2d_potential):
    # the matrix is the only n^2 array: A and B are gathered a block of rows
    # at a time
    potential = compare2d_potential
    s = ball(16, 2)
    n = len(s)
    assert _traced_peak(lambda: ReferenceOperator(s, potential).dense()) <= 11 * n * n


def test_assemble_holds_the_matrix_and_its_gather_index(compare2d_potential):
    # the complex matrix and the intp table index it is gathered by are the
    # only n^2 arrays: 16 + 8 = 24 n^2 bytes
    potential = compare2d_potential
    s = ball(16, 2)
    n = len(s)
    assert _traced_peak(assemble, s, potential) < 28 * n * n
