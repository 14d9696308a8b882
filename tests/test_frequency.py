import itertools
import tracemalloc

import numpy as np
import pytest

from adaptpw import IndexSet, ball, union, validate_symmetric
from adaptpw.frequency import ball_size, shell_counts


def brute_force_ball(radius, dim):
    """Independent enumeration oracle for ball counts and contents."""
    pts = []
    for p in itertools.product(range(-radius, radius + 1), repeat=dim):
        if sum(x * x for x in p) <= radius * radius:
            pts.append(p)
    return sorted(pts)


def test_ball_1d_examples():
    b = ball(1, 1)
    assert b.to_list() == [(0,), (-1,), (1,)]
    assert len(b) == 3
    assert len(ball(0, 3)) == 1
    assert ball(0, 3).to_list() == [(0, 0, 0)]


def test_ball_2d_cardinality_matches_enumeration():
    assert len(ball(2, 2)) == 13
    for radius in range(0, 6):
        for dim in (1, 2, 3):
            if dim == 3 and radius > 3:
                continue
            expected = brute_force_ball(radius, dim)
            assert sorted(ball(radius, dim).to_list()) == expected


def test_ball_size_counts_without_building():
    for dim in (1, 2, 3):
        for radius in range(0, 17):
            assert ball_size(radius, dim) == len(ball(radius, dim))
    assert ball_size(32, 3) == 137065  # the 3D default reference ball


def cube_ball(radius, dim):
    """The ball as it was built before: every point of the cube (2r+1)^d, then a mask."""
    rng = np.arange(-radius, radius + 1, dtype=np.int64)
    grids = np.meshgrid(*([rng] * dim), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    return IndexSet(dim, pts[np.sum(pts * pts, axis=1) <= radius * radius])


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_ball_by_lines_is_the_cube_ball_bit_for_bit(dim):
    for radius in range(0, 13):
        got, expected = ball(radius, dim), cube_ball(radius, dim)
        for name in ("entries", "keys", "norms_sq"):
            a, b = getattr(got, name), getattr(expected, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_ball_peak_memory_per_kept_point():
    # ball(30, 3) keeps 113,081 of the cube's 226,981 points. The line build
    # peaks at 121 traced bytes a kept point, in IndexSet's own sort, and the
    # cube build at 226
    ball(30, 3)
    tracemalloc.start()
    try:
        n = len(ball(30, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 113_081
    assert peak < 140 * n


def test_shell_counts_match_the_ball():
    for dim in (1, 2, 3):
        for radius in range(0, 13):
            counts = np.bincount(ball(radius, dim).norms_sq, minlength=radius * radius + 1)
            assert np.array_equal(shell_counts(radius, dim), counts)


def test_ball_1d_cardinality_is_odd():
    for m in range(0, 20):
        assert len(ball(m, 1)) == 2 * m + 1


def test_balls_are_symmetric():
    for m in range(0, 5):
        for dim in (1, 2, 3):
            assert validate_symmetric(ball(m, dim))


def same(a, b):
    """Equal index sets: the same entries in the same canonical order."""
    return np.array_equal(a.entries, b.entries)


def test_canonical_order():
    s = ball(2, 2)
    norms = s.norms_sq
    assert np.all(np.diff(norms) >= 0)
    # tie-break is lexicographic within equal norms
    rows = s.to_list()
    for i in range(len(rows) - 1):
        if norms[i] == norms[i + 1]:
            assert rows[i] < rows[i + 1]


def test_canonical_order_is_total():
    rng = np.random.default_rng(3)
    base = ball(3, 2)
    for _ in range(10):
        perm = rng.permutation(len(base))
        shuffled = IndexSet(2, base.entries[perm])
        assert same(shuffled, base)


def test_union_examples():
    a = IndexSet(1, [[0]])
    b = IndexSet(1, [[-1], [1]])
    assert union(a, b).to_list() == [(0,), (-1,), (1,)]
    assert same(union(ball(1, 1), ball(1, 1)), ball(1, 1))
    extra = IndexSet(2, [[2, 0], [-2, 0]])
    assert len(union(ball(1, 2), extra)) == 7


def test_union_properties():
    rng = np.random.default_rng(11)
    for _ in range(20):
        pts = rng.integers(-4, 5, size=(rng.integers(1, 12), 2))
        a = IndexSet(2, pts)
        b = IndexSet(2, rng.integers(-4, 5, size=(rng.integers(1, 12), 2)))
        c = IndexSet(2, rng.integers(-4, 5, size=(rng.integers(1, 12), 2)))
        assert same(union(a, b), union(b, a))
        assert same(union(union(a, b), c), union(a, union(b, c)))
        assert same(union(a, a), a)


def test_union_dimension_mismatch():
    with pytest.raises(ValueError):
        union(ball(1, 1), ball(1, 2))


def test_validate_symmetric():
    assert validate_symmetric(IndexSet(1, [[-1], [0], [1]]))
    assert not validate_symmetric(IndexSet(1, [[0], [1]]))
    assert validate_symmetric(ball(3, 2))
    assert validate_symmetric(IndexSet(2))


def test_positions_and_negation():
    s = ball(2, 2)
    pos = s.positions([[0, 0], [1, 1], [5, 5]])
    assert pos[0] == 0
    assert pos[1] >= 0
    assert pos[2] == -1
    perm = s.negation_permutation()
    assert np.array_equal(s.entries[perm], -s.entries)


def test_entries_immutable():
    s = ball(1, 1)
    with pytest.raises(ValueError):
        s.entries[0, 0] = 9


def test_empty_set():
    s = IndexSet(2)
    assert len(s) == 0
    assert same(union(s, ball(1, 2)), ball(1, 2))
    assert validate_symmetric(s)
