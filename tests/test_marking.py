import itertools
import math

import numpy as np
import pytest

from adaptpw import MarkingError, dorfler_mark, validate_symmetric


def pairs(contribs):
    """(reps, values) arrays of a {representative: contribution} mapping."""
    return list(contribs), list(contribs.values())


def brute_force_minimal(contribs, theta, total_sq):
    """Exhaustive minimal pair count reaching theta^2 * total_sq (oracle)."""
    items = list(contribs.values())
    target = theta * theta * total_sq
    best = None
    for k in range(len(items) + 1):
        for combo in itertools.combinations(items, k):
            if sum(combo) >= target:
                best = k
                break
        if best is not None:
            break
    return best


def test_single_pair_suffices():
    contribs = {(1,): 0.30, (2,): 0.20, (3,): 0.50}
    res = dorfler_mark(pairs(contribs), 0.7, 1.0, dim=1)
    assert res.marked.to_list() == [(-3,), (3,)]
    assert res.achieved_fraction == pytest.approx(math.sqrt(0.5), rel=1e-12)
    assert res.pairs_considered == 3


def test_three_pairs_needed():
    contribs = {(1,): 0.30, (2,): 0.20, (3,): 0.50}
    res = dorfler_mark(pairs(contribs), 0.9, 1.0, dim=1)
    assert res.pairs_marked == 3
    assert brute_force_minimal(contribs, 0.9, 1.0) == 3


def test_tiny_theta_marks_one_pair():
    contribs = {(1,): 0.30, (2,): 0.20, (3,): 0.50}
    res = dorfler_mark(pairs(contribs), 1e-9, 1.0, dim=1)
    assert res.pairs_marked == 1
    assert res.marked.to_list() == [(-3,), (3,)]


def test_zero_frequency_singleton_pair():
    res = dorfler_mark(pairs({(0,): 1.0}), 0.5, 1.0, dim=1)
    assert res.marked.to_list() == [(0,)]
    assert validate_symmetric(res.marked)


def test_greedy_matches_brute_force():
    rng = np.random.default_rng(42)
    for trial in range(60):
        n = int(rng.integers(1, 13))
        reps = [(int(k),) for k in rng.choice(np.arange(1, 40), size=n, replace=False)]
        vals = rng.uniform(0.01, 1.0, size=n)
        contribs = dict(zip(reps, vals))
        total = float(np.sum(vals))
        theta = float(rng.uniform(0.05, 0.95))
        res = dorfler_mark(pairs(contribs), theta, total, dim=1)
        assert res.pairs_marked == brute_force_minimal(contribs, theta, total)
        assert res.achieved_fraction >= theta


def test_marked_set_symmetric():
    rng = np.random.default_rng(7)
    for _ in range(10):
        reps = {}
        for _ in range(6):
            g = (int(rng.integers(-5, 6)), int(rng.integers(-5, 6)))
            rep = max(g, tuple(-x for x in g))
            reps[rep] = float(rng.uniform(0.1, 1.0))
        res = dorfler_mark(pairs(reps), 0.6, sum(reps.values()), dim=2)
        assert validate_symmetric(res.marked)


def test_monotone_in_theta():
    rng = np.random.default_rng(5)
    reps = {(int(k),): float(v) for k, v in zip(range(1, 9), rng.uniform(0.1, 1, 8))}
    total = sum(reps.values())
    counts = [
        dorfler_mark(pairs(reps), th, total, dim=1).pairs_marked
        for th in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99)
    ]
    assert counts == sorted(counts)


def test_deterministic_tie_break():
    contribs = {(5,): 0.5, (1,): 0.5}
    res1 = dorfler_mark(pairs(contribs), 0.5, 1.0, dim=1)
    res2 = dorfler_mark(pairs(dict(reversed(list(contribs.items())))), 0.5, 1.0, dim=1)
    assert res1.marked.to_list() == res2.marked.to_list() == [(-1,), (1,)]


def test_validation_errors():
    with pytest.raises(ValueError):
        dorfler_mark(pairs({(1,): 1.0}), 1.0, 1.0, dim=1)
    with pytest.raises(ValueError):
        dorfler_mark(pairs({(1,): 1.0}), 0.0, 1.0, dim=1)
    with pytest.raises(MarkingError):
        dorfler_mark(pairs({}), 0.5, 1.0, dim=1)


def test_zero_total_returns_empty():
    res = dorfler_mark(pairs({}), 0.5, 0.0, dim=2)
    assert len(res.marked) == 0
    assert res.achieved_fraction == 1.0
