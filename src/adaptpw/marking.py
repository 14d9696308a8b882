"""Bulk (Doerfler) marking over symmetric frequency pairs.

Marking operates on +-pairs as atoms so the refined set stays closed
under negation by construction. Greedily taking pairs in descending
contribution order until the accumulated squared estimator mass reaches
theta^2 times the total yields a marked set of minimal cardinality: any
set reaching the threshold with fewer pairs would have to beat the
largest available contributions, which is impossible.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .frequency import IndexSet, lattice_keys


class MarkingError(RuntimeError):
    pass


class MarkResult(NamedTuple):
    """Outcome of one marking step.

    `marked` is symmetric and disjoint from the current index set (the
    caller only offers off-set candidates); `achieved_fraction` is
    eta(marked)/eta(total) and is >= theta on success.
    """

    marked: IndexSet
    achieved_fraction: float
    pairs_considered: int

    @property
    def pairs_marked(self) -> int:
        # the set is symmetric: each pair has exactly one entry that is its own representative
        return int(np.count_nonzero(self.marked.pair_keys() == self.marked.keys))


def dorfler_mark(contribs, theta: float, total_sq: float, dim: int) -> MarkResult:
    """Smallest set of pairs whose contribution reaches theta^2 * total_sq.

    `contribs` is a pair (reps, values): one pair representative per row
    of `reps` and the pair's total squared estimator contribution in
    `values`. Ties are broken toward smaller |G|^2, then lexicographically,
    so marking is deterministic.
    """
    reps = np.asarray(contribs[0], dtype=np.int64).reshape(-1, dim)
    values = np.asarray(contribs[1], dtype=np.float64).reshape(-1)
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must be in (0, 1), got {theta}")
    if total_sq < 0.0:
        raise ValueError(f"total_sq must be >= 0, got {total_sq}")
    if total_sq == 0.0:
        return MarkResult(IndexSet(dim), 1.0, len(values))
    if len(values) == 0:
        raise MarkingError("estimator is positive but no candidate pairs were offered")

    order = np.lexsort((lattice_keys(reps), np.sum(reps * reps, axis=1), -values))
    accumulated = np.cumsum(values[order])  # sequential, like a running sum
    reached = accumulated >= theta * theta * total_sq
    if not reached.any():
        raise MarkingError(
            f"candidates reach fraction {math.sqrt(accumulated[-1] / total_sq):.6f} "
            f"< theta = {theta}"
        )
    count = int(np.argmax(reached)) + 1
    chosen = reps[order[:count]]
    return MarkResult(
        marked=IndexSet(dim, np.concatenate([chosen, -chosen])),
        achieved_fraction=math.sqrt(float(accumulated[count - 1]) / total_sq),
        pairs_considered=len(values),
    )
