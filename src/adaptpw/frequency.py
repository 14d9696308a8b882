"""Finite symmetric frequency index sets on the integer lattice Z^d.

An index set plays the role a mesh plays in finite elements: it selects
which planewave modes span the discretization space. Refinement unions
new frequency pairs into the current set, so sets are immutable values
with a fixed canonical ordering (ascending squared Euclidean norm,
ties broken lexicographically by components). The canonical ordering
makes matrix assembly, eigenvector layout and file output reproducible.

Each frequency G is also packed into one int64 lattice key: component k
takes 21 bits at shift 21*(d-1-k) with offset 2^20, so |G_k| < 2^20
(`KEY_LIMIT`). Ascending keys are ascending lexicographic order, and
key(-G) = 2*key(0) - key(G). Lookups are `np.searchsorted` over the
sorted keys; canonical order is `np.lexsort((keys, |G|^2))`. Key addition,
key(a + b) = key(a) + key(b) - key(0), finds frequency sums in a set
(`minkowski_sum`, `IndexSet.sum_positions`).

A dense table over a box is the other way: `SumBox` numbers the cells of
the smallest box holding every a_i + b_j row-major. That flat index is
linear in G, so the index of a_i + b_j is an outer add of one int vector
per summand, and a lookup is a table read with no key and no search.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

_BITS = 21

#: exclusive bound on |G_k| for every component of a stored frequency
KEY_LIMIT = 1 << (_BITS - 1)


def _shifts(dim: int) -> np.ndarray:
    return _BITS * np.arange(dim - 1, -1, -1, dtype=np.int64)


def lattice_keys(points) -> np.ndarray:
    """Packed int64 keys of the rows of an (n, d) array with all |G_k| < KEY_LIMIT."""
    pts = np.asarray(points, dtype=np.int64)
    return np.sum((pts + KEY_LIMIT) << _shifts(pts.shape[1]), axis=1)


def _negated_keys(keys: np.ndarray, dim: int) -> np.ndarray:
    """key(-G) = 2*key(0) - key(G), grouped so no intermediate overflows."""
    zero = int(np.sum(np.int64(KEY_LIMIT) << _shifts(dim)))
    return zero - (keys - zero)


class KeyRangeError(ValueError):
    """Frequency sums that would leave the lattice key range."""


def _sum_keys(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """keys[i, j] = key(a[i] + b[j]) for (n, d) and (m, d) frequency arrays a, b."""
    reach_a, reach_b = (np.max(np.abs(x), axis=0, initial=0) for x in (a, b))
    if np.any(reach_a + reach_b >= KEY_LIMIT):
        raise KeyRangeError(
            f"frequency sums need max|a_k| + max|b_k| < 2^20 = {KEY_LIMIT}, "
            f"got maxima {reach_a.tolist()} and {reach_b.tolist()}"
        )
    zero = lattice_keys(np.zeros((1, a.shape[1]), dtype=np.int64))
    return lattice_keys(a)[:, None] + (lattice_keys(b) - zero)[None, :]


class IndexSet:
    """Immutable, canonically ordered set of integer frequencies in Z^d.

    Entries are stored as an (n, d) int64 array and `keys` holds their
    lattice keys in the same order. Sets used as discretization spaces
    are closed under negation; `validate_symmetric` checks that property,
    construction does not enforce it.
    """

    __slots__ = ("dim", "entries", "keys", "_sorted", "_rank", "_neg")

    def __init__(self, dim: int, entries=None) -> None:
        if not 1 <= dim <= 3:
            raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
        if entries is None:
            arr = np.empty((0, dim), dtype=np.int64)
        else:
            arr = np.asarray(entries, dtype=np.int64).reshape(-1, dim)
        if arr.size and (arr.min() <= -KEY_LIMIT or arr.max() >= KEY_LIMIT):
            raise ValueError(f"frequency components must satisfy |G_k| < 2^20 = {KEY_LIMIT}")
        self._build(dim, lattice_keys(arr))

    @classmethod
    def _from_keys(cls, dim: int, keys: np.ndarray) -> IndexSet:
        s = cls.__new__(cls)
        s._build(dim, keys)
        return s

    def _build(self, dim: int, keys: np.ndarray) -> None:
        # sorted unique keys, reordered canonically by (|G|^2, key); sort and
        # mask beat np.unique, whose first call also imports numpy.ma
        keys = np.sort(keys)
        sorted_keys = np.concatenate((keys[:1], keys[1:][keys[1:] != keys[:-1]]))
        sorted_rows = ((sorted_keys[:, None] >> _shifts(dim)) & (2 * KEY_LIMIT - 1)) - KEY_LIMIT
        order = np.lexsort((sorted_keys, np.sum(sorted_rows * sorted_rows, axis=1)))
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        self.dim = dim
        self.entries = sorted_rows[order]
        self.keys = sorted_keys[order]
        self._sorted = sorted_keys
        self._rank = rank
        self._neg: np.ndarray | None = None
        for a in (self.entries, self.keys, self._sorted, self._rank):
            a.setflags(write=False)

    # -- basic container behaviour -------------------------------------

    def __len__(self) -> int:
        return self.entries.shape[0]

    def to_list(self) -> list[tuple[int, ...]]:
        return list(map(tuple, self.entries.tolist()))

    # -- lookups ---------------------------------------------------------

    def _lookup(self, keys: np.ndarray) -> np.ndarray:
        """Canonical positions of `keys`, -1 where absent."""
        if len(self) == 0:
            return np.full(keys.shape, -1, dtype=np.int64)
        i = np.minimum(np.searchsorted(self._sorted, keys), len(self) - 1)
        return np.where(self._sorted[i] == keys, self._rank[i], -1)

    def positions(self, points) -> np.ndarray:
        """Positions of `points` rows, or of an IndexSet's keys, in this set; -1 where absent."""
        if isinstance(points, IndexSet):
            if points.dim != self.dim:
                raise ValueError(f"dimension mismatch: {points.dim} vs {self.dim}")
            return self._lookup(points.keys)
        pts = np.asarray(points, dtype=np.int64).reshape(-1, self.dim)
        # rows outside the key range cannot be members, and their keys would alias
        ok = np.all((pts > -KEY_LIMIT) & (pts < KEY_LIMIT), axis=1)
        return np.where(ok, self._lookup(lattice_keys(pts * ok[:, None])), -1)

    def sum_positions(self, a, b) -> np.ndarray:
        """out[i, j] = position of a[i] + b[j] in this set, -1 where absent.

        Sums are looked up by key, never formed. Per component, max|a_k| +
        max|b_k| < KEY_LIMIT keeps them in key range; else a KeyRangeError.
        """
        a = np.asarray(a, dtype=np.int64).reshape(-1, self.dim)
        b = np.asarray(b, dtype=np.int64).reshape(-1, self.dim)
        return self._lookup(_sum_keys(a, b))

    def index_of(self, g) -> int:
        i = int(self.positions([g])[0])
        if i < 0:
            raise KeyError(f"{g} not in index set")
        return i

    def pair_keys(self) -> np.ndarray:
        """Key of the +-pair representative of each entry, in canonical order."""
        return np.maximum(self.keys, _negated_keys(self.keys, self.dim))

    def negation_permutation(self) -> np.ndarray:
        """Permutation p with entries[p[i]] == -entries[i]; requires symmetry."""
        if self._neg is None:
            perm = self._lookup(_negated_keys(self.keys, self.dim))
            if np.any(perm < 0):
                raise ValueError("index set is not closed under negation")
            perm.setflags(write=False)
            self._neg = perm
        return self._neg

    # -- geometry ---------------------------------------------------------

    @property
    def norms_sq(self) -> np.ndarray:
        return np.sum(self.entries * self.entries, axis=1)

    def max_radius(self) -> float:
        return math.sqrt(int(self.norms_sq.max(initial=0)))


def ball(radius: int, dim: int) -> IndexSet:
    """All lattice points G in Z^d with |G| <= radius, canonically ordered."""
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    if not 1 <= dim <= 3:
        raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
    rng = np.arange(-radius, radius + 1, dtype=np.int64)
    grids = np.meshgrid(*([rng] * dim), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    keep = np.sum(pts * pts, axis=1) <= radius * radius
    return IndexSet(dim, pts[keep])


def ball_size(radius: int, dim: int) -> int:
    """len(ball(radius, dim)), counted without building the ball.

    Each squared norm q of the first dim-1 components (at most
    (2*radius+1)^(dim-1) of them) contributes the 2*isqrt(radius^2 - q) + 1
    points of its line along the last axis.
    """
    r2 = radius * radius
    line = np.arange(-radius, radius + 1, dtype=np.int64) ** 2
    q = np.zeros(1, dtype=np.int64)
    for _ in range(dim - 1):
        q = (q[:, None] + line[None, :]).ravel()
        q = q[q <= r2]
    half = np.floor(np.sqrt(r2 - q)).astype(np.int64)  # exact while r2 < 2^52
    return int(np.sum(2 * half + 1))


def shell_counts(radius: int, dim: int) -> np.ndarray:
    """counts[s] = number of G in Z^d with |G|^2 = s, for s = 0..radius^2.

    Built axis by axis: the first axis holds k^2 for k = 0, +-1, .., +-radius,
    and each further axis adds them, so no lattice point is enumerated.
    """
    r2 = radius * radius
    counts = np.zeros(r2 + 1, dtype=np.int64)
    counts[0] = 1
    counts[np.arange(1, radius + 1) ** 2] = 2
    for _ in range(dim - 1):
        grown = counts.copy()
        for k in range(1, radius + 1):
            grown[k * k :] += 2 * counts[: r2 + 1 - k * k]
        counts = grown
    return counts


class SumBox(NamedTuple):
    """Row-major flat index over the smallest box holding every sum a_i + b_j.

    The cell of a_i + b_j is `a_index[i] + b_index[j]`. Indices are intp,
    which numpy indexes with no cast: int32 indices would save 4 bytes per
    gathered entry, but numpy casts them in every gather, which took longer
    and raised the peak RSS of the perfbench workloads by 0.1-0.3 MB.
    """

    lo: np.ndarray
    shape: tuple[int, ...]
    strides: np.ndarray
    a_index: np.ndarray
    b_index: np.ndarray

    @property
    def cells(self) -> int:
        return math.prod(self.shape)

    def index(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Flat index of each row of `points` and whether the row lies in the box."""
        off = points - self.lo
        inside = np.all((off >= 0) & (off < np.asarray(self.shape)), axis=1)
        return off[inside] @ self.strides, inside


def sum_box(a: np.ndarray, b: np.ndarray, max_cells: int) -> SumBox | None:
    """The SumBox of the nonempty (n, d) and (m, d) frequency arrays a and b.

    None, before any index is formed, when the box has more than
    `max_cells` cells.
    """
    a_lo, b_lo = a.min(axis=0), b.min(axis=0)
    lo = a_lo + b_lo
    shape = tuple(int(w) for w in a.max(axis=0) + b.max(axis=0) - lo + 1)
    if math.prod(shape) > max_cells:
        return None
    strides = np.array([math.prod(shape[k + 1 :]) for k in range(len(shape))], dtype=np.intp)
    return SumBox(lo, shape, strides, (a - a_lo) @ strides, (b - b_lo) @ strides)


def minkowski_sum(a: IndexSet, b: IndexSet) -> tuple[IndexSet, np.ndarray]:
    """The set {a_i + b_j} and the position in it of each sum, i-major; one key per sum."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    keys = _sum_keys(a.entries, b.entries).reshape(-1)
    out = IndexSet._from_keys(a.dim, keys)
    return out, out._lookup(keys)


def union(a: IndexSet, b: IndexSet) -> IndexSet:
    """Set union with canonical order restored."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if len(a) == 0:
        return b
    if len(b) == 0:
        return a
    return IndexSet(a.dim, np.concatenate([a.entries, b.entries], axis=0))


def validate_symmetric(s: IndexSet) -> bool:
    """True iff every entry's negation is present (duplicates cannot occur)."""
    try:
        s.negation_permutation()
    except ValueError:
        return False
    return True
