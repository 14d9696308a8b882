"""Reference oracles, energy-norm subspace distances, and rate fitting.

The "exact" solution is a certified reference solve on a ball whose
radius should be at least twice the largest frequency reached by the
adaptive run it certifies; spectral accuracy makes that a reliable oracle
at desk scale. The solve is matrix-free (`ReferenceOperator`), so its
memory grows with the ball, not with its square. Errors are measured as
subspace distances in the energy norm, computed per eigenvalue group and
combined by root-sum-square; group boundaries inside the cluster are
detected from reference eigenvalue gaps. Every cluster, adaptive iterate
or uniform-sweep ball, enters the reference frame the same way: its
coefficient columns are zero-padded into the reference ball
(`embed_columns`, which is the coverage check) and taken into the
reference operator's cos/sin coordinates.

Numerical note: for a-orthonormal bases X, Y the directed distance is
sqrt(1 - sigma_min(X^H A Y)^2), but evaluating that expression directly
loses all accuracy once the distance drops below ~1e-8 (the singular
value sits within round-off of 1). We evaluate the algebraically
identical projection-residual form ||(I - P_Y) X||_a, which resolves
distances down to ~1e-14; a sampling/optimization oracle for the
defining sup-inf is kept in the test suite as a permanent cross-check.
Every inner product is a k x k Gram matrix X^H A Y formed by products
with the reference operator, so no n x n array is needed.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from .adapt import AdaptiveRun
from .frequency import IndexSet, ball, union
from .operator import (
    CLUSTER_GAP_RTOL, BlockSolveStats, EigenCluster, Potential, ReferenceOperator, group_slices,
    solve_eigen_block,
)
from .spectral import SpectralField

#: relative eigenvalue gap above which reference eigenvalues are split
#: into separate groups for per-group distances
GROUP_GAP_RTOL = 1e-6

#: leading iterations a rate fit drops as pre-asymptotic
FIT_SKIP = 1


class CoverageError(ValueError):
    """An index set is not contained in the reference basis."""


class CoverageWarning(UserWarning):
    """The reference radius is below twice the run's largest frequency."""


class RankDeficiencyError(ValueError):
    pass


class ReferenceSolution(NamedTuple):
    """Certified solve on a large ball standing in for the exact solution.

    `operator` is the `ReferenceOperator` it was solved with, whose products
    are the energy inner product of every distance, `group_blocks[i]` the
    a-orthonormal block of the reference vectors of `groups[i]`
    (`energy_block`), and `solver` the block eigensolver's counters.
    """

    cluster: EigenCluster
    operator: ReferenceOperator
    groups: list[slice]
    group_blocks: list[EnergyBlock]
    solver: BlockSolveStats

    @property
    def basis(self) -> IndexSet:
        return self.operator.basis

    @property
    def radius(self) -> float:
        return self.basis.max_radius()

    def group_distances(self, cluster: EigenCluster) -> list[float]:
        """Energy-norm distance of each group of `cluster` from the reference group.

        Discrete counterparts are taken at the same index positions as the
        reference groups. The cluster's coefficient columns are zero-padded
        into the reference ball (`embed_columns`, CoverageError when its
        basis is not inside) and taken into the reference's cos/sin
        coordinates. The columns are real functions, so their coordinates
        are real up to round-off, which is dropped.
        """
        h = self.operator
        y = h.coords.from_coefficients(embed_columns(cluster.vectors, cluster.basis, h.basis)).real
        # a C-contiguous copy per group: the layout sets the BLAS order of the Gram product
        return [
            _block_distance(energy_block(h, y[:, sl].copy()), ref)
            for sl, ref in zip(self.groups, self.group_blocks)
        ]


def reference_solve(
    potential: Potential, k0: int, n_eigs: int, m_ref: int
) -> ReferenceSolution:
    """Reference eigensolve on ball(m_ref); warns when the cluster gap is tiny.

    The ball is closed under negation, so the solve runs on the real
    symmetric operator in cos/sin coordinates, matrix-free
    (`ReferenceOperator`: FFT products, rows gathered from the potential),
    by the certified block eigensolver `solve_eigen_block`: no n x n array,
    unless the ball is small enough for a whole-space `eigh`. The same
    operator is the energy inner product of every distance
    (`energy_block`). The cluster's vectors are mapped back to coefficient
    columns over the ball.
    """
    h = ReferenceOperator(ball(m_ref, potential.dim), potential)
    cluster, x, stats = solve_eigen_block(h, k0, n_eigs)
    groups = group_slices(cluster.eigenvalues, GROUP_GAP_RTOL)
    return ReferenceSolution(
        cluster=cluster,
        operator=h,
        groups=groups,
        group_blocks=[energy_block(h, x[:, sl]) for sl in groups],
        solver=stats,
    )


def eigenvalue_gap_check(ref: ReferenceSolution) -> tuple[bool, float, float]:
    """Relative boundary gaps of the cluster; True iff both exceed `CLUSTER_GAP_RTOL`."""
    lam = ref.cluster.eigenvalues
    gap_below = (float(lam[0]) - ref.cluster.lambda_below) / max(1.0, abs(float(lam[0])))
    if ref.cluster.lambda_above is None:
        gap_above = math.inf
    else:
        gap_above = (ref.cluster.lambda_above - float(lam[-1])) / max(
            1.0, abs(float(lam[-1]))
        )
    ok = gap_below > CLUSTER_GAP_RTOL and gap_above > CLUSTER_GAP_RTOL
    return ok, gap_below, gap_above


class EnergyBlock(NamedTuple):
    """a-orthonormal coordinate columns `q` of a `ReferenceOperator` H and `hq` = H q."""

    q: np.ndarray
    hq: np.ndarray


def energy_block(h: ReferenceOperator, y: np.ndarray) -> EnergyBlock:
    """a-orthonormal basis of the span of coordinate columns y of `h`.

    Inner products are k x k Gram matrices y^H H y by products with `h`,
    which takes complex columns as their real and imaginary parts. y is
    orthonormalised through its Gram matrix G; a condition number of G
    above 1e12 is rejected as rank deficient.
    """
    hy = h.apply(y)
    s, v = np.linalg.eigh(y.conj().T @ hy)
    if s[0] <= 0.0 or s[-1] / s[0] > 1e12:
        cond = math.inf if s[0] <= 0.0 else s[-1] / s[0]
        raise RankDeficiencyError(
            f"basis is numerically rank deficient (Gram condition {cond:.3e})"
        )
    t = v / np.sqrt(s)
    return EnergyBlock(y @ t, hy @ t)


def subspace_distance(x: np.ndarray, y: np.ndarray, h: ReferenceOperator) -> float:
    """Symmetric energy-norm gap between spans of the columns of x and y.

    Columns are coefficient vectors over `h.basis`. Equal dimensions give
    equal directed distances; the maximum of both directions is returned
    either way.
    """
    coords = h.coords
    return _block_distance(
        energy_block(h, coords.from_coefficients(x)), energy_block(h, coords.from_coefficients(y))
    )


def _block_distance(bx: EnergyBlock, by: EnergyBlock) -> float:
    """subspace_distance between the spans of two a-orthonormal blocks."""
    dxy, dyx = _directed_distance(bx, by), _directed_distance(by, bx)
    if bx.q.shape[1] == by.q.shape[1] and abs(dxy - dyx) > 1e-8:
        raise RankDeficiencyError(
            f"directed distances diverge ({dxy:.3e} vs {dyx:.3e}) "
            "for equal-dimensional subspaces"
        )
    return max(dxy, dyx)


def _directed_distance(bx: EnergyBlock, by: EnergyBlock) -> float:
    """sup over a-unit x in span(bx) of ||x - P_y x||_a: sqrt(lambda_max(R^H H R)).

    R = X - Y (Y^H H X) is formed explicitly (and H R from the stored
    products), which keeps the projection-residual resolution. `eigvalsh`
    reads only the lower triangle of R^H H R, so it is not symmetrised.
    """
    m = by.q.conj().T @ bx.hq
    r = bx.q - by.q @ m
    hr = bx.hq - by.hq @ m
    return math.sqrt(max(float(np.linalg.eigvalsh(r.conj().T @ hr)[-1]), 0.0))


def embed_columns(vectors: np.ndarray, basis: IndexSet, target: IndexSet) -> np.ndarray:
    """Zero-pad coefficient columns from `basis` into `target` order."""
    pos = target.positions(basis)
    if np.any(pos < 0):
        raise CoverageError("basis is not contained in the target index set")
    out = np.zeros((len(target), vectors.shape[1]), dtype=np.complex128)
    out[pos, :] = vectors
    return out


class DistanceReport(NamedTuple):
    """Per-iteration cluster distances against a reference solution."""

    totals: list[float]
    per_group: list[list[float]]


def run_distances(run: AdaptiveRun, ref: ReferenceSolution) -> DistanceReport:
    """Energy-norm distance between each iterate's cluster and the reference.

    Groups are detected from reference eigenvalue gaps; discrete
    counterparts are taken at the same index positions, and group
    distances combine by root-sum-square. Distances use the reference's
    own energy frame (`ref.operator`).
    """
    if not run.clusters:
        raise ValueError("run holds no eigenclusters (source mode?)")
    max_radius = run.final_index_set.max_radius()
    if max_radius > ref.radius + 1e-12:
        raise CoverageError(
            f"run reaches frequency radius {max_radius:.1f}, beyond the "
            f"reference radius {ref.radius:.1f}"
        )
    if 2.0 * max_radius > ref.radius + 1e-12:
        warnings.warn(
            f"reference radius {ref.radius:.1f} is below twice the run's largest "
            f"frequency radius {max_radius:.1f}; reference error may be visible",
            CoverageWarning,
            stacklevel=2,
        )
    per_group = [ref.group_distances(cluster) for cluster in run.clusters]
    totals = [math.sqrt(sum(d * d for d in ds)) for ds in per_group]
    return DistanceReport(totals=totals, per_group=per_group)


class RateFit(NamedTuple):
    """Fitted convergence and complexity rates of an adaptive run.

    alpha_hat = exp(slope) of log(error) vs iteration (per-iteration
    contraction factor); s_hat = -slope of log(error) vs log(added
    degrees of freedom). status is "ok", "exact" (errors hit zero), or
    "non-contracting" (alpha_hat >= 1).
    """

    alpha_hat: float
    alpha_r2: float
    s_hat: float
    s_r2: float
    status: str


def _linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), r2


def fit_rates(records, errors) -> RateFit:
    """Least-squares rate fits from iteration records and an error sequence.

    The first `FIT_SKIP` iterations are dropped as pre-asymptotic.
    Records only contribute to the complexity fit once degrees of freedom
    were actually added.
    """
    errors = [float(e) for e in errors]
    if len(errors) != len(records):
        raise ValueError("records and errors must have equal length")
    if any(e <= 0.0 for e in errors):
        return RateFit(
            alpha_hat=math.nan, alpha_r2=math.nan, s_hat=math.nan, s_r2=math.nan,
            status="exact",
        )
    if len(errors) < 4:
        raise ValueError(f"need at least 4 iterations with positive errors, got {len(errors)}")

    ns = np.array([r.n for r in records], dtype=float)[FIT_SKIP:]
    dofs = np.array([r.dof_delta for r in records], dtype=float)[FIT_SKIP:]
    logs = np.log(np.array(errors))[FIT_SKIP:]

    slope, alpha_r2 = _linear_fit(ns, logs)
    alpha_hat = math.exp(slope)

    grow = dofs > 0
    if np.count_nonzero(grow) >= 2:
        s_slope, s_r2 = _linear_fit(np.log(dofs[grow]), logs[grow])
        s_hat = -s_slope
    else:
        s_hat, s_r2 = math.nan, math.nan

    status = "non-contracting" if alpha_hat >= 1.0 else "ok"
    return RateFit(alpha_hat=alpha_hat, alpha_r2=alpha_r2, s_hat=s_hat, s_r2=s_r2, status=status)


def source_errors(
    run: AdaptiveRun, reference: list[SpectralField], potential: Potential
) -> list[float]:
    """Energy-norm distance of each source iterate from a reference solve.

    Iterates are nested, so the real operator R on the union of the
    reference supports and the final index set (`ReferenceOperator`)
    covers every error e = u_ref - u_n. The cos/sin coordinates y of all
    errors, one column per iterate and right-hand side, take one
    matrix-free product; the distance is sqrt(sum over right-hand sides of
    y^H R y).
    """
    basis = run.final_index_set
    for u in reference:
        basis = union(basis, u.support)
    h = ReferenceOperator(basis, potential)
    ref = [u.coefficients_on(basis) for u in reference]
    e = [r - w.coefficients_on(basis) for sols in run.solutions for r, w in zip(ref, sols)]
    y = h.coords.from_coefficients(np.stack(e, axis=1))
    per_rhs = np.sum(np.conj(y) * h.apply(y), axis=0).real
    return [
        math.sqrt(float(np.sum(np.maximum(p, 0.0))))
        for p in per_rhs.reshape(len(run.solutions), len(reference))
    ]
