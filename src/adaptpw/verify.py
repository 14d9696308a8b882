"""Reference oracles, energy-norm subspace distances, and rate fitting.

The "exact" solution is a dense reference solve on a ball whose radius
should be at least twice the largest frequency reached by the adaptive
run it certifies; spectral accuracy makes that a reliable oracle at desk
scale. Errors are measured as subspace distances in the energy norm,
computed per eigenvalue group and combined by root-sum-square; group
boundaries inside the cluster are detected from reference eigenvalue
gaps.

Numerical note: for a-orthonormal bases X, Y the directed distance is
sqrt(1 - sigma_min(X^H A Y)^2), but evaluating that expression directly
loses all accuracy once the distance drops below ~1e-8 (the singular
value sits within round-off of 1). We evaluate the algebraically
identical projection-residual form ||(I - P_Y) X||, which resolves
distances down to ~1e-14; a sampling/optimization oracle for the
defining sup-inf is kept in the test suite as a permanent cross-check.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .adapt import AdaptiveRun
from .frequency import IndexSet, ball, union
from .operator import (
    EigenCluster, Hamiltonian, Potential, RealHamiltonian, assemble, assemble_real,
    group_slices, solve_eigen_real,
)
from .spectral import SpectralField

#: relative eigenvalue gap above which reference eigenvalues are split
#: into separate groups for per-group distances
GROUP_GAP_RTOL = 1e-6


class CoverageError(ValueError):
    """An index set is not contained in the reference basis."""


class CoverageWarning(UserWarning):
    """The reference radius is below twice the run's largest frequency."""


class RankDeficiencyError(ValueError):
    pass


@dataclass(frozen=True)
class ReferenceSolution:
    """Dense solve on a large ball standing in for the exact solution.

    `metric` is the energy frame of the same Galerkin matrix, and
    `group_frames[i]` the orthonormal frame of the reference vectors of
    `groups[i]` in it; both are computed once per reference.
    """

    basis: IndexSet
    cluster: EigenCluster
    eigenvalue_tail_gap: float
    metric: EnergyMetric
    groups: list[slice]
    group_frames: list[np.ndarray]

    @property
    def radius(self) -> float:
        return self.basis.max_radius()

    def group_distances(self, cluster: EigenCluster) -> list[float]:
        """Energy-norm distance of each group of `cluster` from the reference group.

        Discrete counterparts are taken at the same index positions as the
        reference groups. The iterate's columns are zero-padded to the
        reference ball and gathered into its cos/sin coordinates by
        `metric.to_frame`.
        """
        emb = embed_columns(cluster.vectors, cluster.basis, self.basis)
        return [
            _frame_distance(q, _orthonormal_frame(self.metric.to_frame(emb[:, sl])))
            for sl, q in zip(self.groups, self.group_frames)
        ]


def reference_solve(
    potential: Potential, k0: int, n_eigs: int, m_ref: int
) -> ReferenceSolution:
    """Reference eigensolve on ball(m_ref); warns when the cluster gap is tiny.

    The ball is closed under negation, so the solve runs on the real
    symmetric matrix in cos/sin coordinates (`assemble_real`). That one
    matrix serves the real `eigh` and the real Cholesky of the energy frame,
    and is released on return; no complex n x n array is formed. The
    cluster's vectors are mapped back to coefficient columns over the ball.
    """
    basis = ball(m_ref, potential.dim)
    if k0 + n_eigs > len(basis):
        raise ValueError(
            f"reference ball of radius {m_ref} has {len(basis)} frequencies, "
            f"too few for k0={k0}, n_eigs={n_eigs}"
        )
    h = assemble_real(basis, potential)
    cluster, x = solve_eigen_real(h, k0, n_eigs)
    metric = EnergyMetric(h)
    if cluster.lambda_above is None:
        tail_gap = math.inf
    else:
        tail_gap = cluster.lambda_above - float(cluster.eigenvalues[-1])
    groups = group_slices(cluster.eigenvalues, GROUP_GAP_RTOL)
    return ReferenceSolution(
        basis=basis,
        cluster=cluster,
        eigenvalue_tail_gap=tail_gap,
        metric=metric,
        groups=groups,
        group_frames=[_orthonormal_frame(metric.frame @ x[:, sl]) for sl in groups],
    )


def eigenvalue_gap_check(ref: ReferenceSolution) -> tuple[bool, float, float]:
    """Relative boundary gaps of the cluster; True iff both exceed 1e-8."""
    lam = ref.cluster.eigenvalues
    gap_below = (float(lam[0]) - ref.cluster.lambda_below) / max(1.0, abs(float(lam[0])))
    if ref.cluster.lambda_above is None:
        gap_above = math.inf
    else:
        gap_above = (ref.cluster.lambda_above - float(lam[-1])) / max(
            1.0, abs(float(lam[-1]))
        )
    ok = gap_below > 1e-8 and gap_above > 1e-8
    return ok, gap_below, gap_above


class EnergyMetric:
    """Cholesky frame of the energy inner product on a fixed basis.

    Mapping coefficient vectors x to L^H x, where H = L L^H is the Galerkin
    matrix of the energy form, turns the energy inner product into the
    plain Euclidean one, after which subspace angles reduce to ordinary
    matrix computations. `frame` holds L^H, computed once. For a
    `RealHamiltonian` R = U^H H U the factor is real and x maps to
    L^T (U^H x), the real frame acting on the real and imaginary parts of
    the cos/sin coordinates in turn, so no complex copy of it is made.
    """

    def __init__(self, h: Hamiltonian | RealHamiltonian) -> None:
        try:
            chol = np.linalg.cholesky(h.matrix)
        except np.linalg.LinAlgError as exc:
            raise RankDeficiencyError(
                f"energy form not positive definite on basis: {exc}"
            ) from exc
        np.conjugate(chol, out=chol)
        self.basis = h.basis
        self.frame = chol.T
        self._coords = h.coords if isinstance(h, RealHamiltonian) else None

    def to_frame(self, vectors: np.ndarray) -> np.ndarray:
        if self._coords is None:
            return self.frame @ vectors
        y = self._coords.from_coefficients(vectors)
        return self.frame @ y.real + 1j * (self.frame @ y.imag)


def _orthonormal_frame(z: np.ndarray) -> np.ndarray:
    """Orthonormal column span of z, rejecting badly conditioned inputs."""
    u, s, _ = np.linalg.svd(z, full_matrices=False)
    if s[-1] <= 0.0 or s[0] / s[-1] > 1e6:
        cond = math.inf if s[-1] <= 0.0 else (s[0] / s[-1]) ** 2
        raise RankDeficiencyError(
            f"basis is numerically rank deficient (Gram condition {cond:.3e})"
        )
    return u


def subspace_distance(
    x: np.ndarray, y: np.ndarray, metric: EnergyMetric
) -> float:
    """Symmetric energy-norm gap between spans of the columns of x and y.

    Columns are coefficient vectors over `metric.basis`. Equal dimensions
    give equal directed distances; the maximum of both directions is
    returned either way.
    """
    return _frame_distance(
        _orthonormal_frame(metric.to_frame(x)), _orthonormal_frame(metric.to_frame(y))
    )


def _frame_distance(qx: np.ndarray, qy: np.ndarray) -> float:
    """subspace_distance between the spans of two orthonormal frames."""
    rx = qx - qy @ (qy.conj().T @ qx)
    ry = qy - qx @ (qx.conj().T @ qy)
    dxy = float(np.linalg.norm(rx, 2))
    dyx = float(np.linalg.norm(ry, 2))
    if qx.shape[1] == qy.shape[1] and abs(dxy - dyx) > 1e-8:
        raise RankDeficiencyError(
            f"directed distances diverge ({dxy:.3e} vs {dyx:.3e}) "
            "for equal-dimensional subspaces"
        )
    return max(dxy, dyx)


def embed_columns(vectors: np.ndarray, basis: IndexSet, target: IndexSet) -> np.ndarray:
    """Zero-pad coefficient columns from `basis` into `target` order."""
    pos = target.positions(basis)
    if np.any(pos < 0):
        raise CoverageError("basis is not contained in the target index set")
    out = np.zeros((len(target), vectors.shape[1]), dtype=np.complex128)
    out[pos, :] = vectors
    return out


@dataclass(frozen=True)
class DistanceReport:
    """Per-iteration cluster distances against a reference solution."""

    totals: list[float]
    per_group: list[list[float]]


def run_distances(run: AdaptiveRun, ref: ReferenceSolution) -> DistanceReport:
    """Energy-norm distance between each iterate's cluster and the reference.

    Groups are detected from reference eigenvalue gaps; discrete
    counterparts are taken at the same index positions, and group
    distances combine by root-sum-square. Distances use the reference's
    own energy frame (`ref.metric`).
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


@dataclass(frozen=True)
class RateFit:
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


def fit_rates(records, errors, skip_first: int = 1) -> RateFit:
    """Least-squares rate fits from iteration records and an error sequence.

    The first `skip_first` iterations are dropped as pre-asymptotic.
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

    ns = np.array([r.n for r in records], dtype=float)[skip_first:]
    dofs = np.array([r.dof_delta for r in records], dtype=float)[skip_first:]
    logs = np.log(np.array(errors))[skip_first:]

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

    Iterates are nested, so one Galerkin matrix H on the union of the
    reference supports and the final index set covers every error
    e = u_ref - u_n; the distance is sqrt(sum over right-hand sides of
    Re(e^H H e)).
    """
    basis = run.final_index_set
    for u in reference:
        basis = union(basis, u.support)
    h = assemble(basis, potential).matrix
    ref = _coefficient_columns(reference, basis)
    out = []
    for sols in run.solutions:
        e = ref - _coefficient_columns(sols, basis)
        per_rhs = np.sum(np.conj(e) * (h @ e), axis=0).real
        out.append(math.sqrt(float(np.sum(np.maximum(per_rhs, 0.0)))))
    return out


def _coefficient_columns(fields: list[SpectralField], basis: IndexSet) -> np.ndarray:
    """One coefficient column per field over `basis`, which must hold every support."""
    return np.concatenate(
        [embed_columns(f.coeffs[:, None], f.support, basis) for f in fields], axis=1
    )
