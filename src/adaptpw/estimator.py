"""Residuals and a posteriori error estimators for eigen and source problems.

The estimator of a residual r over a frequency set S is
eta^2(r; S) = sum_{G in S} |r_G|^2 / (1 + |G|^2), the squared H^{-1} norm
of the projection of r onto span(S). Because potentials have finite
Fourier support, residuals have finite support and the full estimator is
computable exactly; the feasible variant truncates the potential to a
ball and carries a certified bound on what the truncation discarded.

The certified truncation bound is an l1-l2 convolution estimate:
|| (V - V_trunc) u ||_{L^2} <= (2*pi)^(-d/2) * (sum_{|K|>M} |V_K|) * ||u||_{L^2},
which dominates the H^{-1} distance between exact and truncated residuals
and is fully computable with no generic constants.

The same bound lets the truncation search skip a radius without computing
its residuals. Coefficientwise r_M - r = (V - V_M) u, whose weighted l2
norm is at most that bound, so by Minkowski's inequality (per member, then
across the cluster) eta_cluster(r_M) <= eta_cluster(r) + B_M, with B_M the
root-sum-square of the members' bounds. The acceptance test
B_M <= zeta * eta_cluster(r_M) therefore cannot pass when
B_M * (1 - zeta) > zeta * eta_cluster(r), and such a radius is skipped.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .frequency import IndexSet, lattice_keys, union
from .operator import Potential, SolverError
from .spectral import SpectralField, multiply, norm_factor

# Relative slack of the certified skip in choose_truncation, far above the
# round-off (near 1e-12 relative) of the two sums it compares.
_SKIP_MARGIN = 1e-9


class Residual(NamedTuple):
    """A residual field with its per-frequency estimator contributions.

    `product` is the V*u that `multiply` formed for it (V truncated for a
    truncated residual), which `spectral.a_norm` reads for the energy norm.
    `per_frequency[i]` is |r_G|^2 / (1+|G|^2) for the i-th support entry,
    `on_set[i]` whether it lies in the iterate set (the support of u) and
    `total_sq` the sum of `per_frequency`. `truncation_bound` is a certified
    upper bound on the H^{-1} norm of the part discarded by potential
    truncation (exactly 0 when the full potential was used).
    """

    field: SpectralField
    product: SpectralField
    truncation_bound: float
    per_frequency: np.ndarray
    on_set: np.ndarray
    total_sq: float

    @property
    def support(self) -> IndexSet:
        return self.field.support


def _residual(
    u: SpectralField, v: SpectralField, lam: float = 0.0, f: SpectralField | None = None,
    bound: float = 0.0,
) -> Residual:
    """head - |G|^2 u - V u, with head = lam*u, or f when f is given.

    Computed coefficientwise on supp(Vu), which holds supp u because verified
    potentials and their truncations store V_0, and on supp f when given.
    One lookup of u's frequencies places u and marks the iterate set. A
    SolverError is raised when the estimator overflows to a non-finite sum.
    """
    vu = multiply(v, u)
    support = vu.support if f is None else union(vu.support, f.support)
    pos = support.positions(u.support)
    uc = np.zeros(len(support), dtype=np.complex128)
    uc[pos] = u.coeffs
    on_set = np.bincount(pos, minlength=len(support)) > 0
    head = lam * uc if f is None else f.coefficients_on(support)
    vc = vu.coeffs if f is None else vu.coefficients_on(support)
    norms_sq = support.norms_sq.astype(np.float64)
    field = SpectralField(support, head - norms_sq * uc - vc)
    per_freq = (np.abs(field.coeffs) ** 2) / (1.0 + norms_sq)
    total_sq = float(np.sum(per_freq))
    if not math.isfinite(total_sq):
        raise SolverError(f"the residual estimator overflows: sum |r_G|^2/(1+|G|^2) = {total_sq}")
    for a in (per_freq, on_set):
        a.setflags(write=False)
    return Residual(field, vu, float(bound), per_freq, on_set, total_sq)


def residual(u: SpectralField, lam: float, potential: Potential) -> Residual:
    """Exact eigenpair residual lam*u + Laplace(u) - V*u in coefficient form.

    Coefficientwise r_G = lam*u_G - |G|^2 u_G - (Vu)_G on the Minkowski sum
    of the supports; for a Galerkin eigenpair the coefficients on the
    current index set vanish up to round-off.
    """
    return _residual(u, potential.field, lam=lam)


def truncated_residual(
    u: SpectralField, lam: float, potential: Potential, radius: int
) -> Residual:
    """Residual computed with the potential truncated to a ball.

    The certified `truncation_bound` is
    (2*pi)^(-d/2) * tail_l1(radius) * ||u||_{L^2}.
    """
    if radius < 0:
        raise ValueError("truncation radius must be >= 0")
    bound = norm_factor(potential.dim) * potential.tail_l1(radius) * u.l2_norm()
    return _residual(u, potential.truncated_field(radius), lam=lam, bound=bound)


def source_residual(w: SpectralField, f: SpectralField, potential: Potential) -> Residual:
    """Source-problem residual f - (-Laplace + V) w, exact."""
    return _residual(w, potential.field, f=f)


def eta(r: Residual) -> float:
    """Estimator over the full residual support."""
    return math.sqrt(r.total_sq)


def eta_cluster(rs: list[Residual]) -> float:
    """Root-sum-square of per-member estimators."""
    return float(math.sqrt(sum(eta(r) ** 2 for r in rs)))


def choose_truncation(
    fields: list[SpectralField],
    lambdas,
    potential: Potential,
    zeta: float,
    rs_exact: list[Residual],
) -> tuple[int, list[Residual]]:
    """Pick a potential cutoff whose certified bound is below zeta * eta.

    Starting from radius 1 and doubling, stop as soon as the aggregated
    certified bound B_M (root-sum-square over cluster members) is at most
    zeta times the aggregated truncated estimator. Finite potential
    support guarantees termination: at full support the bound is exactly
    zero and the caller's exact residuals `rs_exact` (one per member) are
    returned as they are. Returns the effective cutoff radius and the
    residuals.

    A radius that cannot pass is skipped before its residuals are
    computed: with E = eta_cluster(rs_exact), eta_cluster(r_M) <= E + B_M
    (module docstring), so B_M * (1 - zeta) > zeta * E * (1 + _SKIP_MARGIN)
    rules out B_M <= zeta * eta_cluster(r_M). Every decision is the one the
    full test makes, and a skip can only move the search on to a larger
    radius, whose certificate is tested as before.
    """
    if not 0.0 <= zeta < 1.0:
        raise ValueError(f"zeta must be in [0, 1), got {zeta}")
    full = potential.support_radius()
    scale = norm_factor(potential.dim)
    norms = [u.l2_norm() for u in fields]
    skip_above = zeta * eta_cluster(rs_exact) * (1.0 + _SKIP_MARGIN)
    radius = 1
    while True:
        tail = potential.tail_l1(radius)
        if radius >= full or tail == 0.0:
            return full, rs_exact
        # the same products truncated_residual forms, so B_M is bit-identical
        bound = math.sqrt(sum((scale * tail * norm) ** 2 for norm in norms))
        if bound * (1.0 - zeta) <= skip_above:
            rs = [
                truncated_residual(u, lam, potential, radius)
                for u, lam in zip(fields, lambdas)
            ]
            if bound <= zeta * eta_cluster(rs):
                return radius, rs
        radius *= 2


class EstimatorValue(NamedTuple):
    """Aggregated estimator of a cluster with its marking breakdown.

    Row i of `pair_reps` is a +-pair representative (lexicographic max of
    G and -G) outside the current index set and `pair_contribs[i]` the
    pair's total squared contribution across cluster members, in order of
    first encounter; pairs are atomic so any marked set built from them is
    symmetric. `zeta_actual` is the certified ratio bound/total (0 for
    exact residuals).

    `off_set_sq`, the markable mass, is the sum of all pair contributions.
    It equals total^2 up to the mass on the current set, which is zero in
    exact arithmetic for exact residuals; marking against it stays well
    posed even when a run is pushed to the round-off floor, where solver
    noise on the current set would otherwise swamp the candidates.
    """

    total: float
    pair_reps: np.ndarray
    pair_contribs: np.ndarray
    zeta_actual: float
    off_set_sq: float


def cluster_estimate(rs: list[Residual]) -> EstimatorValue:
    """Aggregate residual contributions into pair totals outside the iterate set.

    Pair totals are one `np.bincount` over all members' contributions in
    encounter order, so each accumulates exactly like a running sum.
    """
    total_sq = 0.0
    reps, contribs = [], []
    for r in rs:
        total_sq += r.total_sq
        outside = ~r.on_set
        rows = r.support.entries[outside]
        is_rep = (r.support.pair_keys() == r.support.keys)[outside]
        reps.append(np.where(is_rep[:, None], rows, -rows))
        contribs.append(r.per_frequency[outside])
    reps = np.concatenate(reps)
    _, first, inverse = np.unique(lattice_keys(reps), return_index=True, return_inverse=True)
    order = np.argsort(first)
    pair_contribs = np.bincount(inverse, weights=np.concatenate(contribs))[order]
    total = math.sqrt(total_sq)
    bound = math.sqrt(sum(r.truncation_bound**2 for r in rs))
    zeta_actual = bound / total if total > 0.0 else 0.0
    return EstimatorValue(
        total=total, pair_reps=reps[first[order]], pair_contribs=pair_contribs,
        zeta_actual=zeta_actual, off_set_sq=sum(pair_contribs.tolist()),
    )


def onset_offset_maxima(rs: list[Residual]) -> tuple[float, float]:
    """(max |r_G| on the iterate set, max |r_G| anywhere) across members.

    The first number is the Galerkin-orthogonality defect in coefficient
    form; for exact residuals of true Galerkin solutions it sits at the
    eigensolver's backward-error level.
    """
    onset = 0.0
    overall = 0.0
    for r in rs:
        if len(r.support) == 0:
            continue
        mags = np.abs(r.field.coeffs)
        overall = max(overall, float(mags.max()))
        if np.any(r.on_set):
            onset = max(onset, float(mags[r.on_set].max()))
    return onset, overall
