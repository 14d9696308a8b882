"""Adaptive refinement loop for the eigenvalue and source problems.

One SOLVE -> ESTIMATE -> MARK -> REFINE loop serves every mode; only the
solve step differs. The exact eigenvalue algorithm is the feasible one
with the truncation policy pinned to "use everything" (finite-support
potentials give finite exact residuals). The source problem starts from
the empty index set (the first marking selects from the support of the
data).

Every mode stops by tol on one certified test: the estimator plus B, the
root-sum-square of its truncation bounds, bounds the exact estimator from
above, and the loop stops once that bound is below tol. B = 0 for exact
residuals, so the exact and source loops stop on the estimator itself;
the feasible loop stops as soon as its actual truncation slack allows, not
at the worst case eta_tilde < tol/(1+zeta).
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from typing import NamedTuple

from .estimator import (
    EstimatorValue,
    choose_truncation,
    cluster_bound,
    cluster_estimate,
    eta_cluster,
    onset_offset_maxima,
    residual,
    source_residual,
)
from .frequency import IndexSet, ball, union
from .marking import MarkResult, dorfler_mark
from .operator import EigenCluster, Potential, assemble, solve_eigen, solve_source
from .spectral import SpectralField, a_norm

MODES = ("eigen-feasible", "eigen-exact", "source")


class AdmissibilityWarning(UserWarning):
    """Marking parameters lie outside the range backed by complexity theory."""


class ParameterError(ValueError):
    """An `AdaptiveConfig` field out of its range; `field` names it."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(f"{field} {message}")
        self.field = field


class _AdaptiveFields(NamedTuple):
    dim: int
    theta_tilde: float = 0.5
    zeta: float = 0.1
    tol: float = 1e-6
    M0: int = 2
    k0: int = 0
    n_eigs: int = 1
    max_iter: int = 50
    max_dof: int = 20000
    mode: str = "eigen-feasible"


class AdaptiveConfig(_AdaptiveFields):
    """Parameters of one adaptive run, checked on construction.

    theta_tilde is the bulk-marking fraction, zeta the certified
    truncation slack of the feasible estimator, in [0, 1) in every mode and
    below theta_tilde in mode "eigen-feasible", the only loop that reads it;
    M0 is the initial ball radius of the eigenvalue loop,
    and (k0, n_eigs) the eigenvalue cluster window. max_iter bounds the
    number of refinement steps and max_dof the index-set size, so tol=0
    experiment runs still terminate.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for field, ok, rule in (
            ("dim", 1 <= self.dim <= 3, "must be 1, 2 or 3"),
            ("theta_tilde", 0.0 < self.theta_tilde < 1.0, "must be in (0, 1)"),
            ("zeta", 0.0 <= self.zeta < 1.0, "must be in [0, 1)"),
            ("zeta", self.mode != "eigen-feasible" or self.zeta < self.theta_tilde,
             f"must be in [0, theta_tilde) with theta_tilde={self.theta_tilde} "
             "in mode eigen-feasible"),
            ("tol", self.tol >= 0.0, "must be >= 0"),  # NaN fails every comparison
            ("M0", self.M0 >= 1, "must be >= 1"),
            ("k0", self.k0 >= 0, "must be >= 0"),
            ("n_eigs", self.n_eigs >= 1, "must be >= 1"),
            ("max_iter", self.max_iter >= 0, "must be >= 0"),
            ("max_dof", self.max_dof >= 1, "must be >= 1"),
            ("mode", self.mode in MODES, f"must be one of {MODES}"),
        ):
            if not ok:
                raise ParameterError(field, f"{rule}, got {getattr(self, field)!r}")
        return self


class IterationRecord(NamedTuple):
    """Per-iteration audit snapshot of an adaptive run: one row of iterations.csv.

    It holds no timing, so identical configs give identical records. For
    eigenvalue runs `values` holds the cluster eigenvalues; for
    source runs it holds the energy norms of the discrete solutions.
    residual_onset_max / residual_max are the largest exact-residual
    coefficient magnitudes on and off the current index set; their ratio
    certifies Galerkin orthogonality while residuals are above the
    eigensolver's backward-error floor.
    """

    n: int
    index_set_size: int
    dof_delta: int
    values: tuple[float, ...]
    eta_tilde: float
    eta_exact: float
    zeta_actual: float
    truncation_M: int
    marked_pairs: int
    residual_onset_max: float
    residual_max: float


class AdaptiveRun:
    """Full history of an adaptive run (immutable-value entries)."""

    def __init__(self, config: AdaptiveConfig) -> None:
        self.config = config
        self.records: list[IterationRecord] = []
        self.index_sets: list[IndexSet] = []
        self.clusters: list[EigenCluster] = []
        self.solutions: list[list[SpectralField]] = []
        self.marks: list[MarkResult] = []
        self.estimates: list[EstimatorValue] = []
        self.termination_reason = ""
        self.admissible = False

    @property
    def final_cluster(self) -> EigenCluster:
        return self.clusters[-1]

    @property
    def final_index_set(self) -> IndexSet:
        return self.index_sets[-1]


def admissible_parameters(config: AdaptiveConfig, potential: Potential) -> bool:
    """Whether (theta_tilde, zeta) lie in the quasi-optimality range.

    The sufficient range is theta_tilde < sqrt(alpha_* / (3 alpha^*)) with
    zeta below (bound - theta_tilde) / (1 + bound). Violations get a
    warning but runs proceed: the range is sufficient, not necessary.
    """
    if potential.alpha_lower <= 0.0:
        return False
    bound = math.sqrt(potential.alpha_lower / (3.0 * potential.alpha_upper))
    if config.theta_tilde >= bound:
        return False
    if config.mode == "eigen-feasible" and config.zeta >= (bound - config.theta_tilde) / (
        1.0 + bound
    ):
        return False
    return True


def _check_admissibility(config: AdaptiveConfig, potential: Potential) -> bool:
    ok = admissible_parameters(config, potential)
    if not ok:
        warnings.warn(
            f"marking parameters theta_tilde={config.theta_tilde}, zeta={config.zeta} "
            "are outside the range that guarantees quasi-optimal complexity; "
            "proceeding anyway",
            AdmissibilityWarning,
            stacklevel=4,
        )
    return ok


def run_eigen(config: AdaptiveConfig, potential: Potential) -> AdaptiveRun:
    """Adaptive eigenvalue loop (feasible or exact estimator policy).

    Each solve is a dense eigensolve on the current set followed by the
    exact residuals and the truncation policy. A stop by tol certifies the
    exact estimator below tol (`_refine`): eta_tilde * (1 + zeta_actual)
    < tol, which the worst case eta_tilde < tol/(1+zeta) implies, since
    the truncation policy keeps zeta_actual <= zeta.
    """
    if config.mode not in ("eigen-feasible", "eigen-exact"):
        raise ValueError(f"run_eigen requires an eigen mode, got {config.mode!r}")
    if config.dim != potential.dim:
        raise ValueError("config/potential dimension mismatch")
    current = ball(config.M0, config.dim)
    if config.k0 + config.n_eigs > len(current):
        raise ValueError(
            f"initial ball of radius {config.M0} has {len(current)} frequencies, "
            f"too few for k0={config.k0}, n_eigs={config.n_eigs}"
        )
    run = AdaptiveRun(config=config)
    zeta = config.zeta if config.mode == "eigen-feasible" else 0.0

    def solve(current: IndexSet):
        cluster = solve_eigen(assemble(current, potential), config.k0, config.n_eigs)
        run.clusters.append(cluster)
        fields = cluster.fields()
        lambdas = [float(x) for x in cluster.eigenvalues]
        rs_exact = [residual(u, lam, potential) for u, lam in zip(fields, lambdas)]
        # zeta = 0 (eigen-exact) rules out every radius below full support
        trunc_m, rs = choose_truncation(fields, lambdas, potential, zeta, rs_exact)
        return lambdas, rs_exact, rs, trunc_m, eta_cluster(rs_exact)

    return _refine(run, potential, current, solve)


def run_source(
    config: AdaptiveConfig, potential: Potential, rhs: list[SpectralField]
) -> AdaptiveRun:
    """Adaptive source-problem loop.

    Starts from the empty index set, whose Galerkin solutions are zero, so
    the first residuals are the data themselves. The estimator is exact
    (finite supports), so the recorded eta_tilde and eta_exact coincide.
    """
    if config.mode != "source":
        raise ValueError(f"run_source requires mode 'source', got {config.mode!r}")
    if config.dim != potential.dim:
        raise ValueError("config/potential dimension mismatch")
    if not rhs:
        raise ValueError("source run needs at least one right-hand side")
    run = AdaptiveRun(config=config)

    def solve(current: IndexSet):
        solutions = solve_source(current, potential, rhs)
        run.solutions.append(solutions)
        rs = [source_residual(w, f, potential) for w, f in zip(solutions, rhs)]
        values = [a_norm(w, r.product) for w, r in zip(solutions, rs)]
        return values, rs, rs, potential.support_radius(), None

    return _refine(run, potential, IndexSet(config.dim), solve)


def _refine(
    run: AdaptiveRun,
    potential: Potential,
    current: IndexSet,
    solve: Callable[[IndexSet], tuple],
) -> AdaptiveRun:
    """SOLVE -> ESTIMATE -> MARK -> REFINE from `current` until a stopping test holds.

    `solve(current)` returns the record values, the exact residuals, the
    residuals the estimator uses, the truncation radius, and eta_exact
    (None records the estimator itself). Stopping tests in order: the
    certified bound below `config.tol`, no markable mass left, then the
    iteration and dof budgets. Otherwise bulk marking over off-set pairs
    and union refinement.

    The certified bound is the larger of eta_tilde + B (B = `cluster_bound`
    of the estimator's residuals) and the recorded eta_exact. In exact
    arithmetic eta_exact <= eta_tilde + B; taking the larger of the two
    makes the recorded eta_exact itself below tol on every stop by tol,
    also when B = 0 and the two differ by the rounding of eta_cluster's
    sqrt(...)**2.
    """
    config = run.config
    run.admissible = _check_admissibility(config, potential)
    dof0 = len(current)
    n = 0
    while True:
        values, rs_exact, rs, trunc_m, eta_exact = solve(current)
        estimate = cluster_estimate(rs)
        onset_max, overall_max = onset_offset_maxima(rs_exact)
        if eta_exact is None:
            eta_exact = estimate.total

        stop_reason = None
        if max(eta_exact, estimate.total + cluster_bound(rs)) < config.tol:
            stop_reason = "tol"
        elif estimate.off_set_sq == 0.0:
            stop_reason = "exact"  # no markable mass left
        elif n >= config.max_iter:
            stop_reason = "max_iter"
        elif len(current) >= config.max_dof:
            stop_reason = "max_dof"

        mark = None
        if stop_reason is None:
            mark = dorfler_mark(
                (estimate.pair_reps, estimate.pair_contribs), config.theta_tilde,
                estimate.off_set_sq, config.dim,
            )
            run.marks.append(mark)

        run.records.append(
            IterationRecord(
                n=n,
                index_set_size=len(current),
                dof_delta=len(current) - dof0,
                values=tuple(values),
                eta_tilde=estimate.total,
                eta_exact=eta_exact,
                zeta_actual=estimate.zeta_actual,
                truncation_M=trunc_m,
                marked_pairs=mark.pairs_marked if mark is not None else 0,
                residual_onset_max=onset_max,
                residual_max=overall_max,
            )
        )
        run.index_sets.append(current)
        run.estimates.append(estimate)

        if stop_reason is not None:
            run.termination_reason = stop_reason
            return run
        current = union(current, mark.marked)
        n += 1
