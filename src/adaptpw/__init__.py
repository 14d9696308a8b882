"""Adaptive planewave (Fourier-Galerkin) method for periodic operators.

Computes eigenvalue clusters of -Laplace + V on the d-torus with
a posteriori error control: residual-based estimators, bulk marking over
frequency pairs, a certified feasible estimator with truncated
potentials, and verification utilities measuring convergence rate and
complexity against reference solves.
"""

from .adapt import (
    AdaptiveConfig,
    AdaptiveRun,
    AdmissibilityWarning,
    IterationRecord,
    run_eigen,
    run_source,
)
from .estimator import (
    EstimatorValue,
    Residual,
    choose_truncation,
    cluster_estimate,
    eta,
    eta_cluster,
    residual,
    source_residual,
    truncated_residual,
)
from .frequency import IndexSet, ball, union, validate_symmetric
from .marking import MarkingError, MarkResult, dorfler_mark
from .operator import (
    BlockSolveStats,
    ClusterBoundaryWarning,
    CosSinCoordinates,
    EigenCluster,
    Hamiltonian,
    Potential,
    PositivityWarning,
    PotentialError,
    ReferenceOperator,
    SolverError,
    assemble,
    certify_count,
    solve_eigen,
    solve_eigen_block,
    solve_source,
    verify_potential,
)
from .spectral import (
    SpectralField,
    a_inner,
    a_norm,
    evaluate_on_grid,
    hs_norm,
    multiply,
    project,
)
from .verify import (
    CoverageWarning,
    DistanceReport,
    RateFit,
    ReferenceSolution,
    eigenvalue_gap_check,
    fit_rates,
    reference_solve,
    run_distances,
    subspace_distance,
)

__version__ = "0.1.0"
