"""Experiment runner: config ingestion, potential families, outputs.

Config files are plain JSON::

    {
      "problem":      {"dim": 1, "k0": 0, "n_eigs": 2,
                       "potential": {"family": "trig", "c": 1.0,
                                     "terms": [{"k": [1], "a": 1.0}]},
                       "rhs": [[{"index": [0], "re": 1.0}]]},
      "algorithm":    {"mode": "eigen-feasible", "theta_tilde": 0.5,
                       "zeta": 0.1, "tol": 1e-6, "M0": 2,
                       "max_iter": 50, "max_dof": 20000},
      "verification": {"M_ref": 32, "enable_subspace_distance": true},
      "output":       {"directory": "runs/demo", "formats": ["csv", "json"]},
      "seed": 7
    }

Potential families:
  constant      {"family": "constant", "c": 1.0}
  trig          c + sum_k a_k cos(k . x), terms listing integer k and a
  random-decay  seeded coefficients |V_G| = A (1+|G|^2)^(-p/2) for
                |G| <= r_cut with random phases, Hermitian-symmetrized,
                then shifted so min V >= 0.5 on the verification grid
                (the shift is recorded in the summary)
  explicit      raw (index, re, im) coefficient triples

"rhs" (source mode only) lists one coefficient-triple list per
right-hand side.

Outputs: iterations.csv (one row per adaptive iteration; wall time is
reported in summary.json only so reruns are byte-identical),
summary.json, marked_sets.jsonl, and in uniform/compare modes
uniform.csv plus comparison.csv. Exit codes: 0 success, 2 config error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .adapt import AdaptiveConfig, AdaptiveRun, run_eigen, run_source
from .frequency import ball, ball_size, shell_counts
from .marking import MarkingError
from .operator import (
    Potential, PotentialError, SolverError, assemble_real, solve_eigen_real, solve_source,
    verify_potential,
)
from .spectral import SpectralField, evaluate_on_grid
from .verify import (
    CoverageError,
    ReferenceSolution,
    eigenvalue_gap_check,
    fit_rates,
    reference_solve,
    run_distances,
    source_errors,
)

ENV_OUTPUT_DIR = "ADAPTPW_OUT"

ALGORITHM_DEFAULTS = {
    "mode": "eigen-feasible",
    "theta_tilde": 0.5,
    "zeta": 0.1,
    "tol": 1e-6,
    "M0": 2,
    "max_iter": 50,
    "max_dof": 20000,
}

RUN_MODES = ("eigen-feasible", "eigen-exact", "source", "uniform", "compare")
OUTPUT_FORMATS = ("csv", "json", "gnuplot")


class ConfigError(ValueError):
    """Invalid experiment configuration; `field` names the offending entry."""

    def __init__(self, field_path: str, message: str) -> None:
        super().__init__(f"{field_path}: {message}")
        self.field = field_path


@dataclass(frozen=True)
class ExperimentConfig:
    dim: int
    k0: int
    n_eigs: int
    potential_spec: dict
    rhs_spec: list | None
    algorithm: AdaptiveConfig
    m_ref: int
    enable_subspace_distance: bool
    output_dir: str
    formats: tuple[str, ...]
    seed: int | None
    raw: dict


@dataclass
class RunSummary:
    """Machine-readable run outcome mirrored into summary.json."""

    data: dict = field(default_factory=dict)

    def write(self, path: Path) -> None:
        _atomic_write(path, json.dumps(self.data, indent=2, sort_keys=True) + "\n")


# -- config ingestion ---------------------------------------------------------


def _require(mapping: dict, key: str, path: str):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ConfigError(f"{path}.{key}", "missing required field")
    return mapping[key]


def _number(kind: type, value, path: str):
    """`kind(value)` for kind int or float, a ConfigError naming `path` if it fails."""
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(path, f"must be {what}, got {value!r}") from exc


_KIND_NAMES = {dict: "an object", list: "a list", bool: "true or false"}


def _typed(kind: type, value, path: str):
    """`value` if it is a `kind` (dict, list or bool), a ConfigError naming `path` otherwise."""
    if not isinstance(value, kind):
        raise ConfigError(path, f"must be {_KIND_NAMES[kind]}, got {value!r}")
    return value


def _frequency(value, dim: int, path: str) -> tuple[int, ...]:
    """An integer frequency with `dim` components, a ConfigError naming `path` otherwise."""
    try:
        k = tuple(int(x) for x in value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(path, f"must be a list of integers, got {value!r}") from exc
    if len(k) != dim:
        raise ConfigError(path, f"needs {dim} components")
    return k


def ingest_config(path: str | Path, seed: int | None = None) -> ExperimentConfig:
    """Load and validate a JSON experiment config, applying defaults.

    A non-None `seed` overrides the config's own seed.
    """
    p = Path(path)
    if not p.is_file():
        raise ConfigError("config", f"file not found: {p}")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}") from exc
    return validate_config(raw, seed)


def validate_config(raw: dict, seed: int | None = None) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config", "top level must be a JSON object")
    problem = _require(raw, "problem", "config")
    dim = _number(int, _require(problem, "dim", "problem"), "problem.dim")
    if not 1 <= dim <= 3:
        raise ConfigError("problem.dim", f"must be 1, 2 or 3, got {dim}")
    k0 = _number(int, problem.get("k0", 0), "problem.k0")
    if k0 < 0:
        raise ConfigError("problem.k0", f"must be >= 0, got {k0}")
    n_eigs = _number(int, _require(problem, "n_eigs", "problem"), "problem.n_eigs")
    if n_eigs < 1:
        raise ConfigError("problem.n_eigs", f"must be >= 1, got {n_eigs}")
    pot = _require(problem, "potential", "problem")
    if not isinstance(pot, dict) or "family" not in pot:
        raise ConfigError("problem.potential", "must be an object with a 'family' key")
    if pot["family"] not in ("constant", "trig", "random-decay", "explicit"):
        raise ConfigError("problem.potential.family", f"unknown family {pot['family']!r}")

    algo = dict(ALGORITHM_DEFAULTS)
    algo.update(_typed(dict, raw.get("algorithm", {}), "algorithm"))
    mode = algo.pop("mode")
    if mode not in ("eigen-feasible", "eigen-exact", "source"):
        raise ConfigError("algorithm.mode", f"unknown mode {mode!r}")
    for key in ("theta_tilde", "zeta", "tol"):
        algo[key] = _number(float, algo[key], f"algorithm.{key}")
    for key in ("M0", "max_iter", "max_dof"):
        algo[key] = _number(int, algo[key], f"algorithm.{key}")
    if algo["zeta"] >= algo["theta_tilde"]:
        raise ConfigError(
            "algorithm.zeta",
            f"must be < algorithm.theta_tilde "
            f"(zeta={algo['zeta']}, theta_tilde={algo['theta_tilde']})",
        )
    try:
        adaptive = AdaptiveConfig(
            dim=dim,
            theta_tilde=algo["theta_tilde"],
            zeta=algo["zeta"],
            tol=algo["tol"],
            M0=algo["M0"],
            k0=k0,
            n_eigs=n_eigs,
            max_iter=algo["max_iter"],
            max_dof=algo["max_dof"],
            mode=mode,
        )
    except ValueError as exc:
        raise ConfigError("algorithm", str(exc)) from exc

    rhs_spec = problem.get("rhs")
    if mode == "source":
        if not rhs_spec:
            raise ConfigError("problem.rhs", "source mode requires right-hand sides")

    verification = _typed(dict, raw.get("verification", {}), "verification")
    m_ref = _number(int, verification.get("M_ref", 32), "verification.M_ref")
    if m_ref < 1:
        raise ConfigError("verification.M_ref", f"must be >= 1, got {m_ref}")
    enable_dist = _typed(
        bool, verification.get("enable_subspace_distance", True),
        "verification.enable_subspace_distance",
    )

    output = _typed(dict, raw.get("output", {}), "output")
    outdir = str(output.get("directory", "out"))
    formats = output.get("formats", ["csv", "json"])
    if not isinstance(formats, list) or not all(f in OUTPUT_FORMATS for f in formats):
        raise ConfigError(
            "output.formats", f"must be a list drawn from {list(OUTPUT_FORMATS)}, got {formats!r}"
        )

    if seed is None:
        seed = raw.get("seed")
    if pot["family"] == "random-decay" and seed is None:
        raise ConfigError("seed", "random-decay potentials require an explicit seed")

    return ExperimentConfig(
        dim=dim,
        k0=k0,
        n_eigs=n_eigs,
        potential_spec=pot,
        rhs_spec=rhs_spec,
        algorithm=adaptive,
        m_ref=m_ref,
        enable_subspace_distance=enable_dist,
        output_dir=outdir,
        formats=tuple(formats),
        seed=None if seed is None else _number(int, seed, "seed"),
        raw=raw,
    )


def _physical_memory() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


#: peak bytes per n^2 of a reference solve on n frequencies, measured with
#: ru_maxrss on 2D balls of 1257 to 3209 frequencies (numpy 2.4, OpenBLAS).
#: The real eigen reference holds its matrix, eigh's copy of it, the
#: eigenvectors and the divide-and-conquer workspace (2 n^2 doubles);
#: source mode's complex `solve_source` holds its matrix, the Cholesky
#: factor and the LU copy of the solve.
EIGEN_REFERENCE_BYTES = 41
SOURCE_REFERENCE_BYTES = 51


def check_reference_memory(
    m_ref: int, dim: int, bytes_per_n2: int = EIGEN_REFERENCE_BYTES
) -> None:
    """Reject a reference ball whose solve needs more than physical memory.

    The solve on n frequencies peaks at `bytes_per_n2 * n^2` bytes. The
    cube |G_i| <= M/sqrt(d) lies inside the ball, so its size is a lower
    bound on n. The ball itself is counted (enumerating (2M+1)^(d-1)
    partial norms) unless that bound alone needs over 64 times physical
    memory; such a radius is rejected on the bound without a count that
    could itself be large.
    """
    limit = _physical_memory()
    n = (2 * math.isqrt(m_ref * m_ref // dim) + 1) ** dim
    if bytes_per_n2 * n * n <= 64 * limit:
        n = ball_size(m_ref, dim)
    if bytes_per_n2 * n * n > limit:
        raise ConfigError(
            "verification.M_ref",
            f"the reference ball of radius {m_ref} in {dim}D has at least {n} frequencies; "
            f"its dense reference solve needs {bytes_per_n2 * n * n} bytes, more than the "
            f"{limit} bytes of physical memory",
        )


def _check_ball_holds_cluster(field_path: str, radius: int, config: ExperimentConfig) -> None:
    # ball(need) holds at least 2*need+1 frequencies, so counting the ball of
    # radius min(radius, need) decides the question at bounded cost
    need = config.k0 + config.n_eigs
    n = ball_size(min(radius, need), config.dim)
    if n < need:
        raise ConfigError(
            field_path,
            f"the ball of radius {radius} in {config.dim}D has {n} frequencies, "
            f"too few for k0={config.k0}, n_eigs={config.n_eigs}",
        )


def preflight(config: ExperimentConfig, mode: str) -> None:
    """Reject, before any work, a run that its frequency balls cannot carry.

    Eigen, compare and uniform runs need the cluster to fit in the initial
    ball, and every run that builds a reference needs its dense solve to
    fit in memory: the real eigen reference, or source mode's complex
    `solve_source`. The uniform sweep's balls lie inside the reference ball
    and are solved the same real way, so they peak no higher. An eigen
    reference must also hold the cluster.
    """
    if mode not in RUN_MODES:
        raise ConfigError("mode", f"unknown mode {mode!r}")
    if mode != "source":
        _check_ball_holds_cluster("algorithm.M0", config.algorithm.M0, config)
    if mode == "source" and config.enable_subspace_distance:
        check_reference_memory(config.m_ref, config.dim, SOURCE_REFERENCE_BYTES)
    elif config.enable_subspace_distance or mode == "uniform":
        check_reference_memory(config.m_ref, config.dim)
        _check_ball_holds_cluster("verification.M_ref", config.m_ref, config)


# -- potential families -------------------------------------------------------


def build_potential(spec: dict, dim: int, seed: int | None = None) -> tuple[Potential, dict]:
    """Construct and verify a potential from a family spec.

    Returns the potential and a metadata dict (seed, positivity shift,
    and the recorded coefficient-tail modeling error for random-decay).
    """
    family = spec["family"]
    norm = (2.0 * math.pi) ** (dim / 2.0)
    meta: dict = {"family": family}
    if family == "constant":
        c = _number(float, spec.get("c", 1.0), "problem.potential.c")
        if c <= 0.0:
            raise ConfigError("problem.potential.c", f"must be > 0, got {c}")
        fld = SpectralField.from_pairs(dim, {(0,) * dim: c * norm}, real_flag=True)
    elif family == "trig":
        c = _number(float, spec.get("c", 0.0), "problem.potential.c")
        coeffs: dict[tuple, complex] = {(0,) * dim: c * norm}
        for i, term in enumerate(_typed(list, spec.get("terms", []), "problem.potential.terms")):
            path = f"problem.potential.terms[{i}]"
            k = _frequency(_require(term, "k", path), dim, f"{path}.k")
            a = _number(float, _require(term, "a", path), f"{path}.a")
            half = 0.5 * a * norm
            neg = tuple(-x for x in k)
            coeffs[k] = coeffs.get(k, 0.0) + half
            coeffs[neg] = coeffs.get(neg, 0.0) + half
        fld = SpectralField.from_pairs(dim, coeffs, real_flag=True)
    elif family == "random-decay":
        if seed is None:
            raise ConfigError("seed", "random-decay potentials require a seed")
        amplitude = _number(float, spec.get("amplitude", 1.0), "problem.potential.amplitude")
        p = _number(float, _require(spec, "p", "problem.potential"), "problem.potential.p")
        r_cut = _number(
            int, _require(spec, "r_cut", "problem.potential"), "problem.potential.r_cut"
        )
        fld, shift, tail = _random_decay_field(dim, amplitude, p, r_cut, seed)
        meta.update(
            seed=seed,
            positivity_shift=shift,
            modeling_error_l1=tail,
            amplitude=amplitude,
            p=p,
            r_cut=r_cut,
        )
    elif family == "explicit":
        fld = _parse_triples(spec.get("coefficients", []), dim, "problem.potential.coefficients")
        if not fld.real_flag:
            raise ConfigError(
                "problem.potential.coefficients",
                "coefficients must be Hermitian-symmetric (real potential)",
            )
    else:  # pragma: no cover - guarded in validate_config
        raise ConfigError("problem.potential.family", f"unknown family {family!r}")
    try:
        potential = verify_potential(fld)
    except PotentialError as exc:
        raise ConfigError("problem.potential", str(exc)) from exc
    meta.update(
        nu_lower=potential.nu_lower, nu_upper=potential.nu_upper, l1_total=potential.l1_total
    )
    return potential, meta


def _random_decay_field(
    dim: int, amplitude: float, p: float, r_cut: int, seed: int
) -> tuple[SpectralField, float, float]:
    """Seeded random potential with algebraic coefficient decay.

    Magnitudes follow A (1+|G|^2)^(-p/2) exactly up to |G| <= r_cut; one
    phase is drawn per +-pair (in canonical support order) and assigned
    conjugately, so Hermitian symmetry holds by construction. The mean is
    then shifted so the sampled minimum is at least 0.5.
    """
    support = ball(r_cut, dim)
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=len(support))
    mags = amplitude * (1.0 + support.norms_sq.astype(np.float64)) ** (-p / 2.0)
    # entry i < neg[i] draws the phase of its pair; G = 0 keeps its magnitude
    neg = support.negation_permutation()
    first = np.flatnonzero(np.arange(len(support)) < neg)
    phase = np.exp(1j * phases[first])
    sym = mags.astype(np.complex128)
    sym[first] = mags[first] * phase
    sym[neg[first]] = mags[first] * np.conj(phase)
    fld = SpectralField(support, sym, real_flag=True)
    npts = 4 * (r_cut + 1)
    vmin = float(evaluate_on_grid(fld, npts).min())
    shift = max(0.0, 0.5 - vmin)
    if shift > 0.0:
        zero = support.index_of((0,) * dim)
        shifted = sym.copy()
        shifted[zero] += shift * (2.0 * math.pi) ** (dim / 2.0)
        fld = SpectralField(support, shifted, real_flag=True)
    # modeling error of truncating the infinite family at r_cut: l1 tail of
    # the magnitude law summed over the next shells (window of width 3 r_cut),
    # term by term in ascending |G|^2 as over the canonically ordered window
    counts = shell_counts(4 * r_cut, dim)
    shells = np.arange(r_cut * r_cut + 1, len(counts))
    terms = amplitude * (1.0 + shells.astype(np.float64)) ** (-p / 2.0)
    tail = float(np.sum(np.repeat(terms, counts[shells])))
    return fld, shift, tail


def _parse_triples(triples: list, dim: int, field_path: str) -> SpectralField:
    """Field from {index, re, im} coefficient triples listed at `field_path`.

    A malformed triple is reported under `field_path[j]`.
    """
    coeffs = {}
    for j, entry in enumerate(_typed(list, triples, field_path)):
        path = f"{field_path}[{j}]"
        k = _frequency(_require(entry, "index", path), dim, f"{path}.index")
        coeffs[k] = _number(float, entry.get("re", 0.0), f"{path}.re") + 1j * _number(
            float, entry.get("im", 0.0), f"{path}.im"
        )
    return SpectralField.from_pairs(dim, coeffs)


def build_rhs(rhs_spec: list, dim: int) -> list[SpectralField]:
    return [
        _parse_triples(t, dim, f"problem.rhs[{i}]")
        for i, t in enumerate(_typed(list, rhs_spec, "problem.rhs"))
    ]


# -- uniform sweep ------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    m: int
    dof: int
    eigenvalues: tuple[float, ...]
    max_eigenvalue_error: float
    distance: float


def uniform_sweep(
    potential: Potential,
    k0: int,
    n_eigs: int,
    m_list: list[int],
    ref: ReferenceSolution | None = None,
) -> list[SweepRow]:
    """Dense solves on balls of increasing radius, with errors vs reference.

    Each ball is closed under negation, so it is solved in real cos/sin
    coordinates (`assemble_real`, `solve_eigen_real`), like the reference.
    """
    if list(m_list) != sorted(m_list):
        raise ValueError("m_list must be ascending")
    rows = []
    for m in m_list:
        basis = ball(m, potential.dim)
        cluster, _ = solve_eigen_real(assemble_real(basis, potential), k0, n_eigs)
        lam = tuple(float(x) for x in cluster.eigenvalues)
        err = math.nan
        dist = math.nan
        if ref is not None:
            err = float(
                np.max(np.array(lam) - ref.cluster.eigenvalues.astype(np.float64))
            )
            dist = math.sqrt(sum(d * d for d in ref.group_distances(cluster)))
        rows.append(
            SweepRow(
                m=m,
                dof=len(basis),
                eigenvalues=lam,
                max_eigenvalue_error=err,
                distance=dist,
            )
        )
    return rows


# -- output files -------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Comma-separated file; every cell goes through `_fmt`, which prints ints as str does."""
    lines = [",".join(header)] + [",".join(_fmt(x) for x in row) for row in rows]
    _atomic_write(path, "\n".join(lines) + "\n")


def write_iterations_csv(
    path: Path, run: AdaptiveRun, distances: list[float] | None
) -> None:
    """One row per iteration; floats carry 17 significant digits.

    Wall-clock time is deliberately omitted (it lives in summary.json) so
    identical configs produce byte-identical files.
    """
    n_values = len(run.records[0].values) if run.records else 0
    value_name = "lambda" if run.clusters else "norm"
    header = (
        ["n", "index_set_size", "dof_delta", "eta_tilde", "eta_exact", "zeta_actual",
         "truncation_M", "marked_pairs", "residual_onset_max", "residual_max",
         "ref_distance"]
        + [f"{value_name}_{i + 1}" for i in range(n_values)]
    )
    rows = [
        [rec.n, rec.index_set_size, rec.dof_delta, rec.eta_tilde, rec.eta_exact,
         rec.zeta_actual, rec.truncation_M, rec.marked_pairs, rec.residual_onset_max,
         rec.residual_max, math.nan if distances is None else distances[i], *rec.values]
        for i, rec in enumerate(run.records)
    ]
    _write_csv(path, header, rows)


def write_marked_sets(path: Path, run: AdaptiveRun) -> None:
    lines = []
    for n, mark in enumerate(run.marks):
        est = run.estimates[n]
        entry = {
            "n": n,
            "achieved_fraction": mark.achieved_fraction,
            "pairs_considered": mark.pairs_considered,
            "marked": [list(g) for g in mark.marked.to_list()],
            "per_pair": {
                ",".join(map(str, rep)): val
                for rep, val in zip(est.pair_reps.tolist(), est.pair_contribs.tolist())
            },
        }
        lines.append(json.dumps(entry, sort_keys=True))
    _atomic_write(path, "\n".join(lines) + ("\n" if lines else ""))


def write_uniform_csv(path: Path, rows: list[SweepRow]) -> None:
    n_values = len(rows[0].eigenvalues) if rows else 0
    header = ["M", "dof", "max_eigenvalue_error", "distance"] + [
        f"lambda_{i + 1}" for i in range(n_values)
    ]
    _write_csv(
        path, header,
        [[r.m, r.dof, r.max_eigenvalue_error, r.distance, *r.eigenvalues] for r in rows],
    )


def write_comparison_csv(path: Path, comparison: dict) -> None:
    _write_csv(path, list(comparison), [comparison.values()])


def _write_gnuplot_script(path: Path, mode: str) -> None:
    text = (
        "set logscale y\n"
        "set xlabel 'iteration'\n"
        "set ylabel 'estimator'\n"
        "set datafile separator ','\n"
        f"plot 'iterations.csv' using 1:4 with linespoints title 'eta ({mode})'\n"
    )
    _atomic_write(path, text)


# -- experiment orchestration -------------------------------------------------


def _write_run(
    outdir: Path, summary: RunSummary, run: AdaptiveRun, distances: list[float] | None,
    errors: list[float] | None,
) -> None:
    """Write iterations.csv and marked_sets.jsonl and record the run in the summary.

    Rates are fitted to `errors` when it has at least 4 entries, all positive.
    """
    fit = None
    if errors is not None and len(errors) >= 4 and all(e > 0.0 for e in errors):
        fit = fit_rates(run.records, errors)
    write_iterations_csv(outdir / "iterations.csv", run, distances)
    write_marked_sets(outdir / "marked_sets.jsonl", run)
    summary.data["files"].update(iterations="iterations.csv", marked_sets="marked_sets.jsonl")
    summary.data.update(
        termination_reason=run.termination_reason,
        iterations=len(run.records),
        final_dof=len(run.final_index_set),
        rate_fits=None if fit is None else asdict(fit),
    )


def _uniform_step(
    outdir: Path, summary: RunSummary, config: ExperimentConfig, potential: Potential,
    ref: ReferenceSolution, m_hi: int,
) -> list[SweepRow]:
    """Uniform sweep over radii M0..min(m_hi, M_ref), written to uniform.csv.

    The clamp keeps every swept ball inside the reference ball.
    """
    m_list = list(range(config.algorithm.M0, min(m_hi, config.m_ref) + 1))
    rows = uniform_sweep(potential, config.k0, config.n_eigs, m_list, ref)
    write_uniform_csv(outdir / "uniform.csv", rows)
    summary.data["files"]["uniform"] = "uniform.csv"
    return rows


def run_experiment(config: ExperimentConfig, mode: str | None = None, quiet: bool = False) -> RunSummary:
    """Execute the configured experiment and write artifacts to disk."""
    t_start = time.perf_counter()
    mode = mode or config.algorithm.mode
    preflight(config, mode)
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    potential, pot_meta = build_potential(config.potential_spec, config.dim, config.seed)

    summary = RunSummary(
        {"config": config.raw, "mode": mode, "seed": config.seed, "potential": pot_meta,
         "files": {}}
    )

    def say(msg: str) -> None:
        if not quiet:
            print(msg)

    if mode == "source":
        rhs = build_rhs(config.rhs_spec or [], config.dim)
        run = run_source(replace(config.algorithm, mode="source"), potential, rhs)
        errors = None
        if config.enable_subspace_distance:
            ref_sols = solve_source(ball(config.m_ref, config.dim), potential, rhs)
            errors = source_errors(run, ref_sols, potential)
        _write_run(outdir, summary, run, errors, errors)
        summary.data["final_solution_norms"] = list(run.records[-1].values)
        say(
            f"source: {run.termination_reason} after {len(run.records)} iterations, "
            f"dof {len(run.final_index_set)}"
        )
    elif mode == "uniform":
        ref = reference_solve(potential, config.k0, config.n_eigs, config.m_ref)
        m_hi = max(config.algorithm.M0 + 1, config.m_ref // 2)
        rows = _uniform_step(outdir, summary, config, potential, ref, m_hi)
        summary.data["termination_reason"] = "max_dof"  # sweep budget exhausted
        summary.data["reference_eigenvalues"] = [float(x) for x in ref.cluster.eigenvalues]
        say(f"uniform sweep: {len(rows)} radii")
    else:
        algo = replace(config.algorithm, mode="eigen-feasible" if mode == "compare" else mode)
        run = run_eigen(algo, potential)
        distances = ref = None
        if config.enable_subspace_distance:
            ref = reference_solve(potential, config.k0, config.n_eigs, config.m_ref)
            gap_ok, gap_below, gap_above = eigenvalue_gap_check(ref)
            summary.data["reference_eigenvalues"] = [float(x) for x in ref.cluster.eigenvalues]
            summary.data["cluster_gaps"] = {"ok": gap_ok, "below": gap_below, "above": gap_above}
            try:
                report = run_distances(run, ref)
                distances = report.totals
                summary.data["per_group_distances"] = report.per_group
            except CoverageError as exc:
                if mode == "compare":
                    raise ConfigError(
                        "verification.M_ref",
                        f"compare mode needs every iterate inside the reference ball: {exc}",
                    ) from exc
                summary.data["verification_skipped"] = str(exc)
        errors = distances if distances is not None else [rec.eta_exact for rec in run.records]
        _write_run(outdir, summary, run, distances, errors)
        summary.data["final_eigenvalues"] = [float(x) for x in run.final_cluster.eigenvalues]
        if mode != "compare":
            summary.data["admissible_parameters"] = run.admissible
            say(
                f"{mode}: {run.termination_reason} after {len(run.records)} iterations, "
                f"dof {len(run.final_index_set)}"
            )
        elif distances is None:
            raise SolverError("compare mode requires verification to be enabled")
        else:
            m_hi = int(math.ceil(run.final_index_set.max_radius())) + 1
            rows = _uniform_step(outdir, summary, config, potential, ref, m_hi)
            comparison = matched_error_comparison(run, distances, rows)
            write_comparison_csv(outdir / "comparison.csv", comparison)
            summary.data["files"]["comparison"] = "comparison.csv"
            summary.data["comparison"] = comparison
            say(
                f"compare: adaptive dof {comparison['adaptive_dof']} vs uniform "
                f"{comparison['uniform_dof']} at matched error"
            )

    if "gnuplot" in config.formats:
        _write_gnuplot_script(outdir / "plots.gp", mode)
        summary.data["files"]["gnuplot"] = "plots.gp"
    summary.data["wall_time_s"] = time.perf_counter() - t_start
    summary.write(outdir / "summary.json")
    say(f"wrote {outdir / 'summary.json'}")
    return summary


def matched_error_comparison(
    run: AdaptiveRun, distances: list[float], rows: list[SweepRow]
) -> dict:
    """Smallest uniform ball matching the adaptive run's final error.

    Keys follow the columns of comparison.csv. Without a match (a nan
    distance never matches) the uniform radius and dof are -1 and the
    ratio is inf.
    """
    target = distances[-1]
    adaptive_dof = len(run.final_index_set)
    matched = next((row for row in rows if row.distance <= target), None)
    return {
        "adaptive_error": target,
        "adaptive_dof": adaptive_dof,
        "matched_uniform_M": -1 if matched is None else matched.m,
        "uniform_dof": -1 if matched is None else matched.dof,
        "dof_ratio": math.inf if matched is None else adaptive_dof / matched.dof,
    }


# -- entry point --------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="adaptpw", description="Adaptive planewave experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute an experiment config")
    runp.add_argument("config", help="path to a JSON experiment config")
    runp.add_argument("--out", help="output directory (overrides config)")
    runp.add_argument("--seed", type=int, help="seed override for random potentials")
    runp.add_argument(
        "--mode",
        choices=RUN_MODES,
        help="run mode override",
    )
    runp.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)

    try:
        config = ingest_config(args.config, args.seed)
        outdir = args.out or os.environ.get(ENV_OUTPUT_DIR) or config.output_dir
        if outdir != config.output_dir:
            config = replace(config, output_dir=outdir)
        run_experiment(config, mode=args.mode, quiet=args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, MarkingError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


def console_entry() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
