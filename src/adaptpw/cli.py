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
3 numerical failure. Every config error but compare mode's coverage
error, which depends on the run's iterates, exits before the output
directory is created. Values must have their JSON type, and each error
names its exact field. A reference ball, the initial ball (M0) or a
verification grid whose solve or sampling would exceed physical memory
is refused up front (`preflight`, `operator.verification_grid`).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .adapt import MODES, AdaptiveConfig, AdaptiveRun, ParameterError, run_eigen, run_source
from .frequency import KEY_LIMIT, KeyRangeError, ball, ball_size, shell_counts
from .marking import MarkingError
from .operator import (
    BLOCK_GUARD, BLOCK_GUARD_GROWS, Potential, PotentialError, ReferenceOperator, SolverError,
    grid_points, physical_memory, solve_bytes, solve_eigen_block, solve_source, verification_grid,
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

RUN_MODES = MODES + ("uniform", "compare")
OUTPUT_FORMATS = ("csv", "json", "gnuplot")


class ConfigError(ValueError):
    """Invalid experiment configuration; `field` names the offending entry."""

    def __init__(self, field_path: str, message: str) -> None:
        super().__init__(f"{field_path}: {message}")
        self.field = field_path


class ExperimentConfig(NamedTuple):
    mode: str  # the run mode, after any --mode override
    potential_spec: dict
    rhs_spec: list | None
    algorithm: AdaptiveConfig
    m_ref: int
    enable_subspace_distance: bool
    output_dir: str
    formats: tuple[str, ...]
    seed: int | None
    raw: dict

    @property
    def dim(self) -> int:
        return self.algorithm.dim


class RunSummary:
    """Machine-readable run outcome mirrored into summary.json."""

    def __init__(self, data: dict) -> None:
        self.data = data

    def write(self, path: Path) -> None:
        _atomic_write(path, json.dumps(self.data, indent=2, sort_keys=True) + "\n")


# -- config ingestion ---------------------------------------------------------


def _require(mapping: dict, key: str, path: str):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ConfigError(f"{path}.{key}", "missing required field")
    return mapping[key]


def _read(kind: type, value, path: str):
    """`value` as a `kind`: int, float, dict, list, bool or str; a ConfigError naming `path` if not.

    JSON types are checked, not coerced: an integer is an int or a float with
    no fractional part, a number (float) an int or a float, and neither is a
    bool or a string.
    """
    if kind is bool or not isinstance(value, bool):
        if isinstance(value, kind):
            return value
        if kind is int and isinstance(value, float) and value.is_integer():
            return int(value)
        if kind is float and isinstance(value, int) and abs(value) <= sys.float_info.max:
            return float(value)
    what = {int: "an integer", float: "a number", dict: "an object", list: "a list",
            bool: "true or false", str: "a string"}[kind]
    raise ConfigError(path, f"must be {what}, got {value!r}")


def _frequency(value, dim: int, path: str) -> tuple[int, ...]:
    """A frequency of `dim` integers, each |k| < 2^20; else a ConfigError naming `path`."""
    k = tuple(_read(int, x, path) for x in _read(list, value, path))
    if len(k) != dim:
        raise ConfigError(path, f"needs {dim} components")
    if any(abs(x) >= KEY_LIMIT for x in k):
        raise ConfigError(path, f"components must satisfy |k| < 2^20 = {KEY_LIMIT}, got {list(k)}")
    return k


def ingest_config(
    path: str | Path, seed: int | None = None, mode: str | None = None
) -> ExperimentConfig:
    """Load and validate a JSON experiment config, applying defaults.

    A non-None `seed` or `mode` overrides the config's own seed or
    algorithm.mode.
    """
    p = Path(path)
    if not p.is_file():
        raise ConfigError("config", f"file not found: {p}")
    try:
        raw = json.loads(p.read_text())
    except ValueError as exc:  # JSONDecodeError, or an integer literal of over 4300 digits
        raise ConfigError("config", f"invalid JSON: {exc}") from exc
    return validate_config(raw, seed, mode)


def validate_config(
    raw: dict, seed: int | None = None, mode: str | None = None
) -> ExperimentConfig:
    """The checked config of `raw`, after `preflight`; `seed` and `mode` override its own.

    `mode` is one of RUN_MODES. For compare and uniform (loop-free) runs, the
    loop's mode in `algorithm` is eigen-feasible.
    """
    _read(dict, raw, "config")
    # AdaptiveConfig owns the loop's defaults and ranges: each value is read by
    # the type of its default, and a range error is reported on its own field
    defaults = AdaptiveConfig._field_defaults
    problem = _require(raw, "problem", "config")
    fields = {
        "dim": _read(int, _require(problem, "dim", "problem"), "problem.dim"),
        "k0": _read(int, problem.get("k0", defaults["k0"]), "problem.k0"),
        "n_eigs": _read(int, _require(problem, "n_eigs", "problem"), "problem.n_eigs"),
    }
    pot = _require(problem, "potential", "problem")
    if not isinstance(pot, dict) or "family" not in pot:
        raise ConfigError("problem.potential", "must be an object with a 'family' key")
    if pot["family"] not in ("constant", "trig", "random-decay", "explicit"):
        raise ConfigError("problem.potential.family", f"unknown family {pot['family']!r}")

    algo = _read(dict, raw.get("algorithm", {}), "algorithm")
    fields.update(
        (key, _read(type(default), algo.get(key, default), f"algorithm.{key}"))
        for key, default in defaults.items() if key not in fields
    )
    if mode is None:
        mode = fields["mode"]
    elif mode not in RUN_MODES:
        raise ConfigError("mode", f"unknown mode {mode!r}")
    else:  # the ranges are checked against the mode that runs
        fields["mode"] = mode if mode in MODES else "eigen-feasible"
    try:
        adaptive = AdaptiveConfig(**fields)
    except ParameterError as exc:
        section = "problem" if exc.field in ("dim", "k0", "n_eigs") else "algorithm"
        raise ConfigError(f"{section}.{exc.field}", str(exc)) from exc

    verification = _read(dict, raw.get("verification", {}), "verification")
    m_ref = _read(int, verification.get("M_ref", 32), "verification.M_ref")
    if m_ref < 1:
        raise ConfigError("verification.M_ref", f"must be >= 1, got {m_ref}")
    enable_dist = _read(
        bool, verification.get("enable_subspace_distance", True),
        "verification.enable_subspace_distance",
    )

    output = _read(dict, raw.get("output", {}), "output")
    outdir = _read(str, output.get("directory", "out"), "output.directory")
    formats = output.get("formats", ["csv", "json"])
    if not isinstance(formats, list) or not all(f in OUTPUT_FORMATS for f in formats):
        raise ConfigError(
            "output.formats", f"must be a list drawn from {list(OUTPUT_FORMATS)}, got {formats!r}"
        )

    if seed is None:
        seed = raw.get("seed")
    if seed is not None:
        seed = _read(int, seed, "seed")
        if seed < 0:
            raise ConfigError("seed", f"must be >= 0, got {seed}")
    elif pot["family"] == "random-decay":
        raise ConfigError("seed", "random-decay potentials require an explicit seed")

    config = ExperimentConfig(
        mode=mode,
        potential_spec=pot,
        rhs_spec=problem.get("rhs"),
        algorithm=adaptive,
        m_ref=m_ref,
        enable_subspace_distance=enable_dist,
        output_dir=outdir,
        formats=tuple(formats),
        seed=seed,
        raw=raw,
    )
    preflight(config)
    return config


#: peak bytes per n^2 of source mode's reference on n frequencies, measured
#: with ru_maxrss (numpy 2.4, OpenBLAS): the complex `solve_source` holds its
#: matrix, the Cholesky factor and the LU copy of the solve.
SOURCE_REFERENCE_BYTES = 51

#: peak bytes per n^2 of the adaptive loop's first solve on ball(M0), its complex
#: `assemble` and `eigh`, measured the same way: 80.9-81.4 at n = 2453-3209, 1D-3D
LOOP_SOLVE_BYTES = 82


def check_ball_memory(field_path: str, radius: int, dim: int, bytes_of: Callable) -> None:
    """Reject, as a ConfigError on `field_path`, a ball whose solve needs more than physical memory.

    The solve on n frequencies peaks at `bytes_of(n)` bytes, which grows
    with n. The cube |G_i| <= M/sqrt(d) lies inside the ball, so its size is
    a lower bound on n. The ball itself is counted (enumerating
    (2M+1)^(d-1) partial norms) unless that bound alone needs over 64 times
    physical memory; such a radius is rejected on the bound without a count
    that could itself be large.
    """
    limit = physical_memory()
    n = (2 * math.isqrt(radius * radius // dim) + 1) ** dim
    if bytes_of(n) <= 64 * limit:
        n = ball_size(radius, dim)
    if bytes_of(n) > limit:
        raise ConfigError(
            field_path,
            f"the ball of radius {radius} in {dim}D has at least {n} frequencies; "
            f"its solve needs {bytes_of(n)} bytes, more than the {limit} bytes of physical memory",
        )


def eigen_reference_bytes(config: ExperimentConfig, n: int) -> int:
    """Modelled peak of the matrix-free eigen reference on n frequencies (`solve_bytes`).

    Its block is the largest the guard grows to, and its grid the one for a
    potential reaching 2 M_ref, the farthest that couples the ball. A
    compare or uniform sweep solves smaller balls after the reference solve
    has freed its block vectors, beside the reference's few columns.
    """
    block = config.algorithm.k0 + config.algorithm.n_eigs + 1 + BLOCK_GUARD * 2**BLOCK_GUARD_GROWS
    return solve_bytes(n, grid_points(config.m_ref, 2 * config.m_ref), config.dim, block)


def _check_ball_holds_cluster(field_path: str, radius: int, algo: AdaptiveConfig) -> None:
    # ball(need) holds at least 2*need+1 frequencies, so counting the ball of
    # radius min(radius, need) decides the question at bounded cost
    need = algo.k0 + algo.n_eigs
    n = ball_size(min(radius, need), algo.dim)
    if n < need:
        raise ConfigError(
            field_path,
            f"the ball of radius {radius} in {algo.dim}D has {n} frequencies, "
            f"too few for k0={algo.k0}, n_eigs={algo.n_eigs}",
        )


def preflight(config: ExperimentConfig) -> None:
    """Reject, before any work, a run that its frequency balls cannot carry.

    A source run needs right-hand sides. Eigen, compare and uniform runs
    need the cluster to fit in the initial ball, and the loop's dense first
    solve there (`LOOP_SOLVE_BYTES` n^2) to fit in memory. A compare run
    needs verification, and every run that builds a reference needs its
    solve to fit in memory: the matrix-free eigen reference
    (`eigen_reference_bytes`: block vectors, FFT grid and the first Schur
    block), or source mode's complex `solve_source` (`SOURCE_REFERENCE_BYTES`
    n^2). An eigen reference must also hold the cluster.
    """
    mode, algo = config.mode, config.algorithm
    if mode == "source" and not config.rhs_spec:
        raise ConfigError("problem.rhs", "source mode requires right-hand sides")
    if mode == "compare" and not config.enable_subspace_distance:
        raise ConfigError(
            "verification.enable_subspace_distance",
            "compare mode matches errors against the reference, so it must be true",
        )
    if mode != "source":
        _check_ball_holds_cluster("algorithm.M0", algo.M0, algo)
    if mode not in ("source", "uniform"):  # the loop solves on ball(M0) first
        check_ball_memory("algorithm.M0", algo.M0, algo.dim, lambda n: LOOP_SOLVE_BYTES * n * n)
    if mode == "source" and config.enable_subspace_distance:
        check_ball_memory(
            "verification.M_ref", config.m_ref, algo.dim, lambda n: SOURCE_REFERENCE_BYTES * n * n
        )
    elif config.enable_subspace_distance or mode == "uniform":
        check_ball_memory(
            "verification.M_ref", config.m_ref, algo.dim, lambda n: eigen_reference_bytes(config, n)
        )
        _check_ball_holds_cluster("verification.M_ref", config.m_ref, algo)


# -- potential families -------------------------------------------------------


def build_potential(spec: dict, dim: int, seed: int | None = None) -> tuple[Potential, dict]:
    """Construct and verify a potential from a family spec.

    Returns the potential and a metadata dict (seed, positivity shift,
    and the recorded coefficient-tail modeling error for random-decay).
    """
    family = spec["family"]
    norm = (2.0 * math.pi) ** (dim / 2.0)
    meta: dict = {"family": family}
    try:
        if family == "constant":
            c = _read(float, spec.get("c", 1.0), "problem.potential.c")
            if c <= 0.0:
                raise ConfigError("problem.potential.c", f"must be > 0, got {c}")
            fld = SpectralField.from_pairs(dim, {(0,) * dim: c * norm})
        elif family == "trig":
            c = _read(float, spec.get("c", 0.0), "problem.potential.c")
            coeffs: dict[tuple, complex] = {(0,) * dim: c * norm}
            terms = _read(list, spec.get("terms", []), "problem.potential.terms")
            for i, term in enumerate(terms):
                path = f"problem.potential.terms[{i}]"
                k = _frequency(_require(term, "k", path), dim, f"{path}.k")
                a = _read(float, _require(term, "a", path), f"{path}.a")
                half = 0.5 * a * norm
                neg = tuple(-x for x in k)
                coeffs[k] = coeffs.get(k, 0.0) + half
                coeffs[neg] = coeffs.get(neg, 0.0) + half
            fld = SpectralField.from_pairs(dim, coeffs)
        elif family == "random-decay":
            if seed is None:
                raise ConfigError("seed", "random-decay potentials require a seed")
            amplitude = _read(float, spec.get("amplitude", 1.0), "problem.potential.amplitude")
            p = _read(float, _require(spec, "p", "problem.potential"), "problem.potential.p")
            r_cut = _read(
                int, _require(spec, "r_cut", "problem.potential"), "problem.potential.r_cut"
            )
            if r_cut < 0:
                raise ConfigError("problem.potential.r_cut", f"must be >= 0, got {r_cut}")
            if not (math.isfinite(amplitude) and math.isfinite(p)):
                raise ConfigError("problem.potential", f"non-finite amplitude {amplitude} or p {p}")
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
            coefficients = spec.get("coefficients", [])
            fld = _parse_triples(coefficients, dim, "problem.potential.coefficients")
        else:  # pragma: no cover - guarded in validate_config
            raise ConfigError("problem.potential.family", f"unknown family {family!r}")
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
    then shifted so the sampled minimum is at least 0.5. Arrays beyond
    physical memory are refused first, by a PotentialError.
    """
    # tracemalloc peaks: ball(r_cut) takes 97-124 bytes a kept point, below 112
    # a point of its cube in 1D-3D; the tail 30.5 an entry of its (4 r_cut)^2 + 1
    # shell arrays, and 8 a point of ball(4 r_cut), bounded by its cube
    held = 112 * (2 * r_cut + 1) ** dim + 32 * (16 * r_cut**2 + 1) + 8 * (8 * r_cut + 1) ** dim
    npts = verification_grid(r_cut, dim, held)
    support = ball(r_cut, dim)
    phases = np.array(_uniform_phases(seed, len(support)))
    mags = amplitude * (1.0 + support.norms_sq.astype(np.float64)) ** (-p / 2.0)
    # entry i < neg[i] draws the phase of its pair; G = 0 keeps its magnitude
    neg = support.negation_permutation()
    first = np.flatnonzero(np.arange(len(support)) < neg)
    phase = np.exp(1j * phases[first])
    sym = mags.astype(np.complex128)
    sym[first] = mags[first] * phase
    sym[neg[first]] = mags[first] * np.conj(phase)
    fld = SpectralField(support, sym)
    vmin = float(evaluate_on_grid(fld, npts).min())
    shift = max(0.0, 0.5 - vmin)
    if shift > 0.0:
        zero = support.index_of((0,) * dim)
        shifted = sym.copy()
        shifted[zero] += shift * (2.0 * math.pi) ** (dim / 2.0)
        fld = SpectralField(support, shifted)
    # modeling error of truncating the infinite family at r_cut: l1 tail of
    # the magnitude law summed over the next shells (window of width 3 r_cut),
    # term by term in ascending |G|^2 as over the canonically ordered window
    counts = shell_counts(4 * r_cut, dim)
    shells = np.arange(r_cut * r_cut + 1, len(counts))
    terms = amplitude * (1.0 + shells.astype(np.float64)) ** (-p / 2.0)
    tail = float(np.sum(np.repeat(terms, counts[shells])))
    return fld, shift, tail


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _uniform_phases(seed: int, count: int) -> list[float]:
    """`numpy.random.default_rng(seed).uniform(0, 2*pi, count)`, bit for bit.

    numpy's SeedSequence (a pool of four 32-bit words, no spawn key) hashes
    the seed's 32-bit words into a 128-bit PCG64 state and increment; each
    draw steps the LCG, outputs the XSL-RR rotation of the new state and
    scales its top 53 bits by 2*pi * 2^-53. In pure Python, a run never
    imports `numpy.random`, which loads `secrets` and OpenSSL (about 6 MB
    of resident memory).
    """
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed >> k & _M32 for k in range(0, max(seed.bit_length(), 1), 32)]
    const = 0x43B0D7E5

    def hashed(value: int, mult: int = 0x931E8875) -> int:
        nonlocal const
        value = (value ^ const) * (const * mult & _M32) & _M32
        const = const * mult & _M32
        return value ^ value >> 16

    def mix(dst: int, value: int) -> None:
        mixed = (0xCA01F9DD * pool[dst] - 0x4973F715 * value) & _M32
        pool[dst] = mixed ^ mixed >> 16

    pool = [hashed(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mix(dst, hashed(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            mix(dst, hashed(word))
    const = 0x8B51F9DD
    state = [hashed(pool[i % 4], 0x58F38DED) for i in range(8)]
    seed_hi, seed_lo, inc_hi, inc_lo = (state[i] | state[i + 1] << 32 for i in range(0, 8, 2))
    mult = 0x2360ED051FC65DA44385DF649FCCF645
    inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _M128
    s = ((inc + (seed_hi << 64 | seed_lo)) * mult + inc) & _M128
    out = []
    for _ in range(count):
        s = (s * mult + inc) & _M128
        x, rot = (s >> 64 ^ s) & _M64, s >> 122
        x = (x >> rot | x << (64 - rot)) & _M64
        out.append(2.0 * math.pi * ((x >> 11) * (1.0 / 9007199254740992.0)))
    return out


def _parse_triples(triples: list, dim: int, field_path: str) -> SpectralField:
    """Field from {index, re, im} coefficient triples listed at `field_path`.

    A malformed triple, or one repeating an earlier index, is reported
    under `field_path[j]`.
    """
    coeffs = {}
    for j, entry in enumerate(_read(list, triples, field_path)):
        path = f"{field_path}[{j}]"
        k = _frequency(_require(entry, "index", path), dim, f"{path}.index")
        if k in coeffs:
            raise ConfigError(f"{path}.index", f"repeats the index {list(k)} of an earlier entry")
        coeffs[k] = _read(float, entry.get("re", 0.0), f"{path}.re") + 1j * _read(
            float, entry.get("im", 0.0), f"{path}.im"
        )
    return SpectralField.from_pairs(dim, coeffs)


def build_rhs(rhs_spec: list, dim: int) -> list[SpectralField]:
    return [
        _parse_triples(t, dim, f"problem.rhs[{i}]")
        for i, t in enumerate(_read(list, rhs_spec, "problem.rhs"))
    ]


# -- uniform sweep ------------------------------------------------------------


class SweepRow(NamedTuple):
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
    ref: ReferenceSolution,
) -> list[SweepRow]:
    """Solves on balls of increasing radius, with errors vs the reference.

    Every ball must lie inside the reference ball. Each is solved by the
    certified `solve_eigen_block` on its own `ReferenceOperator`:
    matrix-free, or by its `dense` matrix and a whole-space `eigh` up to
    `BLOCK_DENSE_MAX` frequencies. Its cluster enters the distances as an
    adaptive iterate does (`ReferenceSolution.group_distances`). The
    reference ball itself is not solved again: its row is the reference
    cluster.
    """
    if list(m_list) != sorted(m_list):
        raise ValueError("m_list must be ascending")
    rows = []
    for m in m_list:
        basis = ball(m, potential.dim)
        if len(basis) == len(ref.basis):  # nested balls of equal size are equal
            cluster = ref.cluster
        else:
            cluster, _, _ = solve_eigen_block(ReferenceOperator(basis, potential), k0, n_eigs)
        distances = ref.group_distances(cluster)
        lam = tuple(float(x) for x in cluster.eigenvalues)
        rows.append(
            SweepRow(
                m=m,
                dof=len(basis),
                eigenvalues=lam,
                max_eigenvalue_error=float(np.max(cluster.eigenvalues - ref.cluster.eigenvalues)),
                distance=math.sqrt(sum(d * d for d in distances)),
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
        rate_fits=None if fit is None else fit._asdict(),
    )


def _uniform_step(
    outdir: Path, summary: RunSummary, config: ExperimentConfig, potential: Potential,
    ref: ReferenceSolution, m_hi: int,
) -> list[SweepRow]:
    """Uniform sweep over radii M0..min(m_hi, M_ref), written to uniform.csv.

    The clamp keeps every swept ball inside the reference ball.
    """
    m_list = list(range(config.algorithm.M0, min(m_hi, config.m_ref) + 1))
    rows = uniform_sweep(potential, config.algorithm.k0, config.algorithm.n_eigs, m_list, ref)
    write_uniform_csv(outdir / "uniform.csv", rows)
    summary.data["files"]["uniform"] = "uniform.csv"
    return rows


def run_experiment(config: ExperimentConfig, quiet: bool = False) -> RunSummary:
    """Execute the configured experiment and write artifacts to disk.

    The potential and right-hand sides are built before the output
    directory is created, so a config they reject leaves no directory.
    """
    t_start = time.perf_counter()
    mode, algo = config.mode, config.algorithm
    potential, pot_meta = build_potential(config.potential_spec, config.dim, config.seed)
    rhs = build_rhs(config.rhs_spec, config.dim) if mode == "source" else None
    outdir = Path(config.output_dir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError("output.directory", f"cannot create {outdir}: {exc}") from exc

    summary = RunSummary(
        {"config": config.raw, "mode": mode, "seed": config.seed, "potential": pot_meta,
         "files": {}}
    )

    def say(msg: str) -> None:
        if not quiet:
            print(msg)

    if mode == "source":
        run = run_source(algo, potential, rhs)
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
        ref = reference_solve(potential, algo.k0, algo.n_eigs, config.m_ref)
        m_hi = max(algo.M0 + 1, config.m_ref // 2)
        rows = _uniform_step(outdir, summary, config, potential, ref, m_hi)
        summary.data["termination_reason"] = "max_dof"  # sweep budget exhausted
        summary.data["reference_eigenvalues"] = [float(x) for x in ref.cluster.eigenvalues]
        summary.data["reference_solver"] = ref.solver._asdict()
        say(f"uniform sweep: {len(rows)} radii")
    else:
        run = run_eigen(algo, potential)
        distances = ref = None
        if config.enable_subspace_distance:
            ref = reference_solve(potential, algo.k0, algo.n_eigs, config.m_ref)
            gap_ok, gap_below, gap_above = eigenvalue_gap_check(ref)
            summary.data["reference_eigenvalues"] = [float(x) for x in ref.cluster.eigenvalues]
            summary.data["reference_solver"] = ref.solver._asdict()
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
    runp.add_argument("--mode", help=f"run mode override, one of {', '.join(RUN_MODES)}")
    runp.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)

    try:
        config = ingest_config(args.config, args.seed, args.mode)
        outdir = args.out or os.environ.get(ENV_OUTPUT_DIR) or config.output_dir
        if outdir != config.output_dir:
            config = config._replace(output_dir=outdir)
        run_experiment(config, quiet=args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, MarkingError, KeyRangeError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OverflowError as exc:  # a float operation beyond the double range
        print(f"numerical failure: overflow: {exc}", file=sys.stderr)
        return 3
    return 0


def console_entry() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
