import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adaptpw.adapt as adapt
import adaptpw.cli as cli
import adaptpw.operator as operator
from adaptpw import EigenCluster, PotentialError, ReferenceOperator, reference_solve
from adaptpw.cli import (
    ConfigError,
    build_potential,
    ingest_config,
    main,
    uniform_sweep,
    validate_config,
)
from adaptpw.spectral import evaluate_on_grid
from conftest import coefficient, exhaustive_truncation


def minimal_config(**overrides):
    cfg = {
        "problem": {
            "dim": 1,
            "k0": 0,
            "n_eigs": 1,
            "potential": {"family": "constant", "c": 1.0},
        },
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


# -- ingestion ------------------------------------------------------------------


def test_minimal_config_defaults(tmp_path):
    cfg = ingest_config(write_config(tmp_path, minimal_config()))
    assert cfg.algorithm.theta_tilde == 0.5
    assert cfg.algorithm.zeta == 0.1
    assert cfg.algorithm.tol == 1e-6
    assert cfg.algorithm.M0 == 2
    assert cfg.algorithm.max_iter == 50
    assert cfg.algorithm.max_dof == 20000


def test_zeta_above_theta_rejected(tmp_path):
    raw = minimal_config(algorithm={"theta_tilde": 0.3, "zeta": 0.4})
    with pytest.raises(ConfigError) as err:
        ingest_config(write_config(tmp_path, raw))
    assert "zeta" in str(err.value) and "theta_tilde" in str(err.value)


def test_dim_cap_rejected():
    raw = minimal_config()
    raw["problem"]["dim"] = 4
    with pytest.raises(ConfigError) as err:
        validate_config(raw)
    assert err.value.field == "problem.dim"


def test_random_decay_requires_seed():
    raw = minimal_config()
    raw["problem"]["potential"] = {"family": "random-decay", "p": 2.5, "r_cut": 8}
    with pytest.raises(ConfigError) as err:
        validate_config(raw)
    assert err.value.field == "seed"


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        ingest_config(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    for text in ("{not json", '{"seed": ' + "1" * 5000 + "}"):
        bad.write_text(text)
        with pytest.raises(ConfigError, match="invalid JSON"):
            ingest_config(bad)


# -- potential families ----------------------------------------------------------


def test_random_decay_family_properties():
    spec = {"family": "random-decay", "amplitude": 1.0, "p": 2.5, "r_cut": 8}
    pot, meta = build_potential(spec, 1, seed=5)
    pot2, _ = build_potential(spec, 1, seed=5)
    assert np.array_equal(pot.field.coeffs, pot2.field.coeffs)
    pot3, _ = build_potential(spec, 1, seed=6)
    assert not np.array_equal(pot.field.coeffs, pot3.field.coeffs)
    vals = evaluate_on_grid(pot.field, 4 * (8 + 1))  # the family's verification grid
    assert vals.min() >= 0.5 - 1e-9
    assert meta["positivity_shift"] >= 0.0
    assert pot.field.hermitian_defect() == 0.0
    mags = np.abs(pot.field.coeffs)
    law = 1.0 * (1.0 + pot.field.support.norms_sq.astype(float)) ** -1.25
    zero = pot.field.support.index_of((0,))
    keep = np.arange(len(mags)) != zero
    assert np.allclose(mags[keep], law[keep], rtol=1e-12)


def test_explicit_family_requires_hermitian():
    spec = {
        "family": "explicit",
        "coefficients": [{"index": [1], "re": 1.0}],
    }
    with pytest.raises(ConfigError):
        build_potential(spec, 1, seed=None)


@pytest.mark.parametrize("defect, accepted", [(1e-11, False), (1e-13, True)])
def test_explicit_family_hermitian_tolerance(defect, accepted):
    # a real potential needs |V_-K - conj(V_K)| <= 1e-12 * max(1, max |V_K|),
    # and an accepted one is replaced by its Hermitian part
    spec = {
        "family": "explicit",
        "coefficients": [
            {"index": [0], "re": 3.0},
            {"index": [1], "re": 1.0, "im": 3.0 * defect},
            {"index": [-1], "re": 1.0},
        ],
    }
    if accepted:
        field = build_potential(spec, 1)[0].field
        assert field.hermitian_defect() == 0.0
        assert coefficient(field, (1,)) == complex(1.0, 1.5 * defect)
        assert coefficient(field, (-1,)) == complex(1.0, -1.5 * defect)
        assert coefficient(field, (0,)) == 3.0
    else:
        with pytest.raises(ConfigError, match="Hermitian-symmetric") as err:
            build_potential(spec, 1)
        assert err.value.field.startswith("problem.potential")


def test_potential_within_the_hermitian_tolerance_runs(tmp_path):
    # V_-1 - conj(V_1) = 9e-13 passes the potential's check; the matrices
    # assembled from it are Hermitian, so the run does not stop at assembly
    raw = {
        "problem": {
            "dim": 1,
            "n_eigs": 1,
            "potential": {
                "family": "explicit",
                "coefficients": [
                    {"index": [0], "re": 3.0},
                    {"index": [1], "re": 1.0},
                    {"index": [-1], "re": 1.0 + 9e-13},
                ],
            },
        },
        "algorithm": {"M0": 1},
        "verification": {"enable_subspace_distance": False},
        "output": {"directory": str(tmp_path / "out")},
    }
    assert main(["run", str(write_config(tmp_path, raw)), "--quiet"]) == 0
    assert (tmp_path / "out" / "summary.json").is_file()


def test_frequency_sums_beyond_the_key_range_are_a_numerical_failure(tmp_path, capsys):
    # the first marking adds +-539999, so the next assembly needs the
    # difference 1079998 >= 2^20 of two set frequencies; 4 * (539999 + 1)
    # = 2^7 3^3 5^4 grid points keep the potential's check fast
    raw = {
        "problem": {
            "dim": 1,
            "n_eigs": 1,
            "potential": {
                "family": "explicit",
                "coefficients": [
                    {"index": [0], "re": 3.0},
                    {"index": [539999], "re": 0.5},
                    {"index": [-539999], "re": 0.5},
                ],
            },
        },
        "algorithm": {"M0": 2, "max_iter": 6, "tol": 1e-12},
        "verification": {"enable_subspace_distance": False},
        "output": {"directory": str(tmp_path / "out")},
    }
    assert main(["run", str(write_config(tmp_path, raw)), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: frequency sums need")
    assert "< 2^20 = 1048576" in err and err.count("\n") == 1


def test_repeated_trig_terms_add():
    twice = {"family": "trig", "c": 1.0, "terms": [{"k": [1], "a": 0.25}, {"k": [-1], "a": 0.25}]}
    once = {"family": "trig", "c": 1.0, "terms": [{"k": [1], "a": 0.5}]}
    a, b = (build_potential(spec, 1)[0].field for spec in (twice, once))
    assert a.support.to_list() == b.support.to_list()
    assert np.array_equal(a.coeffs, b.coeffs)


# -- runs -------------------------------------------------------------------------


def test_smoke_run_writes_artifacts(tmp_path):
    raw = minimal_config(output={"directory": str(tmp_path / "out")})
    rc = main(["run", str(write_config(tmp_path, raw)), "--quiet"])
    assert rc == 0
    lines = (tmp_path / "out" / "iterations.csv").read_text().splitlines()
    assert len(lines) == 2  # header + single exact iteration
    header = lines[0].split(",")
    row = lines[1].split(",")
    assert row[header.index("eta_tilde")] == "0"
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["termination_reason"] == "tol"
    assert summary["final_eigenvalues"] == [1.0]


def test_trig_run_eta_decreasing(tmp_path):
    raw = {
        "problem": {
            "dim": 1,
            "n_eigs": 1,
            "potential": {"family": "trig", "c": 1.0, "terms": [{"k": [1], "a": 1.0}]},
        },
        "algorithm": {"M0": 1, "tol": 1e-6, "zeta": 0.2},
        "verification": {"M_ref": 32},
        "output": {"directory": str(tmp_path / "out")},
    }
    rc = main(["run", str(write_config(tmp_path, raw)), "--quiet"])
    assert rc == 0
    lines = (tmp_path / "out" / "iterations.csv").read_text().splitlines()
    header = lines[0].split(",")
    etas = [float(l.split(",")[header.index("eta_tilde")]) for l in lines[1:]]
    assert all(b < a for a, b in zip(etas, etas[1:]))
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["termination_reason"] in ("tol", "max_iter", "max_dof", "exact")


def test_compare_mode_outputs(tmp_path):
    raw = {
        "problem": {
            "dim": 1,
            "n_eigs": 1,
            "potential": {"family": "trig", "c": 1.0, "terms": [{"k": [1], "a": 1.0}]},
        },
        "algorithm": {"M0": 1, "tol": 1e-5, "zeta": 0.2},
        "verification": {"M_ref": 32},
        "output": {"directory": str(tmp_path / "out")},
    }
    rc = main(["run", str(write_config(tmp_path, raw)), "--quiet", "--mode", "compare"])
    assert rc == 0
    assert (tmp_path / "out" / "uniform.csv").is_file()
    assert (tmp_path / "out" / "comparison.csv").is_file()
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert "comparison" in summary
    assert summary["comparison"]["dof_ratio"] <= 2.0


def test_source_mode(tmp_path):
    raw = {
        "problem": {
            "dim": 1,
            "n_eigs": 1,
            "potential": {"family": "trig", "c": 1.0, "terms": [{"k": [1], "a": 1.0}]},
            "rhs": [[{"index": [0], "re": 1.0}]],
        },
        "algorithm": {"mode": "source", "theta_tilde": 0.6, "zeta": 0.0, "tol": 1e-8},
        "verification": {"M_ref": 32},
        "output": {"directory": str(tmp_path / "out")},
    }
    rc = main(["run", str(write_config(tmp_path, raw)), "--quiet"])
    assert rc == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["mode"] == "source"
    assert summary["rate_fits"] is None or summary["rate_fits"]["alpha_hat"] < 1.0


def test_exit_code_2_on_bad_config(tmp_path):
    raw = minimal_config()
    raw["problem"]["dim"] = 7
    rc = main(["run", str(write_config(tmp_path, raw)), "--quiet"])
    assert rc == 2


def test_compare_without_verification_rejected_up_front(tmp_path, monkeypatch, capsys):
    # compare mode matches errors against the reference, so disabling
    # verification is a config error, found before the output directory or
    # the potential exists
    raw = minimal_config(
        verification={"enable_subspace_distance": False},
        output={"directory": str(tmp_path / "out")},
    )

    def build_potential(*args):
        raise AssertionError("potential built before the pre-flight")

    monkeypatch.setattr(cli, "build_potential", build_potential)
    rc = main(["run", str(write_config(tmp_path, raw)), "--quiet", "--mode", "compare"])
    assert rc == 2
    assert "config error: verification.enable_subspace_distance:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_compare_run_outside_reference_names_m_ref(tmp_path, capsys):
    # the run reaches radius 7, beyond the reference ball of radius 3; the
    # error names the reference radius, not disabled verification
    raw = {
        "problem": {
            "dim": 1,
            "n_eigs": 1,
            "potential": {"family": "trig", "c": 1.0, "terms": [{"k": [1], "a": 1.0}]},
        },
        "algorithm": {"M0": 1, "tol": 1e-10},
        "verification": {"M_ref": 3},
        "output": {"directory": str(tmp_path / "out")},
    }
    rc = main(["run", str(write_config(tmp_path, raw)), "--quiet", "--mode", "compare"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error: verification.M_ref:" in err
    assert "radius 7.0" in err and "reference radius 3.0" in err
    assert "verification to be enabled" not in err


def test_run_outside_reference_skips_verification_unless_compare(tmp_path, capsys):
    # an eigen run that leaves the reference ball still writes its outputs,
    # with the skip recorded and no distances; compare mode refuses
    raw = {
        "problem": {
            "dim": 1,
            "n_eigs": 1,
            "potential": {"family": "trig", "c": 1.0, "terms": [{"k": [1], "a": 1.0}]},
        },
        "algorithm": {"M0": 1, "tol": 0.0, "max_iter": 6, "zeta": 0.2},
        "verification": {"M_ref": 4},
        "output": {"directory": str(tmp_path / "out")},
    }
    path = write_config(tmp_path, raw)
    assert main(["run", str(path), "--quiet"]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert "radius 7.0" in summary["verification_skipped"]
    assert "reference radius 4.0" in summary["verification_skipped"]
    lines = (tmp_path / "out" / "iterations.csv").read_text().splitlines()
    col = lines[0].split(",").index("ref_distance")
    assert len(lines) == 8 and all(line.split(",")[col] == "nan" for line in lines[1:])

    rc = main(["run", str(path), "--quiet", "--mode", "compare", "--out", str(tmp_path / "c")])
    assert rc == 2
    assert "config error: verification.M_ref:" in capsys.readouterr().err


def _set_path(raw, path, value):
    *parents, last = path
    node = raw
    for key in parents:
        node = node.setdefault(key, {}) if isinstance(key, str) else node[key]
    node[last] = value


@pytest.mark.parametrize(
    "path, value, field",
    [
        (("problem", "dim"), "one", "problem.dim"),
        (("problem", "k0"), [0], "problem.k0"),
        (("problem", "n_eigs"), "two", "problem.n_eigs"),
        (("algorithm", "tol"), "small", "algorithm.tol"),
        (("algorithm", "zeta"), None, "algorithm.zeta"),
        (("algorithm", "M0"), "two", "algorithm.M0"),
        (("verification", "M_ref"), "big", "verification.M_ref"),
        (("seed",), "seven", "seed"),
        (("problem", "potential", "c"), "one", "problem.potential.c"),
        (
            ("problem", "potential"),
            {"family": "trig", "terms": [{"k": ["x"], "a": 1.0}]},
            "problem.potential.terms[0].k",
        ),
        (
            ("problem", "potential"),
            {"family": "trig", "terms": [{"k": [1], "a": "big"}]},
            "problem.potential.terms[0].a",
        ),
        (
            ("problem", "potential"),
            {"family": "random-decay", "p": 2.5, "r_cut": "eight"},
            "problem.potential.r_cut",
        ),
        (
            ("problem", "potential"),
            {"family": "explicit", "coefficients": [{"re": 1.0}]},
            "problem.potential.coefficients[0].index",
        ),
        (
            ("problem", "potential"),
            {"family": "explicit", "coefficients": [{"index": [0], "im": "i"}]},
            "problem.potential.coefficients[0].im",
        ),
        (
            ("problem", "potential"),
            {"family": "explicit", "coefficients": [5]},
            "problem.potential.coefficients[0].index",
        ),
        (("problem", "rhs"), [[{"index": 0, "re": 1.0}]], "problem.rhs[0][0].index"),
        (("algorithm",), [0.5], "algorithm"),
        (("verification",), 32, "verification"),
        (("output",), "out", "output"),
        (("verification", "enable_subspace_distance"), "false",
         "verification.enable_subspace_distance"),
        (("problem", "rhs"), 5, "problem.rhs"),
        (("problem", "rhs"), [5], "problem.rhs[0]"),
        (
            ("problem", "potential"),
            {"family": "trig", "terms": {"k": [1], "a": 1.0}},
            "problem.potential.terms",
        ),
        (
            ("problem", "potential"),
            {"family": "explicit", "coefficients": 5},
            "problem.potential.coefficients",
        ),
        (("seed",), -3, "seed"),
        (
            ("problem", "potential"),
            {"family": "random-decay", "p": 2.5, "r_cut": -1},
            "problem.potential.r_cut",
        ),
        (("algorithm", "tol"), math.nan, "algorithm.tol"),
        (
            ("problem", "potential"),
            {"family": "random-decay", "p": math.nan, "r_cut": 4},
            "problem.potential",
        ),
        (
            ("problem", "potential"),
            {"family": "random-decay", "amplitude": math.inf, "p": 2.5, "r_cut": 4},
            "problem.potential",
        ),
        (
            ("problem", "potential"),
            {"family": "trig", "c": 1.0, "terms": [{"k": [1], "a": math.nan}]},
            "problem.potential",
        ),
        (("problem", "dim"), 1.9, "problem.dim"),
        (("problem", "n_eigs"), 1.7, "problem.n_eigs"),
        (("algorithm", "M0"), 2.5, "algorithm.M0"),
        (("algorithm", "max_iter"), True, "algorithm.max_iter"),
        (
            ("problem", "potential"),
            {"family": "trig", "c": 1.0, "terms": [{"k": [1.6], "a": 1.0}]},
            "problem.potential.terms[0].k",
        ),
        (("algorithm", "max_dof"), math.inf, "algorithm.max_dof"),
        (("problem", "dim"), "2", "problem.dim"),
        (("problem", "n_eigs"), "1", "problem.n_eigs"),
        (
            ("problem",),
            {"dim": 2, "n_eigs": 1,
             "potential": {"family": "trig", "c": 1.0, "terms": [{"k": "12", "a": 0.5}]}},
            "problem.potential.terms[0].k",
        ),
        (("algorithm", "tol"), True, "algorithm.tol"),
        (("algorithm", "tol"), "1e-3", "algorithm.tol"),
        (("output", "directory"), None, "output.directory"),
        (("output", "directory"), 5, "output.directory"),
        (("algorithm", "M0"), 0, "algorithm.M0"),
        (("algorithm", "theta_tilde"), 1.5, "algorithm.theta_tilde"),
        (("algorithm", "max_dof"), 0, "algorithm.max_dof"),
        (("problem", "k0"), -1, "problem.k0"),
        # frequency components outside the lattice key range, |k| >= 2^20
        (
            ("problem", "potential"),
            {"family": "explicit", "coefficients": [
                {"index": [0], "re": 3.0}, {"index": [2000000], "re": 0.5},
                {"index": [-2000000], "re": 0.5}]},
            "problem.potential.coefficients[1].index",
        ),
        (
            ("problem",),
            {"dim": 3, "n_eigs": 1, "potential": {"family": "explicit", "coefficients": [
                {"index": [0, 0, 0], "re": 3.0}, {"index": [0, -2000000, 0], "re": 0.5},
                {"index": [0, 2000000, 0], "re": 0.5}]}},
            "problem.potential.coefficients[1].index",
        ),
        (
            ("problem",),
            {"dim": 3, "n_eigs": 1, "potential": {"family": "trig", "c": 3.0, "terms": [
                {"k": [1, 0, 0], "a": 0.5}, {"k": [0, 0, 1 << 20], "a": 0.5}]}},
            "problem.potential.terms[1].k",
        ),
        (("problem", "rhs"), [[{"index": [0], "re": 1.0}],
                              [{"index": [(1 << 20) - 1], "re": 1.0},
                               {"index": [-(1 << 20)], "re": 1.0}]],
         "problem.rhs[1][1].index"),
        # a coefficient triple repeating an earlier index
        (
            ("problem", "potential"),
            {"family": "explicit", "coefficients": [
                {"index": [0], "re": 3.0}, {"index": [0], "re": 5.0}]},
            "problem.potential.coefficients[1].index",
        ),
        (("problem", "rhs"), [[{"index": [1], "re": 1.0}, {"index": [-1], "re": 1.0},
                               {"index": [1], "re": 2.0}]],
         "problem.rhs[0][2].index"),
    ],
)
def test_malformed_config_values_exit_2(tmp_path, capsys, path, value, field):
    raw = minimal_config(output={"directory": str(tmp_path / "out")}, seed=7)
    _set_path(raw, path, value)
    mode = "source" if path[-1] == "rhs" else "eigen-feasible"
    rc = main(["run", str(write_config(tmp_path, raw)), "--quiet", "--mode", mode])
    assert rc == 2
    assert f"config error: {field}:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_integral_floats_are_integers():
    raw = minimal_config(algorithm={"M0": 2.0, "max_iter": 5.0})
    raw["problem"]["dim"] = 1.0
    config = validate_config(raw)
    assert (config.dim, config.algorithm.M0, config.algorithm.max_iter) == (1, 2, 5)
    assert type(config.algorithm.M0) is int
    spec = {"family": "trig", "c": 1.0, "terms": [{"k": [1.0], "a": 1.0}]}
    assert sorted(build_potential(spec, 1)[0].field.support.to_list()) == [(-1,), (0,), (1,)]


def test_empty_algorithm_takes_adaptive_config_defaults():
    # AdaptiveConfig is the one home of the loop's defaults, types included
    raw = minimal_config(algorithm={})
    raw["problem"].update(dim=2, n_eigs=3)
    del raw["problem"]["k0"]
    expected = adapt.AdaptiveConfig(dim=2, n_eigs=3)
    algorithm = validate_config(raw).algorithm
    assert algorithm == expected and list(map(type, algorithm)) == list(map(type, expected))


@pytest.mark.parametrize("mode, field", [("source", "problem.rhs"), ("bogus", "mode")])
def test_mode_override_checked_before_output(tmp_path, capsys, mode, field):
    # the config's own mode needs no right-hand sides; --mode source does
    raw = minimal_config(output={"directory": str(tmp_path / "out")})
    rc = main(["run", str(write_config(tmp_path, raw)), "--quiet", "--mode", mode])
    assert rc == 2
    assert f"config error: {field}:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config_seed, argv", [(-3, []), (7, ["--seed", "-5"])])
def test_negative_seed_rejected_before_output(tmp_path, capsys, config_seed, argv):
    # the random-decay phases need a non-negative seed, from the config or --seed
    raw = minimal_config(output={"directory": str(tmp_path / "out")}, seed=config_seed)
    raw["problem"]["potential"] = {"family": "random-decay", "p": 2.5, "r_cut": 4}
    rc = main(["run", str(write_config(tmp_path, raw)), "--quiet", *argv])
    assert rc == 2
    assert "config error: seed: must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode", ["eigen-feasible", "compare", "uniform"])
@pytest.mark.parametrize(
    "m0, m_ref, field", [(2, 32, "algorithm.M0"), (4, 2, "verification.M_ref")]
)
def test_cluster_ball_preflight_rejects_before_work(
    tmp_path, monkeypatch, capsys, mode, m0, m_ref, field
):
    # 1D balls of radius 2 hold 5 frequencies, too few for a 6-eigenvalue cluster
    raw = minimal_config(
        algorithm={"M0": m0}, verification={"M_ref": m_ref},
        output={"directory": str(tmp_path / "out")},
    )
    raw["problem"]["n_eigs"] = 6

    def build_potential(*args):
        raise AssertionError("potential built before the pre-flight")

    monkeypatch.setattr(cli, "build_potential", build_potential)
    rc = main(["run", str(write_config(tmp_path, raw)), "--quiet", "--mode", mode])
    assert rc == 2
    assert f"config error: {field}:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cluster_ball_preflight_skips_source_mode():
    # a source run has no eigenvalue cluster for its balls to hold
    raw = minimal_config(algorithm={"M0": 1}, verification={"M_ref": 1})
    raw["problem"]["n_eigs"] = 6
    raw["problem"]["rhs"] = [[{"index": [0], "re": 1.0}]]
    validate_config(raw, mode="source")


def test_uniform_sweep_stays_inside_reference(tmp_path):
    # with M_ref <= M0 the sweep's top radius M0 + 1 would leave the reference ball
    raw = minimal_config(
        algorithm={"M0": 2}, verification={"M_ref": 2},
        output={"directory": str(tmp_path / "out")},
    )
    rc = main(["run", str(write_config(tmp_path, raw)), "--quiet", "--mode", "uniform"])
    assert rc == 0
    rows = (tmp_path / "out" / "uniform.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == ["2"]


@pytest.mark.parametrize("formats", ["gnuplot", ["csv", "pdf"], {"csv": True}, [["csv"]]])
def test_output_formats_validated(tmp_path, formats):
    raw = minimal_config(output={"directory": str(tmp_path / "out"), "formats": formats})
    with pytest.raises(ConfigError) as err:
        validate_config(raw)
    assert err.value.field == "output.formats"
    assert main(["run", str(write_config(tmp_path, raw)), "--quiet"]) == 2
    assert not (tmp_path / "out").exists()


def test_output_formats_gnuplot_writes_script(tmp_path):
    raw = minimal_config(output={"directory": str(tmp_path / "out"), "formats": ["gnuplot"]})
    assert main(["run", str(write_config(tmp_path, raw)), "--quiet"]) == 0
    assert (tmp_path / "out" / "plots.gp").is_file()


def test_uniform_mode(tmp_path):
    raw = minimal_config(
        verification={"M_ref": 12},
        output={"directory": str(tmp_path / "out")},
    )
    rc = main(["run", str(write_config(tmp_path, raw)), "--quiet", "--mode", "uniform"])
    assert rc == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["termination_reason"] in ("tol", "max_iter", "max_dof", "exact")
    assert (tmp_path / "out" / "uniform.csv").is_file()


def test_csv_floats_roundtrip(tmp_path):
    raw = {
        "problem": {
            "dim": 1,
            "n_eigs": 2,
            "potential": {"family": "random-decay", "amplitude": 1.0, "p": 2.5, "r_cut": 8},
        },
        "algorithm": {"M0": 2, "tol": 0.0, "max_iter": 5},
        "verification": {"M_ref": 32},
        "output": {"directory": str(tmp_path / "out")},
        "seed": 3,
    }
    rc = main(["run", str(write_config(tmp_path, raw)), "--quiet"])
    assert rc == 0
    from adaptpw import AdaptiveConfig, run_eigen

    pot, _ = build_potential(raw["problem"]["potential"], 1, seed=3)
    run = run_eigen(
        AdaptiveConfig(dim=1, M0=2, n_eigs=2, tol=0.0, max_iter=5), pot
    )
    lines = (tmp_path / "out" / "iterations.csv").read_text().splitlines()
    header = lines[0].split(",")
    for rec, line in zip(run.records, lines[1:]):
        row = line.split(",")
        assert float(row[header.index("eta_tilde")]) == rec.eta_tilde
        assert float(row[header.index("lambda_1")]) == rec.values[0]


def test_seed_flag_supplies_missing_seed(tmp_path):
    raw = {
        "problem": {
            "dim": 1,
            "n_eigs": 1,
            "potential": {"family": "random-decay", "amplitude": 1.0, "p": 2.5, "r_cut": 4},
        },
        "algorithm": {"M0": 2, "tol": 1e-3, "max_iter": 3},
        "verification": {"enable_subspace_distance": False},
        "output": {"directory": str(tmp_path / "out")},
    }
    cfgp = write_config(tmp_path, raw)
    assert main(["run", str(cfgp), "--quiet"]) == 2
    assert main(["run", str(cfgp), "--quiet", "--seed", "7"]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["seed"] == 7
    assert summary["potential"]["seed"] == 7


def test_output_dir_override(tmp_path, monkeypatch):
    raw = minimal_config(output={"directory": str(tmp_path / "ignored")})
    cfgp = write_config(tmp_path, raw)
    override = tmp_path / "env_dir"
    monkeypatch.setenv("ADAPTPW_OUT", str(override))
    assert main(["run", str(cfgp), "--quiet"]) == 0
    assert (override / "summary.json").is_file()
    assert not (tmp_path / "ignored").exists()


@pytest.mark.parametrize("below", [True, False], ids=["below-a-file", "names-a-file"])
@pytest.mark.parametrize("flag", [False, True], ids=["config", "out-flag"])
def test_unwritable_output_directory_exits_2(tmp_path, capsys, below, flag):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    target = str(blocker / "out" if below else blocker)
    directory = str(tmp_path / "ignored") if flag else target
    config = write_config(tmp_path, minimal_config(output={"directory": directory}))
    assert main(["run", str(config), "--quiet", *(["--out", target] if flag else [])]) == 2
    assert capsys.readouterr().err.startswith("config error: output.directory: cannot create")
    assert blocker.read_text() == "" and not (tmp_path / "ignored").exists()


def test_reference_ball_preflight_rejects_before_work(tmp_path, monkeypatch, capsys):
    # the matrix-free reference holds block vectors, an FFT grid and a Schur
    # block, O(n) bytes: on 8 GiB the 3D default M_ref=32 (137065
    # frequencies) passes, and M_ref=80 (2143641 frequencies) does not
    raw = minimal_config(output={"directory": str(tmp_path / "out")})
    raw["problem"]["dim"] = 3

    def build_potential(*args):
        raise AssertionError("potential built before the reference pre-flight")

    monkeypatch.setattr(cli, "physical_memory", lambda: 8 * 2**30)
    monkeypatch.setattr(cli, "build_potential", build_potential)
    default = cli.validate_config(raw, mode="compare")
    assert default.m_ref == 32
    assert cli.eigen_reference_bytes(default, 137065) < 2**30

    raw["verification"] = {"M_ref": 80}
    tracemalloc.start()
    rc = main(["run", str(write_config(tmp_path, raw)), "--quiet"])
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert rc == 2
    err = capsys.readouterr().err
    need = cli.eigen_reference_bytes(default._replace(m_ref=80), 2143641)
    assert "verification.M_ref" in err and str(need) in err and need > 8 * 2**30
    assert not (tmp_path / "out").exists()
    assert peak < 2**20


def test_reference_ball_preflight_rejects_huge_radius_at_once():
    # neither the ball nor the grid size is searched point by point
    for dim in (1, 2, 3):
        raw = minimal_config(verification={"M_ref": 10**12})
        raw["problem"]["dim"] = dim
        with pytest.raises(cli.ConfigError, match="verification.M_ref"):
            cli.validate_config(raw, mode="compare")


def test_reference_ball_preflight_follows_verification(tmp_path, monkeypatch):
    # the reference of M_ref=200 (401 frequencies) is one byte too large,
    # that of M_ref=199 (399) fits, and without verification nothing is checked
    raw = minimal_config(verification={"M_ref": 200})
    config = cli.validate_config(raw)
    monkeypatch.setattr(cli, "physical_memory", lambda: cli.eigen_reference_bytes(config, 401) - 1)
    cli.validate_config(minimal_config(verification={"M_ref": 199}), mode="uniform")
    with pytest.raises(cli.ConfigError, match="401 frequencies"):
        cli.validate_config(raw, mode="uniform")
    assert main(["run", str(write_config(tmp_path, raw)), "--quiet", "--mode", "uniform"]) == 2
    raw["verification"]["enable_subspace_distance"] = False
    raw["output"] = {"directory": str(tmp_path / "out")}
    assert main(["run", str(write_config(tmp_path, raw)), "--quiet"]) == 0


@pytest.mark.parametrize(
    "potential, algorithm, field",
    [
        # a potential of radius 3000 is sampled on 12004^3 grid points
        ({"family": "trig", "c": 1.0, "terms": [{"k": [3000, 0, 0], "a": 0.5}]}, {},
         "problem.potential"),
        # ball(2000) is cut from a 4001^3 cube, beside the grid and the tail window
        ({"family": "random-decay", "p": 2.5, "r_cut": 2000}, {}, "problem.potential"),
        # ball(60) holds 904,089 frequencies for the loop's first dense solve
        (None, {"M0": 60}, "algorithm.M0"),
    ],
)
def test_memory_refusals_exit_2_before_output(tmp_path, capsys, potential, algorithm, field):
    raw = minimal_config(
        algorithm=algorithm, verification={"enable_subspace_distance": False},
        output={"directory": str(tmp_path / "out")}, seed=7,
    )
    raw["problem"]["dim"] = 3
    raw["problem"]["potential"] = potential or raw["problem"]["potential"]
    assert main(["run", str(write_config(tmp_path, raw)), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}:") and "physical memory" in err
    assert not (tmp_path / "out").exists()


def test_initial_ball_preflight_follows_mode(monkeypatch):
    # the eigen loop, also a compare run's, first solves densely on ball(M0):
    # in 1D, M0=2 gives 5 frequencies and LOOP_SOLVE_BYTES * 25 bytes
    raw = minimal_config(verification={"enable_subspace_distance": False})
    raw["problem"]["rhs"] = [[{"index": [0], "re": 1.0}]]
    monkeypatch.setattr(cli, "physical_memory", lambda: cli.LOOP_SOLVE_BYTES * 25)
    validate_config(raw)
    monkeypatch.setattr(cli, "physical_memory", lambda: cli.LOOP_SOLVE_BYTES * 25 - 1)
    for mode in ("eigen-feasible", "eigen-exact"):
        with pytest.raises(ConfigError, match="at least 5 frequencies") as err:
            validate_config(raw, mode=mode)
        assert err.value.field == "algorithm.M0"
    validate_config(raw, mode="source")
    # uniform and source runs never solve densely on ball(M0)
    monkeypatch.undo()
    raw = minimal_config(algorithm={"M0": 60}, verification={"M_ref": 4})
    raw["problem"]["dim"] = 3
    raw["problem"]["rhs"] = [[{"index": [0, 0, 0], "re": 1.0}]]
    validate_config(raw, mode="uniform")
    validate_config(raw, mode="source")
    with pytest.raises(ConfigError, match="algorithm.M0"):
        validate_config(raw, mode="compare")


@pytest.mark.parametrize("dim, r_cut", [(1, 100), (2, 60), (3, 10)])
def test_random_decay_memory_model_covers_traced_peak(monkeypatch, dim, r_cut):
    # the bytes reserved for the ball's cube, the verification grid and the
    # tail arrays bound the traced peak of building the field, within 3 times
    tracemalloc.start()
    cli._random_decay_field(dim, 1.0, 2.5, r_cut, 7)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    monkeypatch.setattr(operator, "physical_memory", lambda: 3 * peak)
    cli._random_decay_field(dim, 1.0, 2.5, r_cut, 7)
    monkeypatch.setattr(operator, "physical_memory", lambda: peak - 1)
    with pytest.raises(PotentialError, match="physical memory"):
        cli._random_decay_field(dim, 1.0, 2.5, r_cut, 7)


def test_eigen_runs_do_not_import_scipy():
    # adaptpw needs numpy only: scipy (0.2-0.35 s, ~28 MB to import) is kept
    # out, and numpy.ma comes with np.unique's first call, which index sets avoid
    code = (
        "import adaptpw, adaptpw.cli, sys; adaptpw.ball(2, 3); "
        "print('scipy' in sys.modules, 'numpy.ma' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
    )
    assert out.stdout.split() == ["False", "False"]
    for mode in ("eigen-feasible", "compare"):
        assert random_decay_run_modules(mode) == ["0", "False", "False", "False"]


def test_import_does_not_load_dataclasses():
    # records are NamedTuples or plain classes: no module generates methods at import
    code = "import sys, adaptpw.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
    )
    assert out.stdout.split() == ["False"]


def random_decay_run_modules(mode, problem=None):
    """Exit code of a 2D random-decay run in a fresh interpreter, and whether it
    imported scipy, numpy.random and secrets.

    The potential's phases come from a pure-Python PCG64, so no run loads
    numpy.random, nor the secrets and OpenSSL it brings (about 6 MB).
    """
    with tempfile.TemporaryDirectory() as tmp:
        raw = {
            "problem": {
                "dim": 2,
                "n_eigs": 1,
                "potential": {"family": "random-decay", "amplitude": 1.0, "p": 2.5, "r_cut": 4},
                **(problem or {}),
            },
            "algorithm": {"tol": 1e-2},
            "verification": {"M_ref": 12},
            "output": {"directory": str(Path(tmp) / "out")},
            "seed": 7,
        }
        code = (
            "import sys, adaptpw.cli; "
            f"rc = adaptpw.cli.main(['run', {str(write_config(Path(tmp), raw))!r}, "
            f"'--quiet', '--mode', {mode!r}]); "
            "print(rc, *(m in sys.modules for m in ('scipy', 'numpy.random', 'secrets')))"
        )
        out = subprocess.run(
            [sys.executable, "-W", "ignore", "-c", code], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        )
    return out.stdout.split()


def test_source_runs_do_not_import_scipy(tmp_path):
    # the source solve and its verification (reference solve, errors) use numpy only
    raw = {
        "problem": {
            "dim": 1,
            "n_eigs": 1,
            "potential": {"family": "trig", "c": 1.0, "terms": [{"k": [1], "a": 1.0}]},
            "rhs": [[{"index": [0], "re": 1.0}]],
        },
        "algorithm": {"mode": "source", "theta_tilde": 0.6, "zeta": 0.0, "tol": 1e-8},
        "verification": {"M_ref": 32},
        "output": {"directory": str(tmp_path / "out")},
    }
    code = (
        "import sys, adaptpw.cli; "
        f"rc = adaptpw.cli.main(['run', {str(write_config(tmp_path, raw))!r}, '--quiet']); "
        "print(rc, 'scipy' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-W", "ignore", "-c", code], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
    )
    assert out.stdout.split() == ["0", "False"]
    rows = (tmp_path / "out" / "iterations.csv").read_text().splitlines()
    assert len(rows) > 2 and "nan" not in rows[-1]
    rhs = [[{"index": [0, 0], "re": 1.0}, {"index": [1, 2], "re": 0.5},
            {"index": [-1, -2], "re": 0.5}]]
    assert random_decay_run_modules("source", {"rhs": rhs}) == ["0", "False", "False", "False"]


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**200)), st.integers(0, 300))
def test_random_decay_phases_match_numpy_generator(seed, count):
    expected = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, size=count)
    assert np.array_equal(np.array(cli._uniform_phases(seed, count)), expected)


def test_random_decay_phases_reject_negative_seeds():
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError):
        cli._uniform_phases(-1, 3)


@pytest.fixture
def counted_solves(monkeypatch):
    """Sizes of every complex assembly, real `dense` matrix, Cholesky factorisation and `eigh`."""
    counts = {"complex": [], "real": [], "cholesky": [], "eigh": []}
    assemble, dense = operator.assemble, operator.ReferenceOperator.dense
    cholesky, eigh = np.linalg.cholesky, np.linalg.eigh

    def counting_assemble(s, potential):
        counts["complex"].append(len(s))
        return assemble(s, potential)

    def counting_dense(self):
        counts["real"].append(self.n)
        return dense(self)

    def counting_cholesky(a):
        counts["cholesky"].append(a.shape[0])
        return cholesky(a)

    def counting_eigh(a, *args, **kwargs):
        counts["eigh"].append(a.shape[-1])
        return eigh(a, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "adaptpw" or name.startswith("adaptpw."):
            for key, value in list(vars(module).items()):
                if value is assemble:
                    monkeypatch.setattr(module, key, counting_assemble)
    monkeypatch.setattr(operator.ReferenceOperator, "dense", counting_dense)
    monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return counts


def test_compare_assembles_no_reference_matrix(tmp_path, counted_solves):
    # the reference eigensolve, run distances and uniform sweep share one
    # matrix-free reference operator: the reference ball (321 frequencies,
    # above BLOCK_DENSE_MAX) is never assembled, real or complex, gets no
    # full eigh, and its count certificate factors one block smaller than
    # the ball
    raw = {
        "problem": {
            "dim": 1,
            "n_eigs": 1,
            "potential": {"family": "trig", "c": 1.0, "terms": [{"k": [1], "a": 1.0}]},
        },
        "algorithm": {"M0": 1, "tol": 1e-5, "zeta": 0.2},
        "verification": {"M_ref": 160},
        "output": {"directory": str(tmp_path / "out")},
    }
    rc = main(["run", str(write_config(tmp_path, raw)), "--quiet", "--mode", "compare"])
    assert rc == 0
    n_ref = len(cli.ball(160, 1))
    assert n_ref not in counted_solves["real"]
    assert n_ref not in counted_solves["cholesky"]
    assert len(counted_solves["cholesky"]) == 1 and counted_solves["cholesky"][0] < n_ref
    assert n_ref not in counted_solves["eigh"]
    assert counted_solves["complex"] and n_ref not in counted_solves["complex"]
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["comparison"]["uniform_dof"] < n_ref


@pytest.mark.filterwarnings("ignore::adaptpw.verify.CoverageWarning")
def test_compare_sweep_reaching_reference_ball_solves_it_real(tmp_path, counted_solves):
    # the sweep's top radius is clamped to M_ref; that ball is the reference
    # ball, whose certified cluster the sweep takes over, so it is assembled
    # once (real, by the reference) and no complex matrix of its size appears
    raw = {
        "problem": {
            "dim": 1,
            "n_eigs": 1,
            "potential": {"family": "trig", "c": 1.0, "terms": [{"k": [1], "a": 1.0}]},
        },
        "algorithm": {"M0": 1, "tol": 1e-6},
        "verification": {"M_ref": 6},
        "output": {"directory": str(tmp_path / "out")},
    }
    rc = main(["run", str(write_config(tmp_path, raw)), "--quiet", "--mode", "compare"])
    assert rc == 0
    rows = (tmp_path / "out" / "uniform.csv").read_text().splitlines()
    assert rows[-1].split(",")[0] == "6"
    n_ref = len(cli.ball(6, 1))
    assert counted_solves["real"].count(n_ref) == 1
    assert n_ref not in counted_solves["complex"]
    assert float(rows[-1].split(",")[2]) == 0.0


def test_source_reference_is_assembled_once(tmp_path, counted_solves):
    # the reference solve assembles the complex matrix of the reference
    # ball; the errors against it take matrix-free products on the real
    # operator, so no second complex matrix of that size appears
    raw = {
        "problem": {
            "dim": 1,
            "n_eigs": 1,
            "potential": {"family": "trig", "c": 1.0, "terms": [{"k": [1], "a": 1.0}]},
            "rhs": [[{"index": [0], "re": 1.0}], [{"index": [1], "re": 1.0}]],
        },
        "algorithm": {"mode": "source", "theta_tilde": 0.6, "zeta": 0.0, "tol": 1e-8},
        "verification": {"M_ref": 32},
        "output": {"directory": str(tmp_path / "out")},
    }
    assert main(["run", str(write_config(tmp_path, raw)), "--quiet"]) == 0
    n_ref = len(cli.ball(32, 1))
    assert counted_solves["complex"].count(n_ref) == 1
    assert counted_solves["real"] == []


# -- uniform sweep ----------------------------------------------------------------


def test_uniform_sweep_constant_exact(constant_potential):
    ref = reference_solve(constant_potential, 0, 1, 16)
    rows = uniform_sweep(constant_potential, 0, 1, [1, 2, 3], ref)
    for row in rows:
        assert abs(row.max_eigenvalue_error) <= 1e-13
        assert row.distance <= 1e-10


def test_uniform_sweep_monotone(cosine_potential):
    ref = reference_solve(cosine_potential, 0, 1, 32)
    rows = uniform_sweep(cosine_potential, 0, 1, [1, 2, 3, 4, 5, 6], ref)
    errs = [r.max_eigenvalue_error for r in rows]
    assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))
    assert [r.dof for r in rows] == [2 * m + 1 for m in range(1, 7)]


def _dense_sweep_row(potential, k0, n_eigs, m, ref):
    """Oracle: eigenvalues and reference distance of ball(m) by a full real `eigh`."""
    h = ReferenceOperator(cli.ball(m, potential.dim), potential)
    w, v = np.linalg.eigh(h.dense())
    window = slice(k0, k0 + n_eigs)
    cluster = EigenCluster(
        h.basis, k0, w[window], h.coords.to_coefficients(v[:, window]), 0.0, None
    )
    return w[window], np.sqrt(sum(d * d for d in ref.group_distances(cluster)))


def test_uniform_sweep_matches_dense_eigh_oracle():
    # radii 2..10 hold 13-317 frequencies, on both sides of the block
    # solver's switch to a whole-space eigh (3p >= n, p = 7 here)
    spec = {"family": "random-decay", "amplitude": 1.0, "p": 2.5, "r_cut": 8}
    potential, _ = build_potential(spec, 2, seed=7)
    ref = reference_solve(potential, 0, 2, 16)
    rows = uniform_sweep(potential, 0, 2, list(range(2, 11)), ref)
    assert [r.dof for r in rows] == [len(cli.ball(m, 2)) for m in range(2, 11)]
    for row in rows:
        lam, distance = _dense_sweep_row(potential, 0, 2, row.m, ref)
        assert np.max(np.abs(np.array(row.eigenvalues) - lam)) <= 1e-12
        assert row.distance == pytest.approx(distance, rel=1e-10, abs=0.0)


def test_uniform_sweep_requires_ascending(cosine_potential):
    ref = reference_solve(cosine_potential, 0, 1, 8)
    with pytest.raises(ValueError):
        uniform_sweep(cosine_potential, 0, 1, [3, 2], ref)


def test_compare_outputs_match_exhaustive_truncation_search(tmp_path, monkeypatch):
    # the certified skip decides every radius as the full search would, so
    # the per-iteration outputs are byte-identical to those of the oracle
    def run(name):
        raw = {
            "problem": {
                "dim": 2,
                "n_eigs": 2,
                "potential": {"family": "random-decay", "amplitude": 1.0, "p": 2.5, "r_cut": 6},
            },
            "algorithm": {"M0": 2, "tol": 2e-2, "zeta": 0.1},
            "verification": {"M_ref": 10},
            "output": {"directory": str(tmp_path / name)},
            "seed": 7,
        }
        path = write_config(tmp_path, raw, name=f"{name}.json")
        assert main(["run", str(path), "--quiet", "--mode", "compare"]) == 0
        out = tmp_path / name
        return [(out / f).read_bytes() for f in ("iterations.csv", "marked_sets.jsonl")]

    skipping = run("skip")
    monkeypatch.setattr(adapt, "choose_truncation", exhaustive_truncation)
    assert run("oracle") == skipping
    assert skipping[0].count(b"\n") > 3
