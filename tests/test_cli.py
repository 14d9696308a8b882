import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import adaptpw.cli as cli
from adaptpw import reference_solve
from adaptpw.cli import (
    ConfigError,
    build_potential,
    ingest_config,
    main,
    uniform_sweep,
    validate_config,
)
from adaptpw.spectral import evaluate_on_grid


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
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
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


def test_exit_code_3_on_numerical_failure(tmp_path):
    # compare mode needs the reference machinery; disabling it is a runtime
    # failure of the numerical pipeline, not a config-shape error
    raw = minimal_config(
        verification={"enable_subspace_distance": False},
        output={"directory": str(tmp_path / "out")},
    )
    rc = main(["run", str(write_config(tmp_path, raw)), "--quiet", "--mode", "compare"])
    assert rc == 3


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
    ],
)
def test_malformed_config_values_exit_2(tmp_path, capsys, path, value, field):
    raw = minimal_config(output={"directory": str(tmp_path / "out")}, seed=7)
    _set_path(raw, path, value)
    mode = "source" if path[-1] == "rhs" else "eigen-feasible"
    rc = main(["run", str(write_config(tmp_path, raw)), "--quiet", "--mode", mode])
    assert rc == 2
    assert f"config error: {field}:" in capsys.readouterr().err


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
    cli.preflight(validate_config(raw), "source")


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


def test_reference_ball_preflight_rejects_before_work(tmp_path, monkeypatch, capsys):
    # a 3D run with the default M_ref=32 and verification on needs a
    # 137065-dof reference: 41 * 137065^2 bytes at the real reference solve's peak
    raw = minimal_config(output={"directory": str(tmp_path / "out")})
    raw["problem"]["dim"] = 3

    def build_potential(*args):
        raise AssertionError("potential built before the reference pre-flight")

    monkeypatch.setattr(cli, "_physical_memory", lambda: 8 * 2**30)
    monkeypatch.setattr(cli, "build_potential", build_potential)
    tracemalloc.start()
    rc = main(["run", str(write_config(tmp_path, raw)), "--quiet"])
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert rc == 2
    err = capsys.readouterr().err
    assert "verification.M_ref" in err and str(41 * 137065**2) in err
    assert not (tmp_path / "out").exists()
    assert peak < 2**20


def test_reference_ball_preflight_follows_verification(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_physical_memory", lambda: 41 * 401**2 - 1)
    cli.check_reference_memory(199, 1)  # 399 frequencies fit, 401 do not
    raw = minimal_config(verification={"M_ref": 200})
    assert main(["run", str(write_config(tmp_path, raw)), "--quiet", "--mode", "uniform"]) == 2
    raw["verification"]["enable_subspace_distance"] = False
    raw["output"] = {"directory": str(tmp_path / "out")}
    assert main(["run", str(write_config(tmp_path, raw)), "--quiet"]) == 0


def test_eigen_runs_do_not_import_scipy():
    # scipy (0.2-0.35 s, ~28 MB) belongs to source mode's Cholesky only, and
    # numpy.ma comes with np.unique's first call, which index sets avoid
    code = (
        "import adaptpw, adaptpw.cli, sys; adaptpw.ball(2, 3); "
        "print('scipy' in sys.modules, 'numpy.ma' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
    )
    assert out.stdout.split() == ["False", "False"]


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


@pytest.fixture
def counted_solves(monkeypatch):
    """Sizes of every complex assembly, real assembly and Cholesky factorisation."""
    import adaptpw.operator as operator

    counts = {"complex": [], "real": [], "cholesky": []}
    assemble, assemble_real = operator.assemble, operator.assemble_real
    cholesky = np.linalg.cholesky

    def counting_assemble(s, potential):
        counts["complex"].append(len(s))
        return assemble(s, potential)

    def counting_assemble_real(s, potential):
        counts["real"].append(len(s))
        return assemble_real(s, potential)

    def counting_cholesky(a):
        counts["cholesky"].append(a.shape[0])
        return cholesky(a)

    for name, module in list(sys.modules.items()):
        if name == "adaptpw" or name.startswith("adaptpw."):
            for key, value in list(vars(module).items()):
                if value is assemble:
                    monkeypatch.setattr(module, key, counting_assemble)
                elif value is assemble_real:
                    monkeypatch.setattr(module, key, counting_assemble_real)
    monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
    return counts


def test_compare_builds_reference_matrix_once(tmp_path, counted_solves):
    # the reference eigensolve, run distances and uniform sweep share one
    # assembled real reference matrix and one Cholesky factorisation of it,
    # and no complex matrix of reference size is assembled
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
    n_ref = len(cli.ball(32, 1))
    assert counted_solves["real"].count(n_ref) == 1
    assert counted_solves["cholesky"].count(n_ref) == 1
    assert counted_solves["complex"] and n_ref not in counted_solves["complex"]
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["comparison"]["uniform_dof"] < n_ref


@pytest.mark.filterwarnings("ignore::adaptpw.verify.CoverageWarning")
def test_compare_sweep_reaching_reference_ball_solves_it_real(tmp_path, counted_solves):
    # the sweep's top radius is clamped to M_ref; solving that ball must stay
    # within the real-path peak the pre-flight counts, so no complex matrix
    # of reference size may be assembled
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
    assert counted_solves["real"].count(n_ref) == 2
    assert n_ref not in counted_solves["complex"]


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


def test_uniform_sweep_requires_ascending(cosine_potential):
    with pytest.raises(ValueError):
        uniform_sweep(cosine_potential, 0, 1, [3, 2])
