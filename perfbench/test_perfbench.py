"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python3 -m pytest perfbench -q

The traced-run tests spawn one child per workload (about 20 s in all).
"""

from __future__ import annotations

import json
import sys

import pytest

import run as bench
import spans
import workloads as wl

sys.path.insert(0, str(bench.SRC))

#: boundaries each workload must reach, per the layer map in README.md
USED = {
    "adapt3d": {
        "frequency.positions", "frequency.IndexSet", "frequency.union", "spectral.multiply",
        "operator.assemble", "operator.solve_eigen", "estimator.residual",
        "estimator.truncated_residual", "estimator.choose_truncation",
        "estimator.cluster_estimate", "estimator.onset_offset_maxima", "marking.dorfler_mark",
        "adapt.loop", "verify.fit_rates", "cli.build_potential", "cli.write_outputs", "cli.main",
    },
    "compare2d": {
        "operator.assemble", "operator.solve_eigen", "estimator.choose_truncation",
        "adapt.loop", "verify.reference_solve", "verify.run_distances", "verify.fit_rates",
        "cli.uniform_sweep", "cli.write_outputs",
    },
    "source2d": {
        "frequency.positions", "spectral.multiply", "spectral.a_norm", "operator.assemble",
        "operator.solve_source", "estimator.source_residual", "estimator.cluster_estimate",
        "marking.dorfler_mark", "adapt.loop", "verify.source_errors",
    },
}

#: boundaries a workload bypasses, so a change there must not move it
UNUSED = {
    "adapt3d": {"verify.reference_solve", "verify.run_distances", "verify.source_errors",
                "cli.uniform_sweep", "operator.solve_source"},
    "compare2d": {"verify.source_errors", "operator.solve_source"},
    "source2d": {"operator.solve_eigen", "estimator.choose_truncation",
                 "estimator.truncated_residual", "estimator.residual", "verify.reference_solve"},
}


def test_self_time_of_synthetic_span_tree():
    # main [0,10] -> multiply [1,4], residual [5,9] -> multiply [6,8]
    recorded = [
        ("cli.main", 0.0, 10.0, -1),
        ("spectral.multiply", 1.0, 4.0, 0),
        ("estimator.residual", 5.0, 9.0, 0),
        ("spectral.multiply", 6.0, 8.0, 2),
    ]
    assert spans.self_times(recorded) == [3.0, 3.0, 2.0, 2.0]
    out = spans.summarize(recorded, {})
    assert out["spectral.multiply.calls"] == 2
    assert out["spectral.multiply.s"] == 5.0
    assert out["estimator.residual.s"] == 4.0
    assert out["estimator.residual.self_s"] == 2.0
    assert out["spectral.self_s"] == 5.0
    assert out["cli.self_s"] == 3.0
    assert out["operator.solve_eigen.calls"] == 0


def test_span_nested_in_its_own_name_counts_once_inclusive():
    recorded = [("spectral.multiply", 0.0, 4.0, -1), ("spectral.multiply", 1.0, 3.0, 0)]
    out = spans.summarize(recorded, {})
    assert out["spectral.multiply.calls"] == 2
    assert out["spectral.multiply.s"] == 4.0
    assert out["spectral.multiply.self_s"] == 4.0


def test_truncation_kept_ratio_is_returned_over_computed():
    recorded = [("estimator.truncated_residual", float(i), i + 0.5, -1) for i in range(4)]
    out = spans.summarize(recorded, {"estimator.truncated_residual.returned": 1})
    assert out["estimator.truncation_kept_ratio"] == 0.25
    assert spans.summarize([], {})["estimator.truncation_kept_ratio"] == 0.0


def test_every_boundary_is_expected_somewhere():
    assert set(spans.SPAN_NAMES) <= set().union(*USED.values())


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_generated_configs_validate(name):
    from adaptpw.cli import validate_config

    for seed in (0, 7, 12345):
        pool = wl.instance_seeds(seed, wl.WORKLOADS[name].pool)
        assert pool == wl.instance_seeds(seed, wl.WORKLOADS[name].pool)
        assert len(set(pool)) == len(pool)
        for instance in pool:
            config = validate_config(wl.make_config(name, instance, "out"))
            assert config.seed == instance
            assert config.dim == wl.WORKLOADS[name].dim
            assert config.algorithm.tol == wl.WORKLOADS[name].tol


@pytest.fixture(scope="module")
def traced_children(tmp_path_factory):
    env = bench.child_env(1)
    out = {}
    for name in sorted(wl.WORKLOADS):
        seed = wl.instance_seeds(7, 1)[0]
        workdir = tmp_path_factory.mktemp(name)
        out[name] = bench.run_child(name, seed, workdir, env, traced=True)
    out["adapt3d-untraced"] = bench.run_child(
        "adapt3d", wl.instance_seeds(7, 1)[0], tmp_path_factory.mktemp("plain"), env, traced=False
    )
    return out


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_traced_boundaries_record_calls(traced_children, name):
    child = traced_children[name]
    assert child.problems == []
    calls = {span: child.layers[f"{span}.calls"] for span in spans.SPAN_NAMES}
    assert {s for s in USED[name] if calls[s] < 1} == set()
    assert {s for s in UNUSED[name] if calls[s] != 0} == set()
    assert child.layers["adapt.iterations"] == child.iterations


def test_traced_and_untraced_runs_write_the_same_iterations(traced_children):
    traced, plain = traced_children["adapt3d"], traced_children["adapt3d-untraced"]
    assert plain.problems == []
    assert plain.layers is None
    assert traced.csv_sha256 == plain.csv_sha256


def _write_outputs(outdir, rows, summary):
    header = ("n,index_set_size,dof_delta,eta_tilde,eta_exact,zeta_actual,truncation_M,"
              "marked_pairs,residual_onset_max,residual_max,ref_distance,lambda_1,lambda_2")
    outdir.mkdir()
    (outdir / "iterations.csv").write_text("\n".join([header, *rows]) + "\n")
    (outdir / "summary.json").write_text(json.dumps(summary))


def test_output_check_accepts_a_sound_run_and_lists_each_violation(tmp_path):
    tol = wl.WORKLOADS["compare2d"].tol
    good_rows = [
        f"0,13,0,{3 * tol},{3 * tol},0.05,8,2,1e-15,0.03,0.05,1.5,1.6",
        f"1,17,4,{0.5 * tol},{0.5 * tol},0.0,8,0,2e-15,0.02,0.01,1.4,1.5",
    ]
    summary = {
        "termination_reason": "tol", "final_dof": 17, "final_eigenvalues": [1.4, 1.5],
        "reference_eigenvalues": [1.39, 1.49], "comparison": {"uniform_dof": 21},
    }
    _write_outputs(tmp_path / "good", good_rows, summary)
    out = wl.check_outputs("compare2d", tmp_path / "good")
    assert out.problems == ()
    assert (out.dof, out.iterations) == (17, 2)
    assert out.margins[0] > 0 and out.margins[1] > 0

    bad_rows = [
        f"0,13,0,{3 * tol},{3 * tol},0.2,8,2,1e-3,0.03,0.05,1.5,1.6",
        f"1,17,4,{0.5 * tol},{2 * tol},0.0,8,0,2e-15,0.02,0.01,1.3,1.5",
    ]
    bad = {**summary, "termination_reason": "max_iter", "verification_skipped": "coverage",
           "final_eigenvalues": [1.3, 1.5]}
    _write_outputs(tmp_path / "bad", bad_rows, bad)
    problems = " | ".join(wl.check_outputs("compare2d", tmp_path / "bad").problems)
    for expected in ("max_iter", "verification skipped", "eta_exact", "zeta_actual",
                     "orthogonality", "below reference"):
        assert expected in problems


def test_child_past_its_time_limit_is_killed_and_fails(tmp_path):
    child = bench.run_child(
        "adapt3d", wl.instance_seeds(7, 1)[0], tmp_path, bench.child_env(1), traced=False,
        timeout=0.2,
    )
    assert child.exit_code == -9
    assert child.problems and child.problems[0].startswith("exit code -9")
