"""The benchmark's workload configs must pass ingest and build their potentials.

`perfbench/workloads.py` generates the configs that every benchmark run
feeds to `adaptpw run`. perfbench's own tests are not part of tier-1, so a
tighter ingest or pre-flight is checked against those configs here. The
module is loaded by path, as `test_trace_boundaries.py` loads `spans.py`.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from adaptpw.cli import build_potential, validate_config

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    return workloads


WORKLOADS = _workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_workload_configs_validate(name):
    workload = WORKLOADS.WORKLOADS[name]
    for seed in (0, 7, 12345):
        for instance in WORKLOADS.instance_seeds(seed, workload.pool):
            raw = WORKLOADS.make_config(name, instance, "out")
            config = validate_config(raw, mode=workload.mode)
            assert (config.seed, config.dim) == (instance, workload.dim)
            build_potential(config.potential_spec, config.dim, config.seed)
