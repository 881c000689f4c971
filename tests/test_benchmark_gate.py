"""The benchmark's workloads pass its correctness gate."""

import importlib.util
from pathlib import Path

import pytest

from cahnlarche import harness

WORKLOADS = Path(__file__).resolve().parent.parent / "benchmark" / "workloads.py"
_spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_the_gate(tmp_path, name):
    seed = 7
    cfg = workloads.make_config(name, seed, str(tmp_path))
    summary = harness.run_simulation(cfg, estimate_bound=True)
    _, failed, notes = workloads.check_simulation(
        name, summary, workloads.reference_for(name, seed)
    )
    assert not failed, notes
