"""The benchmark's workloads pass its correctness gate."""

import importlib.util
from pathlib import Path

import pytest

from cahnlarche import harness

WORKLOADS = Path(__file__).resolve().parent.parent / "benchmark" / "workloads.py"
_spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def gate_failures(tmp_path, name, seed):
    """The gate's messages on one simulation of ``name`` at ``seed``."""
    cfg = workloads.make_config(name, seed, str(tmp_path))
    summary = harness.run_simulation(cfg, estimate_bound=True)
    _, failed, notes = workloads.check_simulation(
        name, summary, workloads.reference_for(name, seed)
    )
    return failed, notes


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_the_gate(tmp_path, name):
    failed, notes = gate_failures(tmp_path, name, 7)
    assert not failed, notes


@pytest.mark.xfail(strict=True, reason="undamped Newton, ROADMAP item 1")
def test_spinodal_seed_1503_passes_the_gate(tmp_path):
    # Undamped Newton takes 5.4167 iterations per step from this seed's
    # random data, outside the widened band of the recorded seeds.
    failed, notes = gate_failures(tmp_path, "spinodal-newton-n32", 1503)
    assert not failed, notes
