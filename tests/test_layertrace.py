"""The benchmark's layer trace names only attributes that exist, and every
span the benchmark expects fires on a short run of each workload."""

import importlib.util
import os
from pathlib import Path

import pytest

import cahnlarche
import cahnlarche.cli

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"


def load(name):
    spec = importlib.util.spec_from_file_location(name, BENCHMARK / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load("workloads")


@pytest.fixture(scope="module")
def bench_run():
    """``benchmark/run.py``, loaded with its directory on ``sys.path`` for its
    ``import layertrace``. The BLAS variables it sets on import are restored
    afterwards."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCHMARK))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            mp.setenv(var, os.environ.get(var, ""))  # recorded, so restored
        run = load("run")
    return run


def test_every_traced_boundary_resolves():
    layertrace = load("layertrace")
    boundaries = layertrace.boundaries()
    assert boundaries
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in boundaries
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_expected_span_fires(bench_run, tmp_path, name):
    cfg = workloads.make_config(name, 7, str(tmp_path), steps=2, n=8)
    tracer = bench_run.layertrace.Tracer()
    sim = bench_run.run_simulation(cahnlarche, cfg, tracer)
    # raises if a span expected for the workload's strategy never fired
    metrics = bench_run.layer_metrics(tracer, sim, cfg.strategy)
    # every elasticity solve, frozen LU or not, goes through the checked solve
    assert metrics["grid.solve_linear.calls"][0] > 0
