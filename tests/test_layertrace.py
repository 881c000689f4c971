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


# LU, LU-solve and phase-field block pass counts of traced n = 8, 2-step runs
# at seed 7. The exact phase-field block's stopping rule is not on the
# chord's or monolithic Newton's path, so a change to it leaves these fixed.
# The elasticity's factor and its 11 solves are banded Cholesky, not SuperLU.
UNCHANGED_COUNTS = {
    "chord-n32": {
        "splu.factor.count": 2, "splu.solve.count": 43,
        "solvers.newton_ch_block.iterations": 43,
    },
    "spinodal-newton-n32": {
        "splu.factor.count": 4, "splu.solve.count": 34,
        "solvers.newton_ch_block.iterations": 0,
    },
}


@pytest.mark.parametrize("name", sorted(UNCHANGED_COUNTS))
def test_chord_and_monolithic_counts_unchanged(bench_run, tmp_path, name):
    cfg = workloads.make_config(name, 7, str(tmp_path), steps=2, n=8)
    tracer = bench_run.layertrace.Tracer()
    sim = bench_run.run_simulation(cahnlarche, cfg, tracer)
    metrics = bench_run.layer_metrics(tracer, sim, cfg.strategy)
    got = {key: metrics[key][0] for key in UNCHANGED_COUNTS[name]}
    assert got == UNCHANGED_COUNTS[name]
