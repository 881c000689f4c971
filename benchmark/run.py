"""Benchmark of cahnlarche: time to solution, set-up and iterations per workload.

Usage, from the root of a source checkout:

    python3 benchmark/run.py --workload chord-n32 --seed 1 --seconds 40 --trace 0

One simulation of a workload is ``cahnlarche run`` itself (``cli.cmd_run``)
on the workload's configuration (see ``workloads.py``). Within ``--seconds``
the benchmark times set-up alone several times, then whole simulations, and
reports medians. Every simulation passes the correctness gate of
``workloads.check_simulation``; a step that fails it counts as failed.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced simulations and prints per-layer counts and self times
from the traced ones (see ``layertrace.py``), with the tracing overhead. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the same
metrics for reading, the machine, and ``failed_frac`` (``failed / attempted``
steps, left out of ``metrics`` because it is 0 on correct code). Outputs, the
result record and the span list go to ``.bench_out/<workload>/``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import layertrace

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".bench_out"
SETUPS_PER_SIM = 2

# eigh and splu run on BLAS. One BLAS thread: on a shared 2-CPU VM a second
# BLAS thread made the run-to-run spread of chord-n32 timings about three
# times wider. Must happen before numpy is imported.
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "step_s_p50": "s",
    "step_s_tail": "s",
    "outer_iterations_per_step": "iterations",
    "peak_rss_mb": "MB",
}

# Per-layer metrics; spans not exercised by a workload report 0.
CALLS = (
    "grid.assemble", "grid.qp_eval", "grid.solve_linear", "schemes.residual",
    "schemes.ch_residual", "schemes.jacobian", "schemes.ch_jacobian",
    "solvers.newton_ch_block", "solvers.elasticity_block", "acceleration.update",
)
SELF_S = (
    "splu.factor", "splu.solve", "grid.assemble", "grid.qp_eval",
    "grid.solve_linear", "schemes.residual", "schemes.ch_residual",
    "schemes.coupling_term", "schemes.jacobian", "schemes.ch_jacobian",
    "materials.double_well", "materials.elastic_law", "schemes.free_energy",
    "harness.write_outputs", "solvers.elasticity_block", "acceleration.update",
    "analysis.estimate_constants",
)

# Spans that must fire on every workload, and those that must fire on the
# workloads of one strategy. A boundary renamed in the package then fails
# the traced run instead of reporting 0.
EXPECTED_ALL = (
    "splu.factor", "splu.solve", "grid.assemble", "grid.qp_eval", "grid.build_mesh",
    "schemes.residual", "schemes.coupling_term", "schemes.free_energy",
    "materials.double_well", "materials.elastic_law", "solvers.solve_step",
    "analysis.estimate_constants", "analysis.rate_bound", "harness.run_simulation",
    "harness.initial_state", "harness.write_outputs",
)
EXPECTED_BY_STRATEGY = {
    "alternating": (
        "schemes.ch_residual", "schemes.ch_jacobian", "solvers.alternating_minimization",
        "solvers.newton_ch_block", "solvers.elasticity_block", "acceleration.update",
    ),
    "monolithic": (
        "schemes.jacobian", "grid.solve_linear", "solvers.newton_monolithic",
    ),
}


def import_package():
    """Import cahnlarche from this checkout's ``src``, and nowhere else."""
    src = ROOT / "src"
    if not (src / "cahnlarche" / "__init__.py").is_file():
        sys.exit(f"benchmark: no package source at {src}")
    sys.path.insert(0, str(src))
    import cahnlarche
    import cahnlarche.cli

    if Path(cahnlarche.__file__).resolve().parent != src / "cahnlarche":
        sys.exit(f"benchmark: imported cahnlarche from {cahnlarche.__file__}")
    return cahnlarche


def machine(seed):
    """The machine, libraries and source a run measured."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": NPROC,
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "scipy_blas": f"{scipy_blas.get('name')} {scipy_blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "source_sha256": digest.hexdigest(),
        "commit": commit(),
        "seed": seed,
    }


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def commit():
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def run_setup(pkg, cfg):
    """Set-up only: what ``cahnlarche run`` does before step 1 begins."""
    zero = pkg.harness.RunConfig(**{**vars(cfg), "t_final": 0.25 * cfg.tau})
    t0 = time.perf_counter()
    pkg.grid.build_mesh(zero.n)
    summary = pkg.harness.run_simulation(zero, estimate_bound=True)
    elapsed = time.perf_counter() - t0
    if len(summary.steps) != 1:
        raise RuntimeError("set-up run advanced in time")
    return elapsed


@dataclass
class Sim:
    """One timed simulation."""

    summary: object  # harness.RunSummary
    run_s: float
    setup_s: float
    steps: list  # seconds per step, step 1 first
    layers: dict = None  # per-layer metrics, traced simulations only


def run_simulation(pkg, cfg, tracer=None):
    """One simulation through ``cahnlarche run`` itself, timed per step.

    ``cli.cmd_run`` gets ``cfg`` in place of its parsed config; step 1
    starts when ``solvers.solve_step`` is first called, and every step
    ends when the callback that ``cmd_run`` passes to
    ``harness.run_simulation`` has returned.
    """
    cli, harness, solvers = pkg.cli, pkg.harness, pkg.solvers
    step_start, step_end, summaries = [], [], []
    solve_step, simulate, load_config = solvers.solve_step, harness.run_simulation, cli._load_config

    def timed_solve_step(*args, **kwargs):
        step_start.append(time.perf_counter())
        return solve_step(*args, **kwargs)

    def timed_simulate(config, callback=None, estimate_bound=False):
        def timed_callback(step, state, report):
            callback(step, state, report)
            step_end.append(time.perf_counter())

        summary = simulate(config, callback=timed_callback, estimate_bound=estimate_bound)
        summaries.append(summary)
        return summary

    solvers.solve_step, harness.run_simulation = timed_solve_step, timed_simulate
    cli._load_config = lambda args: cfg
    try:
        with layertrace.installed(tracer) if tracer else contextlib.nullcontext():
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                cli.cmd_run(None)
                t1 = time.perf_counter()
    finally:
        solvers.solve_step, harness.run_simulation, cli._load_config = (
            solve_step, simulate, load_config)
    setup = (step_start[0] if step_start else t1) - t0
    steps = [b - a for a, b in zip(step_start[:1] + step_end, step_end)]
    return Sim(summaries[0], t1 - t0, setup, steps)


def tail(samples):
    """Highest percentile with at least ten samples beyond it.

    With fewer than eleven samples no percentile has ten beyond it and the
    largest sample is returned. Returns (value, percentile, samples beyond).
    """
    s = sorted(samples)
    if len(s) < 11:
        return s[-1], 100.0, 0
    i = len(s) - 11
    return s[i], 100.0 * i / (len(s) - 1), len(s) - 1 - i


def layer_metrics(tracer, sim, strategy):
    """Per-layer metrics of a traced simulation, after checking the trace.

    Fails when a boundary expected for this strategy never fired, or when
    the self times add up to more than the traced wall time.
    """
    calls, self_s = tracer.summary()
    missing = [s for s in EXPECTED_ALL + EXPECTED_BY_STRATEGY[strategy] if calls[s] == 0]
    if missing:
        raise RuntimeError(f"traced boundaries never fired: {missing}")
    covered = sum(self_s.values())
    if covered > sim.run_s:
        raise RuntimeError(
            f"layer self times {covered:.6f} s exceed traced run_s {sim.run_s:.6f} s"
        )
    c = tracer.counters
    factors = max(calls["splu.factor"], 1)
    records = sim.summary.steps[1:]
    out_dir = Path(sim.summary.config.out_dir)
    m = {
        "splu.factor.count": (calls["splu.factor"], "count"),
        "splu.factor.nnz": (c["splu.factor.nnz"] / factors, "count"),
        "splu.solve.count": (calls["splu.solve"], "count"),
        "splu.solves_per_factor": (calls["splu.solve"] / factors, "ratio"),
        "solvers.newton_ch_block.iterations": (c["solvers.newton_ch_block.iterations"], "count"),
        "solvers.effective_ratio": (
            sum(r.iterations for r in records) / max(sum(r.loops for r in records), 1), "ratio"
        ),
        "harness.output_bytes": (sum(f.stat().st_size for f in out_dir.iterdir()), "bytes"),
        "trace.covered_frac": (covered / sim.run_s, "ratio"),
    }
    for name in CALLS:
        m[f"{name}.calls"] = (calls[name], "count")
    for name in SELF_S:
        m[f"{name}.self_s"] = (float(self_s[name]), "s")
    return m


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    pkg = import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"benchmark: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    name, seed = args.workload, args.seed
    wl = workloads.WORKLOADS[name]
    out_dir = OUT_ROOT / name
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = workloads.make_config(name, seed, str(out_dir / "run"))
    reference = workloads.reference_for(name, seed)
    info = machine(seed)

    deadline = time.perf_counter() + args.seconds
    # Warm the code paths (imports, BLAS and LAPACK set-up) before timing.
    run_setup(pkg, cfg)
    run_simulation(pkg, workloads.make_config(name, seed, str(out_dir / "warmup"), steps=1, n=8))

    # Set-ups are timed between simulations so that both sample the same
    # stretch of the run; with --trace 1 simulations alternate plain/traced.
    setups, plain, traced = [], [], []
    attempted, failed, notes = 0, set(), []
    longest_round = 0.0
    while True:
        t_round = time.perf_counter()
        setups += [run_setup(pkg, cfg) for _ in range(SETUPS_PER_SIM)]
        tracer = layertrace.Tracer() if args.trace and len(plain) > len(traced) else None
        sim = run_simulation(pkg, cfg, tracer)
        n_att, n_failed, n_notes = workloads.check_simulation(name, sim.summary, reference)
        attempted += n_att
        failed |= {(len(plain) + len(traced), k) for k in n_failed}
        notes += n_notes
        if tracer is None:
            plain.append(sim)
            setups.append(sim.setup_s)
        else:
            sim.layers = layer_metrics(tracer, sim, cfg.strategy)
            tracer.write(out_dir / "spans.csv")
            traced.append(sim)
        if len(plain) + len(traced) == 1:
            # Resident memory grows a little with every simulation a process
            # runs, so the peak is read after the first round: the same work
            # however many rounds fit in --seconds.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        now = time.perf_counter()
        longest_round = max(longest_round, now - t_round)
        if (traced or not args.trace) and now + longest_round > deadline:
            break

    # Steps after the first; a run that failed that early falls back to what
    # it has, and is reported as incorrect anyway.
    step_samples = [x for s in plain for x in s.steps[1:]] or [s.run_s for s in plain]
    tail_s, tail_p, beyond = tail(step_samples)
    run_s = statistics.median(s.run_s for s in plain)
    summary0 = plain[0].summary
    iterations = summary0.average_iterations
    e2e = {
        "run_s": run_s,
        "setup_s": statistics.median(setups),
        "step_s_p50": statistics.median(step_samples),
        "step_s_tail": tail_s,
        "outer_iterations_per_step": iterations if math.isfinite(iterations) else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }
    failed_frac = len(failed) / attempted
    print(f"machine: {json.dumps(info)}")
    print(f"workload {name}, seed {seed}: {len(plain)} untraced and {len(traced)} traced "
          f"simulations of {wl['steps']} steps, {len(setups)} set-ups, "
          f"{len(step_samples)} step samples")
    for n_, v in e2e.items():
        print(f"  {n_:<28} {v:.6g} {END_TO_END[n_]}")
    print(f"    step_s_tail is p{tail_p:.1f} of {len(step_samples)} steps, {beyond} beyond it")
    print(f"  {'failed_frac':<28} {failed_frac:.6g} ({len(failed)} of {attempted} steps)")
    print(f"  final energy {summary0.steps[-1].energy_total!r}")
    for note in notes:
        print(f"  FAILED {note}")

    result = {"machine": info, "workload": name, "end_to_end": e2e,
              "failed_frac": failed_frac, "step_s_tail_percentile": tail_p,
              "step_samples": len(step_samples), "notes": notes}
    if args.trace:
        # Counts repeat exactly between traced simulations; times are medians.
        layers = dict(traced[0].layers)
        for key, (_, unit) in layers.items():
            if unit == "s":
                layers[key] = (statistics.median(s.layers[key][0] for s in traced), unit)
        traced_run = statistics.median(s.run_s for s in traced)
        layers["trace.overhead_frac"] = ((traced_run - run_s) / run_s, "ratio")
        print(f"  traced run_s {traced_run:.6g} s, untraced {run_s:.6g} s")
        for key, (v, unit) in sorted(layers.items()):
            print(f"  {key:<40} {v:.6g} {unit}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        result["per_layer"] = metrics
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    with open(out_dir / f"result_trace{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=2)
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
