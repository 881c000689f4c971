"""Record the reference values the benchmark's correctness gate compares to.

Usage, from the root of a source checkout:

    python3 benchmark/record_reference.py

For each workload it runs one simulation of the benchmark's size and stores
the scheme-quadrature energy of every step and the mean effective outer
iterations per step in ``benchmark/reference.json``. The seeded workload is
recorded for seeds 0 .. SEEDS-1, with the range of final energy and iterations
over them (``bands``) for other seeds.
Re-record only when a change is meant to alter results, and say so.
"""

import json
import sys

import run

# Seeds recorded per seeded workload; other seeds are checked against the
# range over these.
SEEDS = 64


def record(harness, workloads, name, seed):
    cfg = workloads.make_config(name, seed, "unused")
    summary = harness.run_simulation(cfg)
    if not summary.completed:
        raise RuntimeError(f"{name} seed {seed}: {summary.failure_reason}")
    return {
        "energies": [r.energy_total for r in summary.steps],
        "iterations": summary.average_iterations,
    }


def main():
    run.import_package()
    from cahnlarche import harness
    import workloads

    refs = {}
    for name, wl in workloads.WORKLOADS.items():
        if not wl["seeded"]:
            refs[name] = record(harness, workloads, name, 0)
            continue
        by_seed = {str(s): record(harness, workloads, name, s) for s in range(SEEDS)}
        energies = [v["energies"][-1] for v in by_seed.values()]
        its = [v["iterations"] for v in by_seed.values()]
        refs[name] = {
            "bands": {
                "energy_band": [min(energies), max(energies)],
                "iterations_band": [min(its), max(its)],
            },
            "by_seed": by_seed,
        }
        print(f"{name}: {len(by_seed)} seeds", file=sys.stderr)
    refs["machine"] = run.machine(None)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
