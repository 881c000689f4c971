"""Workload definitions and the correctness gate of the benchmark.

Each workload is a fixed ``RunConfig`` plus a step count; ``run.py`` runs
one simulation of it through ``cli.cmd_run``, the code of ``cahnlarche
run``: ``run_simulation(cfg, callback=..., estimate_bound=True)`` followed
by ``write_outputs`` with snapshots.
"""

import json
import os

from cahnlarche import harness

TAU = 1e-5
# Criterion 1's slack on the scheme-quadrature energy of a step.
ENERGY_SLACK = 1e-10
# Criterion 8b's bound on the change of the discrete mass in one step.
MASS_TOL = 1e-9
# Stopping tolerance of every solve (RunConfig.tolerance).
SOLVER_TOL = 1e-6

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

WORKLOADS = {
    # Criterion 1 configuration: many cheap steps, one chord factorization per
    # step and an elasticity LU kept for the whole run, so residual kernels
    # and per-call overhead dominate.
    "chord-n32": dict(
        config=dict(
            n=32, tau=TAU, gamma=5.0, xi=1.0, scheme="homogeneous",
            strategy="alternating", chord=True, init="midsplit",
            snapshot_every=25,
        ),
        steps=100,
        energy_check=True,
        seeded=False,
    ),
    # The paper's semi-implicit heterogeneous AM with exact inner Newton and
    # Anderson(2), at n=32 instead of the paper's 65 so that a run holds
    # several simulations: about eighteen factorizations per step, so splu
    # dominates, and the only workload whose Anderson window mixes.
    "am-anderson-n32": dict(
        config=dict(
            n=32, tau=TAU, gamma=5.0, xi=1.0, scheme="semi_implicit",
            strategy="alternating", anderson_depth=2, init="midsplit",
        ),
        steps=12,
        energy_check=True,
        seeded=False,
    ),
    # Monolithic Newton reassembles the full Jacobian with C, C' and C'' on
    # every iteration and factors the coupled 4N system; random initial data
    # from the benchmark seed varies the iteration counts.
    "spinodal-newton-n32": dict(
        config=dict(
            n=32, tau=TAU, gamma=5.0, xi=1.0, scheme="implicit",
            strategy="monolithic", init="random",
        ),
        steps=12,
        energy_check=False,
        seeded=True,
    ),
}


def make_config(name, seed, out_dir, steps=None, n=None):
    """The RunConfig of workload ``name``; ``steps``/``n`` override its size."""
    wl = WORKLOADS[name]
    cfg = dict(wl["config"])
    cfg["t_final"] = (wl["steps"] if steps is None else steps) * TAU
    if n is not None:
        cfg["n"] = n
    cfg["seed"] = seed if wl["seeded"] else 0
    cfg["out_dir"] = out_dir
    return harness.RunConfig(**cfg)


def reference_for(name, seed):
    """The recorded values this run must match.

    A seeded workload has an entry per recorded seed; other seeds get the
    range over the recorded ones (``bands``).
    """
    with open(REFERENCE_PATH) as fh:
        entry = json.load(fh)[name]
    if WORKLOADS[name]["seeded"]:
        return entry["by_seed"].get(str(seed), entry["bands"])
    return entry


def iteration_tolerance(steps):
    """Allowed change of the mean iterations per step from the recorded value.

    An iteration count may change by one where a residual sits within the
    solver's 1e-6 of the stopping test; allow that on one step in twenty,
    and on at least one step.
    """
    return max(1.0, steps / 20.0) / steps


def _widened(band):
    """The recorded range over seeds, widened by half its width on each side,
    so that a seed outside the recorded ones is not failed for landing just
    beyond the extremes of a finite sample."""
    lo, hi = band
    return lo - (hi - lo) / 2, hi + (hi - lo) / 2


def check_simulation(name, summary, reference):
    """Apply the correctness gate to one simulation.

    Every step must converge and conserve mass; on workloads with
    ``energy_check`` the scheme-quadrature energy must not rise; the
    energy of every step and the mean iterations must match ``reference``
    (from ``reference_for``). Returns (steps attempted, set of failed step
    indices, messages).
    """
    wl = WORKLOADS[name]
    steps = summary.steps
    attempted = len(steps) - 1
    failed, notes = set(), []
    if not summary.completed:
        attempted += 1
        failed.add(summary.failed_at_step)
        notes.append(f"step {summary.failed_at_step}: {summary.failure_reason}")
    for prev, cur in zip(steps, steps[1:]):
        if not cur.converged:
            failed.add(cur.step)
            notes.append(f"step {cur.step}: not converged")
        if abs(cur.mass - prev.mass) > MASS_TOL:
            failed.add(cur.step)
            notes.append(f"step {cur.step}: mass changed by {cur.mass - prev.mass:.3e}")
        rise = cur.energy_total - prev.energy_total
        if wl["energy_check"] and rise > ENERGY_SLACK:
            failed.add(cur.step)
            notes.append(f"step {cur.step}: energy rose by {rise:.3e}")
    if summary.completed:
        # Every step stops at a residual and increment of 1e-6; the energy of
        # every step must match the recorded one to 1e-6 relative.
        its, it_tol = summary.average_iterations, iteration_tolerance(wl["steps"])
        if "energies" in reference:
            for rec, e_ref in zip(steps, reference["energies"]):
                if abs(rec.energy_total - e_ref) > SOLVER_TOL * abs(e_ref):
                    failed.add(rec.step)
                    notes.append(f"step {rec.step}: energy {rec.energy_total!r}, recorded {e_ref!r}")
            ok_i = abs(its - reference["iterations"]) <= it_tol
            want = f"{reference['iterations']!r}"
        else:
            lo, hi = _widened(reference["energy_band"])
            energy = steps[-1].energy_total
            if not lo * (1 - SOLVER_TOL) <= energy <= hi * (1 + SOLVER_TOL):
                failed.add(steps[-1].step)
                notes.append(f"final energy {energy!r} outside {reference['energy_band']}")
            lo_i, hi_i = _widened(reference["iterations_band"])
            ok_i = lo_i - it_tol <= its <= hi_i + it_tol
            want = f"the range {reference['iterations_band']}"
        if not ok_i:
            failed.add(steps[-1].step)
            notes.append(f"mean iterations {its!r} do not match {want}")
    return attempted, failed, notes
