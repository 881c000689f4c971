"""Acceptance criteria.

Each test prints an explicit PASS/FAIL line with the measured quantity and
its stated tolerance. The reference averages come from runs at n = 65 over
1000 steps; these tests use n = 32 with shortened horizons (documented
per test), which shifts averages slightly — the comparisons use the stated
+-30% bands and trend checks, which absorb the shift.

Iteration counts are "effective" iterations: loop passes that moved the
iterate by more than the increment tolerance. The terminal pass of a
converged solve, which merely confirms stagnation, is excluded (the
combined residual+increment stopping rule always needs one such pass).
"""

import time

import numpy as np
import pytest

import cahnlarche as cl
from cahnlarche import analysis, grid, harness, materials, schemes, solvers


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def run(n=32, steps=40, tau=1e-5, **kw):
    cfg = harness.RunConfig(n=n, tau=tau, t_final=steps * tau, **kw)
    return harness.run_simulation(cfg)


# ---------------------------------------------------------------------------
# 1. Gradient stability of the homogeneous scheme
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_stability():
    """Free energy nonincreasing for tau in {1e-5, 5e-5, 1e-4}, slack 1e-10;
    n=32 fallback with runtime <= 1 min per run."""
    ok_all = True
    for tau in (1e-5, 5e-5, 1e-4):
        steps = int(round(0.01 / tau))
        t0 = time.time()
        s = run(n=32, steps=steps, tau=tau, scheme="homogeneous",
                strategy="alternating", chord=True)
        wall = time.time() - t0
        e = s.energies
        rises = np.diff(e)[np.diff(e) > 1e-10]
        ok = s.completed and len(rises) == 0 and wall <= 60.0
        ok_all &= report(
            f"criterion 1 (tau={tau:g})", ok,
            f"{steps} steps, max energy rise "
            f"{np.diff(e).max():.2e} (slack 1e-10), runtime {wall:.0f}s <= 60s",
        )
    assert ok_all


# ---------------------------------------------------------------------------
# 2. Energy decay and cross-scheme agreement, heterogeneous
# ---------------------------------------------------------------------------

def test_criterion_2_energy_decay_heterogeneous():
    """Semi-implicit and implicit energies monotone and within 1% of each
    other at matching times (n=32, gamma=10, xi=1, 60 steps)."""
    series = {}
    mono = {}
    for scheme in ("implicit", "semi_implicit"):
        s = run(steps=60, scheme=scheme, strategy="monolithic",
                gamma=10.0, xi=1.0)
        assert s.completed, scheme
        series[scheme] = s.energies
        mono[scheme] = np.diff(s.energies).max()
    rel = np.abs(series["implicit"] - series["semi_implicit"]) / np.abs(
        series["implicit"]
    )
    ok = (
        mono["implicit"] <= 1e-10
        and mono["semi_implicit"] <= 1e-10
        and rel.max() <= 0.01
    )
    assert report(
        "criterion 2", ok,
        f"max energy rise impl {mono['implicit']:.2e}, semi "
        f"{mono['semi_implicit']:.2e}; max relative gap {rel.max():.4f} <= 0.01",
    )


# ---------------------------------------------------------------------------
# 3. Iteration trends versus gamma
# ---------------------------------------------------------------------------

def test_criterion_3_gamma_trends():
    """Semi-implicit split averages nonincreasing over gamma in
    {1,5,10,50,100}; at gamma=5 within +-30% of 6.222 (split) and 3.186
    (mono). n=32, 60 steps (documented shift from the n=65/1000-step
    reference)."""
    gammas = (1.0, 5.0, 10.0, 50.0, 100.0)
    split = []
    for g in gammas:
        s = run(steps=60, scheme="semi_implicit", strategy="alternating",
                gamma=g, xi=1.0)
        assert s.completed
        split.append(s.average_iterations)
    s5 = run(steps=60, scheme="semi_implicit", strategy="monolithic",
             gamma=5.0, xi=1.0)
    mono5 = s5.average_iterations

    noninc = np.all(np.diff(split) <= 1e-12)
    split_ok = abs(split[1] - 6.222) <= 0.3 * 6.222
    mono_ok = abs(mono5 - 3.186) <= 0.3 * 3.186
    ok = noninc and split_ok and mono_ok
    assert report(
        "criterion 3", ok,
        f"split averages {['%.3f' % v for v in split]} nonincreasing={noninc}; "
        f"gamma=5 split {split[1]:.3f} in 6.222+-30%={split_ok}; "
        f"mono {mono5:.3f} in 3.186+-30%={mono_ok}",
    )


# ---------------------------------------------------------------------------
# 4. Iteration trends versus xi
# ---------------------------------------------------------------------------

def test_criterion_4_xi_trends():
    """Semi-implicit split averages nondecreasing over xi in
    {0.01,0.1,0.5,1,1.5,2}; xi=0.01 average <= 1.5; implicit monolithic
    behavior at xi in {1.5, 2} reported. n=32, 100 steps. The number of
    steps whose free energy rises (ROADMAP item 2) is reported per xi."""
    xis = (0.01, 0.1, 0.5, 1.0, 1.5, 2.0)
    avg, rises = [], []
    for xi in xis:
        s = run(steps=100, scheme="semi_implicit", strategy="alternating",
                gamma=5.0, xi=xi)
        assert s.completed
        avg.append(s.average_iterations)
        rises.append(len(analysis.monotonicity_violations(s.energies, 1e-10)))
    nondec = np.all(np.diff(avg) >= -1e-12)
    small_ok = avg[0] <= 1.5

    impl_failures = {}
    for xi in (1.5, 2.0):
        s = run(steps=20, scheme="implicit", strategy="monolithic",
                gamma=5.0, xi=xi, max_iterations=30)
        impl_failures[xi] = None if s.completed else s.failed_at_step
        if s.completed:
            print(
                f"  note: implicit monolithic completed at xi={xi} on n=32 "
                "(reference reports nonconvergence at n=65) - discrepancy "
                "reported, trend checks remain binding"
            )
    ok = nondec and small_ok
    assert report(
        "criterion 4", ok,
        f"averages {['%.3f' % v for v in avg]} nondecreasing={nondec}; "
        f"xi=0.01 avg {avg[0]:.3f} <= 1.5={small_ok}; implicit mono failed at "
        f"step {impl_failures}; energy rises per xi {dict(zip(xis, rises))} "
        "(reported, not gated)",
    )


# ---------------------------------------------------------------------------
# 5. Anderson acceleration
# ---------------------------------------------------------------------------

def test_criterion_5_anderson_acceleration():
    """Depth-2 Anderson reduces implicit-split average iterations by >= 20%
    relative to depth 0 at gamma=1, xi=1 (n=32, 15 steps)."""
    avgs = {}
    for depth in (0, 2):
        s = run(steps=15, scheme="implicit", strategy="alternating",
                gamma=1.0, xi=1.0, anderson_depth=depth)
        assert s.completed
        avgs[depth] = s.average_iterations
    reduction = 1.0 - avgs[2] / avgs[0]
    ok = reduction >= 0.20
    assert report(
        "criterion 5", ok,
        f"depth0 {avgs[0]:.3f} -> depth2 {avgs[2]:.3f}, reduction "
        f"{100 * reduction:.1f}% >= 20%",
    )


# ---------------------------------------------------------------------------
# 6. Linear convergence of alternating minimization
# ---------------------------------------------------------------------------

def test_criterion_6_am_linear_convergence():
    """Within each semi-implicit step the potential-gap sequence decreases
    monotonically and the observed contraction ratio stays <= rate bound
    + 0.05 on >= 95% of steps (midsplit gamma=5, n=32, 50 steps)."""
    n, n_steps = 32, 50
    mesh = grid.build_mesh(n)
    cfg = harness.RunConfig(n=n, scheme="semi_implicit", gamma=5.0, xi=1.0)
    params = cfg.build_params()
    consts = analysis.estimate_constants(mesh)
    bound = analysis.rate_bound(params, consts)
    state = harness.initial_state(mesh, cfg)

    good = 0
    for _ in range(n_steps):
        ctx = schemes.SchemeContext(
            prev=state, params=params, scheme_kind="semi_implicit"
        )
        state, rep = solvers.alternating_minimization(
            ctx, state, track_potential=True
        )
        assert rep.converged
        p = np.array(rep.potential_history)
        slack = 1e-10 * max(1.0, np.abs(p).max())
        monotone = len(analysis.monotonicity_violations(p, slack=slack)) == 0
        # gaps at the roundoff floor of |p| carry no rate information
        ratios = analysis.observed_rate(p, floor=slack)
        finite = ratios[np.isfinite(ratios)]
        below = np.all(finite <= bound.contraction + 0.05) if finite.size else True
        good += monotone and below
    frac = good / n_steps
    ok = frac >= 0.95
    assert report(
        "criterion 6", ok,
        f"rate bound {bound.contraction:.4f} (+0.05 slack); "
        f"{good}/{n_steps} steps monotone and within bound "
        f"({100 * frac:.0f}% >= 95%)",
    )


# ---------------------------------------------------------------------------
# 7. Cross-solver oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_7_monolithic_vs_alternating():
    """Monolithic Newton and alternating minimization agree in phi within
    1e-5 (L2) on every one of 20 steps, n=16."""
    mesh = grid.build_mesh(16)
    cfg = harness.RunConfig(n=16, scheme="semi_implicit", gamma=5.0, xi=1.0)
    params = cfg.build_params()
    M = mesh.mass
    state = harness.initial_state(mesh, cfg)
    worst = 0.0
    for _ in range(20):
        ctx = schemes.SchemeContext(
            prev=state, params=params, scheme_kind="semi_implicit"
        )
        s_nw, r1 = solvers.newton_monolithic(ctx, state)
        s_am, r2 = solvers.alternating_minimization(ctx, state)
        assert r1.converged and r2.converged
        d = s_nw.phi - s_am.phi
        worst = max(worst, float(np.sqrt(d @ (M @ d))))
        state = s_nw  # continue along the monolithic trajectory
    ok = worst <= 1e-5
    assert report(
        "criterion 7", ok, f"max per-step L2 phi gap {worst:.2e} <= 1e-5"
    )


# ---------------------------------------------------------------------------
# 8. Numerical-analysis property suite
# ---------------------------------------------------------------------------

def test_criterion_8a_jacobian_finite_differences():
    """10 random states per scheme, FD relative error <= 1e-5."""
    from tests.test_schemes import expand_saddle, fd_jacobian, make_ctx, random_state

    mesh = grid.build_mesh(4)
    rng = np.random.Generator(np.random.PCG64(2024))
    worst = 0.0
    for kind in schemes.SCHEME_KINDS:
        for _ in range(10):
            ctx = make_ctx(mesh, kind, rng)
            st = random_state(mesh, rng)
            J = expand_saddle(st, ctx)
            Jfd = fd_jacobian(st, ctx)
            worst = max(worst, np.abs(J - Jfd).max() / np.abs(J).max())
    ok = worst <= 1e-5
    assert report(
        "criterion 8a (Jacobian FD)", ok, f"max relative error {worst:.2e} <= 1e-5"
    )


def test_criterion_8b_mass_conservation():
    """|(phi^n - phi^{n-1}, 1)| <= 1e-9 per step, all schemes."""
    worst = 0.0
    for scheme in schemes.SCHEME_KINDS:
        s = run(n=16, steps=10, scheme=scheme)
        assert s.completed
        masses = np.array([r.mass for r in s.steps])
        worst = max(worst, np.abs(np.diff(masses)).max())
    ok = worst <= 1e-9
    assert report(
        "criterion 8b (mass conservation)", ok,
        f"max per-step drift {worst:.2e} <= 1e-9",
    )


def test_criterion_8c_dual_norm_benchmark():
    """||cos(pi x)||_{Q*,1} -> 1/(pi sqrt(2)) within 1% at n=65."""
    mesh = grid.build_mesh(65)
    s = np.cos(np.pi * mesh.nodes[:, 0])
    dn = analysis.dual_norm(s, mesh)
    exact = 1.0 / (np.pi * np.sqrt(2.0))
    rel = abs(dn - exact) / exact
    ok = rel <= 0.01
    assert report(
        "criterion 8c (dual norm)", ok,
        f"computed {dn:.6f}, continuum {exact:.6f}, relative error "
        f"{rel:.2e} <= 1%",
    )


def test_criterion_8d_poincare_benchmark():
    """Poincare constant -> 1/pi within 1% at n=65."""
    mesh = grid.build_mesh(65)
    c = analysis.estimate_constants(mesh)
    exact = 1.0 / np.pi
    rel = abs(c.poincare - exact) / exact
    ok = rel <= 0.01
    assert report(
        "criterion 8d (Poincare)", ok,
        f"computed {c.poincare:.6f}, continuum {exact:.6f}, relative error "
        f"{rel:.2e} <= 1%",
    )


def test_criterion_8e_mms_elasticity_order():
    """Manufactured elasticity solution converges at order 2 +- 0.2."""
    from tests.test_grid import test_mms_elasticity_convergence_order

    # the underlying assertion enforces |rate - 2| <= 0.2 on n in {8,16,32}
    test_mms_elasticity_convergence_order()
    assert report("criterion 8e (MMS order)", True, "order 2 +- 0.2 verified")


# ---------------------------------------------------------------------------
# Qualitative spinodal decomposition (random data coverage)
# ---------------------------------------------------------------------------

def test_spinodal_decomposition_random_data():
    """Random initial data separates into |phi| ~ 1 regions: >= 90% of nodes
    with |phi| > 0.9 by t=0.02, with monotone energy decay. The random field
    is pinned (seed 3); morphology itself is seed-dependent."""
    cfg = harness.RunConfig(
        n=32, tau=1e-4, t_final=0.02, scheme="semi_implicit",
        strategy="monolithic", gamma=5.0, xi=1.0, init="random", seed=3,
    )
    s = harness.run_simulation(cfg)
    assert s.completed
    frac = float(np.mean(np.abs(s.final_state.phi) > 0.9))
    e = s.energies
    mono = np.all(np.diff(e) <= 1e-10 * max(1.0, abs(e[0])))
    ok = frac >= 0.90 and mono
    assert report(
        "spinodal decomposition", ok,
        f"separated fraction {frac:.3f} >= 0.90, energy monotone={mono}",
    )
