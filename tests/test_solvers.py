"""Stopping rule semantics, Newton and alternating-minimization behavior."""

import numpy as np
import pytest
import scipy.sparse as sp

import cahnlarche as cl
from cahnlarche import grid, harness, materials, schemes, solvers


def midsplit_ctx(n=8, kind="semi_implicit", gamma=5.0, xi=1.0, het=True):
    mesh = grid.build_mesh(n)
    law = materials.ElasticLaw(xi=xi, heterogeneous=het)
    params = materials.ModelParams(gamma=gamma, elastic=law)
    prev = schemes.State.zeros(mesh)
    prev.phi = np.tanh((0.5 - mesh.nodes[:, 1]) / (np.sqrt(2) * params.ell))
    ctx = schemes.SchemeContext(prev=prev, params=params, scheme_kind=kind)
    return ctx, prev


class TestStoppingRule:
    rule = solvers.StoppingRule()

    def test_all_zero_true(self):
        assert self.rule.satisfied(0.0, 0.0, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0))

    def test_residual_tiny_increment_huge_false(self):
        # AND across the residual and increment families
        assert not self.rule.satisfied(0.0, 1.0, (5.0, 5.0, 5.0), (1.0, 1.0, 1.0))

    def test_increment_tiny_residual_huge_false(self):
        assert not self.rule.satisfied(1.0, 1.0, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0))

    def test_boundary_inclusive(self):
        # exactly the tolerances on all four quantities -> converged
        t = 1e-6
        assert self.rule.satisfied(t, t / 1e-6 * t, (t, 0.0, 0.0), (1.0, 1.0, 1.0))

    def test_relative_only_suffices_within_family(self):
        # abs residual large, rel residual small; abs increment small
        assert self.rule.satisfied(1.0, 1e7, (1e-7, 0.0, 0.0), (1.0, 1.0, 1.0))

    def test_one_tolerance_for_all_four_criteria(self):
        rule = solvers.StoppingRule(1e-3)
        # residual, absolute (the relative criterion fails on both)
        assert rule.residual_ok(1e-3, 1e-3)
        assert not rule.residual_ok(1.1e-3, 1.1e-3)
        # residual, relative
        assert rule.residual_ok(1.0, 1e3)
        assert not rule.residual_ok(1.0, 0.9e3)
        # increment, absolute (the relative criterion fails on both)
        assert rule.increment_ok((1e-3, 0.0, 0.0), (1e-3, 1.0, 1.0))
        assert not rule.increment_ok((1.1e-3, 0.0, 0.0), (1.1e-3, 1.0, 1.0))
        # increment, relative
        assert rule.increment_ok((2.0, 0.0, 0.0), (2e3, 1.0, 1.0))
        assert not rule.increment_ok((2.0, 0.0, 0.0), (1.9e3, 1.0, 1.0))
        args = (1e-3, 1e-3, (1e-3, 0.0, 0.0), (1e-3, 1.0, 1.0))
        assert rule.satisfied(*args) and not self.rule.satisfied(*args)


class TestNewtonMonolithic:
    def test_converges_and_residual_small(self):
        ctx, prev = midsplit_ctx()
        state, rep = solvers.newton_monolithic(ctx, prev)
        assert rep.converged
        assert rep.residual_norms[-1] <= 1e-6

    def test_quadratic_convergence_tail(self):
        ctx, prev = midsplit_ctx()
        _, rep = solvers.newton_monolithic(ctx, prev)
        r = rep.residual_norms
        # at least one superlinear contraction in the tail
        ratios = [r[i + 1] / r[i] ** 2 for i in range(1, len(r) - 1) if r[i] > 1e-12]
        assert min(ratios) < 1e3

    def test_deterministic(self):
        ctx, prev = midsplit_ctx()
        s1, r1 = solvers.newton_monolithic(ctx, prev)
        s2, r2 = solvers.newton_monolithic(ctx, prev)
        assert np.array_equal(s1.pack(), s2.pack())
        assert r1.residual_norms == r2.residual_norms

    def test_dirichlet_enforced(self):
        ctx, prev = midsplit_ctx()
        state, rep = solvers.newton_monolithic(ctx, prev)
        c = ctx.mesh.constrained_u_dofs
        assert np.abs(state.u[c]).max() < 1e-12

    def test_nonconvergence_reported_not_raised(self):
        ctx, prev = midsplit_ctx()
        state, rep = solvers.newton_monolithic(ctx, prev, max_iter=1)
        assert not rep.converged
        assert rep.reason


class TestPhaseFieldBlock:
    def test_nonconvergence_reported_not_raised(self):
        ctx, prev = midsplit_ctx()
        nn = ctx.mesh.node_count
        r = schemes.residual(prev, ctx)[: 2 * nn]
        state, rep = solvers.newton_ch_block(ctx, prev.copy(), r=r, max_iter=1)
        assert not rep.converged
        assert rep.iterations == 1
        assert rep.reason


def random_ctx(n, kind, seed=0, mesh=None, **params):
    """Context and iterate with random fields; the iterate has u_c = 0.

    ``params`` override the ModelParams defaults (gamma 5); ``mesh`` is
    built with n elements per side unless given.
    """
    mesh = mesh or grid.build_mesh(n)
    law = materials.ElasticLaw(heterogeneous=kind != "homogeneous")
    params = materials.ModelParams(**{"gamma": 5.0, "elastic": law, **params})
    rng = np.random.Generator(np.random.PCG64(seed))
    nn = mesh.node_count

    def fields():
        return schemes.State(
            rng.uniform(-1, 1, nn), rng.normal(size=nn),
            0.01 * rng.normal(size=2 * nn), mesh,
        )

    ctx = schemes.SchemeContext(prev=fields(), params=params, scheme_kind=kind)
    state = fields()
    state.u[ctx.mesh.constrained_u_dofs] = 0.0
    return ctx, state


def oracle_jacobian(state, ctx, block):
    """The Jacobian of ``schemes.residual`` (``block == "full"``, with identity
    rows on the constrained dofs) or of ``schemes.ch_residual``, assembled
    from grid primitives with ``sp.bmat`` in the (phi, mu, u) layout."""
    mesh, p = ctx.mesh, ctx.params
    law, xi = p.elastic, p.elastic.xi
    M, K = grid.assemble_mass(mesh), grid.assemble_stiffness(mesh)
    phi_qp = grid.scalar_at_qp(mesh, state.phi)
    psi_cc = grid.assemble_weighted_mass(mesh, p.double_well.psi_c_second(phi_qp))
    I = grid.I_VOIGT
    if ctx.scheme_kind == "implicit":
        e = grid.strain_at_qp(mesh, state.u) - xi * phi_qp[..., None] * I
        C, Cp = law.tensor(phi_qp), law.tensor_prime(phi_qp)
        g = (
            0.5 * np.einsum("eqc,eqcd,eqd->eq", e, law.tensor_second(phi_qp), e)
            - 2 * xi * np.einsum("c,eqcd,eqd->eq", I, Cp, e)
            + xi**2 * np.einsum("c,eqcd,d->eq", I, C, I)
        )
        w = np.einsum("eqc,eqcd->eqd", e, Cp) - xi * np.einsum("c,eqcd->eqd", I, C)
        G = -grid.assemble_coupling(mesh, w)
    else:
        C = law.tensor(grid.scalar_at_qp(mesh, ctx.prev.phi))
        g = xi**2 * np.einsum("c,eqcd,d->eq", I, C, I)
        G = grid.assemble_coupling(mesh, xi * np.einsum("c,eqcd->eqd", I, C))
    J_mp = (
        -p.gamma * p.ell * K - (p.gamma / p.ell) * psi_cc
        - grid.assemble_weighted_mass(mesh, g)
    )
    if block != "full":
        return sp.bmat([[M / p.tau, p.m * K], [J_mp, M]], format="csr")
    A = grid.assemble_vector_elasticity(mesh, C)
    J = sp.bmat(
        [[M / p.tau, p.m * K, None], [J_mp, M, G], [-G.T, None, A]], format="lil"
    )
    c = 2 * ctx.mesh.node_count + ctx.mesh.constrained_u_dofs
    J[c, :] = 0.0
    J[c, c] = 1.0
    return J.tocsr()


def saddle_of(J, ctx):
    """The saddle form of the (phi, mu, u) matrix J, as a dense array."""
    from tests.test_schemes import saddle_order

    rows, cols, scale = saddle_order(ctx, J.shape[0])
    return scale[:, None] * J.toarray()[np.ix_(rows, cols)]


class TestSaddleForm:
    """The Newton matrices as assembled, in symmetric saddle-point form."""

    cases = [
        (n, kind, block)
        for n in (4, 8)
        for kind in schemes.SCHEME_KINDS
        for block in ("full", "phase_field")
    ]

    @staticmethod
    def matrix(ctx, state, block):
        if block == "full":
            return schemes.jacobian(state, ctx)
        return schemes.ch_jacobian(state, ctx)

    @pytest.mark.parametrize("n, kind, block", cases)
    def test_reduced_matrix_symmetric(self, n, kind, block):
        ctx, state = random_ctx(n, kind)
        S = self.matrix(ctx, state, block)
        assert abs(S - S.T).max() <= 1e-12 * abs(S).max()

    @pytest.mark.parametrize("n, kind, block", cases)
    def test_matches_oracle(self, n, kind, block):
        ctx, state = random_ctx(n, kind)
        S = self.matrix(ctx, state, block).toarray()
        want = saddle_of(oracle_jacobian(state, ctx, block), ctx)
        nn = ctx.mesh.node_count
        # block by block, so that the small mass blocks are checked as
        # tightly as the elasticity block; a column's block is that of its
        # unknown (phi, mu, u), a row's that of the unknown it is paired with
        kind = np.minimum(ctx.mesh.saddle_pattern(block == "full").order // nn, 2)
        for a in range(3):
            for b in range(3):
                cell = np.ix_(kind == a, kind == b)
                got, ref = S[cell], want[cell]
                assert np.abs(got - ref).max(initial=0.0) <= 1e-14 * np.abs(ref).max(
                    initial=0.0
                ), (a, b)

    @pytest.mark.parametrize("n, kind, block", cases)
    def test_solve_matches_spsolve(self, n, kind, block):
        from scipy.sparse.linalg import spsolve

        ctx, state = random_ctx(n, kind)
        J = oracle_jacobian(state, ctx, block)
        b = np.random.Generator(np.random.PCG64(1)).normal(size=J.shape[0])
        if block == "full":
            # the residual of u_c = 0
            b[2 * ctx.mesh.node_count + ctx.mesh.constrained_u_dofs] = 0.0
        x = solvers._newton_solve(self.matrix(ctx, state, block), -b, ctx)
        ref = spsolve(J.tocsc(), b)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)

    @staticmethod
    def singular(S):
        """S with the data of its first column zeroed; the pattern is kept."""
        S.data[S.indptr[0] : S.indptr[1]] = 0.0
        return S

    @pytest.mark.parametrize("kind", schemes.SCHEME_KINDS)
    def test_singular_jacobian_fails_step(self, kind, monkeypatch):
        ctx, state = random_ctx(4, kind)
        jac = schemes.jacobian
        monkeypatch.setattr(schemes, "jacobian", lambda st, c: self.singular(jac(st, c)))
        _, rep = solvers.newton_monolithic(ctx, state)
        assert not rep.converged
        assert rep.reason.startswith("linear solve failed")

    @pytest.mark.parametrize("chord", [False, True])
    @pytest.mark.parametrize("kind", schemes.SCHEME_KINDS)
    def test_singular_phase_field_block_fails_step(self, kind, chord, monkeypatch):
        ctx, state = random_ctx(4, kind)
        jac = solvers._ch_jacobian
        monkeypatch.setattr(
            solvers, "_ch_jacobian", lambda st, c: self.singular(jac(st, c))
        )
        r = schemes.ch_residual(state, ctx)
        _, rep = solvers.newton_ch_block(ctx, state, r=r, chord=chord)
        assert not rep.converged
        assert rep.reason.startswith("linear solve failed")

    @pytest.mark.parametrize("block", ["full", "phase_field"])
    @pytest.mark.parametrize("kind", schemes.SCHEME_KINDS)
    def test_inaccurate_solve_fails_step(self, kind, block, monkeypatch):
        # The residual check of an exact Newton solve rejects an increment
        # that is off by one part in a million.
        import scipy.sparse.linalg as spla

        class Perturbed:
            def __init__(self, lu):
                self.solve = lambda b: lu.solve(b) * (1.0 + 1e-6)

        splu = spla.splu
        monkeypatch.setattr(spla, "splu", lambda *a, **k: Perturbed(splu(*a, **k)))
        ctx, state = random_ctx(4, kind)
        if block == "full":
            _, rep = solvers.newton_monolithic(ctx, state)
        else:
            r = schemes.ch_residual(state, ctx)
            _, rep = solvers.newton_ch_block(ctx, state, r=r)
        assert not rep.converged
        assert rep.reason.startswith("linear solve failed: relative residual")

    @pytest.mark.parametrize("block", ["full", "phase_field"])
    @pytest.mark.parametrize("kind", schemes.SCHEME_KINDS)
    def test_parameters_sharing_a_mesh(self, kind, block):
        # Patterns are cached on the mesh; data depending on tau or m must
        # not be, or the second context on a shared mesh would reuse it.
        def increment(mesh, **params):
            ctx, state = random_ctx(6, kind, mesh=mesh, **params)
            if block == "full":
                r = schemes.residual(state, ctx)
            else:
                r = schemes.ch_residual(state, ctx)
            return solvers._newton_solve(self.matrix(ctx, state, block), r, ctx)

        shared = grid.build_mesh(6)
        increment(shared)
        dx_shared = increment(shared, tau=3e-4, m=2.5)
        dx_fresh = increment(grid.build_mesh(6), tau=3e-4, m=2.5)
        assert np.abs(dx_fresh).max() > 0
        assert np.allclose(dx_shared, dx_fresh, rtol=1e-12, atol=0.0)


class TestLaggedLU:
    """Exact Newton solves with the latest saddle LU as GMRES preconditioner."""

    cases = [
        (kind, block) for kind in schemes.SCHEME_KINDS for block in ("full", "phase_field")
    ]

    @staticmethod
    def system(ctx, state, block):
        """The saddle matrix and the residual of a Newton step at ``state``."""
        if block == "full":
            return schemes.jacobian(state, ctx), schemes.residual(state, ctx)
        return schemes.ch_jacobian(state, ctx), schemes.ch_residual(state, ctx)

    def held(self, ctx, other, block):
        """A LaggedLU holding the LU at ``other``, and its count of solves."""
        lagged = solvers.LaggedLU()
        solve = lagged.factor(self.system(ctx, other, block)[0])
        solves = []
        lagged.solve = lambda b: solves.append(1) or solve(b)
        return lagged, solves

    @staticmethod
    def count_factors(monkeypatch):
        import scipy.sparse.linalg as spla

        calls, splu = [], spla.splu
        monkeypatch.setattr(spla, "splu", lambda *a, **k: calls.append(1) or splu(*a, **k))
        return calls

    @pytest.mark.parametrize("kind, block", cases)
    def test_held_lu_of_a_nearby_state(self, kind, block, monkeypatch):
        ctx, state = random_ctx(8, kind)
        near = state.copy()
        rng = np.random.Generator(np.random.PCG64(3))
        near.phi += 1e-3 * rng.normal(size=near.phi.size)
        near.mu += 1e-3 * rng.normal(size=near.mu.size)
        lagged, solves = self.held(ctx, near, block)
        S, r = self.system(ctx, state, block)
        fresh = solvers._newton_solve(S, r, ctx)
        factors = self.count_factors(monkeypatch)
        dx = solvers._newton_solve(S, r, ctx, lagged)
        assert factors == []
        assert 1 <= len(solves) <= solvers._LAGGED_GMRES_STEPS
        J = oracle_jacobian(state, ctx, block)
        assert np.linalg.norm(J @ dx + r) <= 1e-10 * np.linalg.norm(r)
        assert np.linalg.norm(dx - fresh) <= 1e-9 * np.linalg.norm(fresh)

    @pytest.mark.parametrize("kind, block", cases)
    def test_held_lu_of_a_distant_state_is_replaced(self, kind, block, monkeypatch):
        ctx, state = random_ctx(8, kind)
        far = ctx.prev.copy()
        far.phi = -far.phi
        lagged, solves = self.held(ctx, far, block)
        S, r = self.system(ctx, state, block)
        fresh = solvers._newton_solve(S, r, ctx)
        factors = self.count_factors(monkeypatch)
        dx = solvers._newton_solve(S, r, ctx, lagged)
        # GMRES gives up once it stagnates, before its step cap
        attempted = len(solves)
        assert 1 <= attempted < solvers._LAGGED_GMRES_STEPS
        assert len(factors) == 1
        assert np.array_equal(dx, fresh)
        # the new LU is held: the same matrix again takes no factorization
        solvers._newton_solve(S, r, ctx, lagged)
        assert len(factors) == 1
        assert len(solves) == attempted

    def test_held_lu_of_another_size_is_dropped(self, monkeypatch):
        ctx, state = random_ctx(8, "semi_implicit")
        lagged, solves = self.held(ctx, state, "phase_field")
        S, r = self.system(ctx, state, "full")
        fresh = solvers._newton_solve(S, r, ctx)
        factors = self.count_factors(monkeypatch)
        dx = solvers._newton_solve(S, r, ctx, lagged)
        assert solves == []
        assert len(factors) == 1
        assert lagged.size == S.shape[0]
        assert np.array_equal(dx, fresh)

    def test_non_finite_matrix_fails_the_solve(self):
        ctx, state = random_ctx(4, "semi_implicit")
        lagged, _ = self.held(ctx, state, "phase_field")
        S, r = self.system(ctx, state, "phase_field")
        S.data[:] = np.nan
        with pytest.raises(grid.SingularSystemError):
            solvers._newton_solve(S, r, ctx, lagged)

    def test_alternating_minimization_bitwise_deterministic(self):
        ctx, prev = midsplit_ctx()
        s1, r1 = solvers.alternating_minimization(ctx, prev, anderson_depth=2)
        s2, r2 = solvers.alternating_minimization(ctx, prev, anderson_depth=2)
        assert np.array_equal(s1.pack(), s2.pack())
        assert r1 == r2

    def test_fewer_block_factorizations_than_inner_iterations(self, monkeypatch):
        factor_saddle, newton_ch_block = solvers._factor_saddle, solvers.newton_ch_block

        def step(gmres_steps):
            monkeypatch.setattr(solvers, "_LAGGED_GMRES_STEPS", gmres_steps)
            factors, inner = [], []
            monkeypatch.setattr(
                solvers, "_factor_saddle", lambda S: factors.append(1) or factor_saddle(S)
            )

            def counted_block(*args, **kwargs):
                state, report = newton_ch_block(*args, **kwargs)
                inner.append(report.iterations)
                return state, report

            monkeypatch.setattr(solvers, "newton_ch_block", counted_block)
            ctx, prev = midsplit_ctx(n=16)
            state, rep = solvers.alternating_minimization(ctx, prev, anderson_depth=2)
            assert rep.converged
            energy = schemes.free_energy(state, ctx.params).total
            return len(factors), sum(inner), rep.iterations, energy

        factors, inner, outer, energy = step(solvers._LAGGED_GMRES_STEPS)
        factors0, inner0, outer0, energy0 = step(0)
        assert factors < inner
        assert factors0 == inner0
        assert outer == outer0
        assert abs(energy - energy0) <= 1e-12 * abs(energy0)


class TestRunLongLaggedLU:
    """``harness.run_simulation`` holds one LaggedLU for all its steps."""

    configs = {
        "implicit-monolithic": dict(scheme="implicit", strategy="monolithic"),
        "semi-implicit-am": dict(
            scheme="semi_implicit", strategy="alternating", anderson_depth=2
        ),
    }

    @staticmethod
    def run(monkeypatch, config, per_step):
        """The run's summary and count of saddle factorizations; with
        ``per_step`` every step makes its own LaggedLU."""
        factor_saddle, solve_step = solvers._factor_saddle, solvers.solve_step
        factors = []
        with monkeypatch.context() as mp:
            mp.setattr(
                solvers, "_factor_saddle", lambda S: factors.append(1) or factor_saddle(S)
            )
            if per_step:
                mp.setattr(
                    solvers, "solve_step",
                    lambda ctx, initial, lagged, **kwargs: solve_step(ctx, initial, **kwargs),
                )
            summary = harness.run_simulation(config)
        return summary, len(factors)

    @pytest.mark.parametrize("name", configs)
    def test_fewer_factorizations_same_steps(self, name, monkeypatch):
        config = harness.RunConfig(
            n=8, t_final=4e-5, init="random", seed=5, **self.configs[name]
        )
        held, held_factors = self.run(monkeypatch, config, per_step=False)
        fresh, fresh_factors = self.run(monkeypatch, config, per_step=True)
        assert held.completed and fresh.completed
        assert len(held.steps) == 5
        assert held_factors < fresh_factors
        assert [s.iterations for s in held.steps] == [s.iterations for s in fresh.steps]
        assert np.allclose(held.energies, fresh.energies, rtol=1e-12, atol=0.0)


class TestElasticityBlock:
    def test_zero_phi_zero_force(self):
        ctx, prev = midsplit_ctx()
        state = schemes.State.zeros(ctx.mesh)
        solvers.solve_elasticity_block(ctx, state)
        assert np.abs(state.u).max() < 1e-12

    def test_constant_phi_against_dense_solve(self):
        # phi = c with zero boundary displacement, dense oracle on n=4
        mesh = grid.build_mesh(4)
        law = materials.ElasticLaw(heterogeneous=False)
        params = materials.ModelParams(elastic=law)
        prev = schemes.State.zeros(mesh)
        prev.phi[:] = 0.5
        ctx = schemes.SchemeContext(
            prev=prev, params=params, scheme_kind="homogeneous"
        )
        state = prev.copy()
        solvers.solve_elasticity_block(ctx, state)

        A = grid.assemble_vector_elasticity(mesh, law.c_minus).toarray()
        G = grid.assemble_coupling(
            mesh, law.xi * (np.array([1.0, 1.0, 0.0]) @ law.c_minus)
        ).toarray()
        rhs = G.T @ prev.phi
        c = ctx.mesh.constrained_u_dofs
        keep = np.setdiff1d(np.arange(2 * mesh.node_count), c)
        u = np.zeros(2 * mesh.node_count)
        u[keep] = np.linalg.solve(A[np.ix_(keep, keep)], rhs[keep])
        assert np.allclose(state.u, u, atol=1e-10)

    def test_homogeneous_laws_sharing_a_mesh(self):
        # The operators and LU of a homogeneous law are cached on the mesh;
        # a second law with another c_minus must not reuse the first's.
        def solve(mesh, law):
            params = materials.ModelParams(elastic=law)
            prev = schemes.State.zeros(mesh)
            prev.phi = np.tanh((0.5 - mesh.nodes[:, 1]) / (np.sqrt(2) * params.ell))
            ctx = schemes.SchemeContext(
                prev=prev, params=params, scheme_kind="homogeneous"
            )
            state = prev.copy()
            solvers.solve_elasticity_block(ctx, state)
            return state.u, schemes.residual(state, ctx)

        shared = grid.build_mesh(6)
        solve(shared, materials.ElasticLaw(heterogeneous=False))
        soft = materials.ElasticLaw(
            c_minus=materials.C_PLUS_DEFAULT, heterogeneous=False
        )
        u_shared, r_shared = solve(shared, soft)
        u_fresh, r_fresh = solve(grid.build_mesh(6), soft)
        assert np.abs(u_fresh).max() > 0
        assert np.allclose(u_shared, u_fresh, rtol=1e-12, atol=0.0)
        assert np.allclose(r_shared, r_fresh, rtol=1e-12, atol=1e-14)

    def test_bitwise_deterministic(self):
        ctx, prev = midsplit_ctx()
        s1, s2 = prev.copy(), prev.copy()
        solvers.solve_elasticity_block(ctx, s1)
        solvers.solve_elasticity_block(ctx, s2)
        assert np.array_equal(s1.u, s2.u)


class TestAlternatingMinimization:
    def test_converges(self):
        ctx, prev = midsplit_ctx()
        state, rep = solvers.alternating_minimization(ctx, prev)
        assert rep.converged
        assert rep.residual_norms[-1] <= 1e-6

    @pytest.mark.parametrize("chord, cap", [(False, 50), (True, 200)])
    def test_phase_field_block_gets_the_outer_rule(self, monkeypatch, chord, cap):
        ctx, prev = midsplit_ctx()
        seen, block = [], solvers.newton_ch_block

        def recording(ctx, state, **kwargs):
            seen.append((kwargs["stopping"], kwargs["max_iter"]))
            return block(ctx, state, **kwargs)

        monkeypatch.setattr(solvers, "newton_ch_block", recording)
        rule = solvers.StoppingRule(1e-7)
        _, rep = solvers.alternating_minimization(ctx, prev, stopping=rule, chord=chord)
        assert rep.converged and seen
        assert all(stopping is rule and max_iter == cap for stopping, max_iter in seen)

    def test_tight_tolerance_reaches_every_solve(self):
        ctx, prev = midsplit_ctx(n=8)
        rule = solvers.StoppingRule(1e-9)
        _, rep = solvers.alternating_minimization(ctx, prev, stopping=rule)
        r = rep.residual_norms
        assert rep.converged
        assert r[-1] <= max(1e-9, 1e-9 * r[0])

    def test_agrees_with_monolithic(self):
        ctx, prev = midsplit_ctx()
        s_am, _ = solvers.alternating_minimization(ctx, prev)
        s_nw, _ = solvers.newton_monolithic(ctx, prev)
        M = ctx.mesh.mass
        d = s_am.phi - s_nw.phi
        assert np.sqrt(d @ (M @ d)) <= 1e-5

    def test_potential_descent(self):
        ctx, prev = midsplit_ctx(n=12)
        _, rep = solvers.alternating_minimization(ctx, prev, track_potential=True)
        p = np.array(rep.potential_history)
        slack = 1e-10 * max(1.0, np.abs(p).max())
        assert np.all(np.diff(p) <= slack), np.diff(p)

    def test_chord_matches_exact_newton_solution(self):
        ctx, prev = midsplit_ctx()
        s1, _ = solvers.alternating_minimization(ctx, prev, chord=True)
        s2, _ = solvers.alternating_minimization(ctx, prev, chord=False)
        assert np.abs(s1.phi - s2.phi).max() < 1e-8

    def test_runs_on_implicit_scheme(self):
        ctx, prev = midsplit_ctx(kind="implicit")
        state, rep = solvers.alternating_minimization(ctx, prev)
        assert rep.converged

    def test_inner_failure_reported(self, monkeypatch):
        ctx, prev = midsplit_ctx()
        monkeypatch.setattr(solvers, "_INNER_MAX_ITER", {False: 1, True: 1})
        state, rep = solvers.alternating_minimization(ctx, prev)
        assert not rep.converged
        assert rep.reason.startswith("phase-field block failed")

    def test_nonconvergence_reported_not_raised(self):
        ctx, prev = midsplit_ctx()
        state, rep = solvers.alternating_minimization(ctx, prev, max_iter=1)
        assert not rep.converged
        assert rep.iterations == 1
        assert rep.reason

    def test_mass_conserved(self):
        ctx, prev = midsplit_ctx()
        state, rep = solvers.alternating_minimization(ctx, prev)
        M = ctx.mesh.mass
        ones = np.ones(ctx.mesh.node_count)
        drift = ones @ (M @ (state.phi - prev.phi))
        assert abs(drift) <= 1e-9


def test_solve_step_dispatch():
    ctx, prev = midsplit_ctx()
    s1, _ = solvers.solve_step(ctx, prev, strategy="monolithic")
    s2, _ = solvers.solve_step(ctx, prev, strategy="alternating")
    assert np.abs(s1.phi - s2.phi).max() < 1e-4
    with pytest.raises(ValueError):
        solvers.solve_step(ctx, prev, strategy="hybrid")


def test_effective_iterations_counts_state_changing_passes():
    ctx, prev = midsplit_ctx()
    _, rep = solvers.alternating_minimization(ctx, prev)
    assert 1 <= rep.effective_iterations <= rep.iterations
    want = sum(1 for inc in rep.increment_norms if sum(inc) > rep.increment_floor)
    assert rep.effective_iterations == max(want, 1)
