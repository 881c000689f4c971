"""Residual/Jacobian consistency, energies and step potentials.

Independent oracles: finite-difference Jacobians at random and at
hypothesis-generated states, residuals and operators from the per-point
stiffness tensors of ``ElasticLaw.tensor``, a per-element 2x2 Gauss
evaluation of the free energy, a from-scratch evaluation of the elastic
energy derivative, and finite-difference gradients of the step potential
restricted to mean-zero directions.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import cahnlarche as cl
from cahnlarche import grid, materials, schemes, solvers
from cahnlarche.grid import I_VOIGT


def random_state(mesh, rng, scale=1.0):
    return schemes.State(
        np.concatenate([
            rng.uniform(-1.5 * scale, 1.5 * scale, mesh.node_count),
            rng.normal(0.0, scale, mesh.node_count),
            rng.normal(0.0, 0.1 * scale, 2 * mesh.node_count),
        ]),
        mesh,
    )


def law_for(kind, xi=1.0):
    """The default law, or for the homogeneous kind one with C_plus = C_minus."""
    c_plus = materials.C_MINUS_DEFAULT if kind == "homogeneous" else materials.C_PLUS_DEFAULT
    return materials.ElasticLaw(xi=xi, c_plus=c_plus)


def make_ctx(mesh, kind, rng, gamma=5.0, xi=1.0):
    law = law_for(kind, xi)
    params = materials.ModelParams(gamma=gamma, elastic=law)
    return schemes.SchemeContext(
        prev=random_state(mesh, rng), params=params, scheme_kind=kind
    )


def per_point_elasticity(mesh, C):
    """int (C eps(u)) : eps(v) dx from a per-point (n_elem, nq, 3, 3) C,
    element by element, summed by scipy's COO conversion."""
    B = mesh.b_matrices
    mats = np.einsum("q,qca,eqcd,qdb->eab", mesh.qp_weights, B, C, B)
    rows = np.repeat(mesh.u_dofs, 8, axis=1)
    cols = np.tile(mesh.u_dofs, (1, 8))
    n = 2 * mesh.node_count
    return sp.coo_matrix((mats.ravel(), (rows.ravel(), cols.ravel())), (n, n)).tocsr()


def per_point_coupling(mesh, vec):
    """G[i, a] = int p_i (v . B_a) dx from per-point rows (n_elem, nq, 3)."""
    mats = np.einsum(
        "q,qi,eqc,qca->eia", mesh.qp_weights, mesh.shape_vals, vec, mesh.b_matrices
    )
    rows = np.repeat(mesh.elements, 8, axis=1)
    cols = np.tile(mesh.u_dofs, (1, 4))
    shape = (mesh.node_count, 2 * mesh.node_count)
    return sp.coo_matrix((mats.ravel(), (rows.ravel(), cols.ravel())), shape).tocsr()


def fd_jacobian(state, ctx, eps=1e-6):
    x0 = state.x
    J = np.empty((x0.size, x0.size))
    for j in range(x0.size):
        xp, xm = x0.copy(), x0.copy()
        xp[j] += eps
        xm[j] -= eps
        rp = schemes.residual(schemes.State(xp, ctx.mesh), ctx)
        rm = schemes.residual(schemes.State(xm, ctx.mesh), ctx)
        J[:, j] = (rp - rm) / (2 * eps)
    return J


def saddle_order(ctx, size):
    """Rows, columns and row scales that take a (phi, mu[, u]) matrix of
    ``size`` rows to the saddle form of ``schemes.jacobian``: rows
    (mu, tau phi, -u) and columns (phi, mu, u), u on the free dofs only,
    in the order of the mesh's saddle pattern."""
    nn = ctx.mesh.node_count
    free = 2 * nn + np.setdiff1d(
        np.arange(2 * nn), ctx.mesh.constrained_u_dofs
    )
    free = free[: size - 2 * nn]  # none for the (phi, mu) block
    rows = np.concatenate([np.arange(nn, 2 * nn), np.arange(nn), free])
    cols = np.concatenate([np.arange(2 * nn), free])
    scale = np.concatenate(
        [np.ones(nn), np.full(nn, ctx.params.tau), -np.ones(free.size)]
    )
    # the pattern's order lists the same columns, grouped by node
    order = ctx.mesh.saddle_pattern(size > 2 * nn).order
    perm = np.searchsorted(cols, order)
    assert np.array_equal(cols[perm], order)
    return rows[perm], cols[perm], scale[perm]


def expand_saddle(state, ctx):
    """The (phi, mu, u) Jacobian that the saddle matrix S of
    ``schemes.jacobian`` stands for, as a dense array.

    Entries in S's columns are read from S, its row order and scales
    undone. S has no columns for the constrained u dofs, because Newton
    increments are zero there; the derivatives by them are read from the
    coupling and u block data that S is assembled from, which span every
    u dof. The constrained dofs get identity rows, the derivative of their
    value residual u_c.
    """
    mesh = ctx.mesh
    nn = mesh.node_count
    rows, cols, scale = saddle_order(ctx, 4 * nn)
    J = np.zeros((4 * nn, 4 * nn))
    J[np.ix_(rows, cols)] = schemes.jacobian(state, ctx).toarray() / scale[:, None]

    def on_pattern(data, kind):
        p = mesh.pattern(kind)
        return sp.csr_matrix((data, p.indices, p.indptr), shape=p.shape).toarray()

    blocks = schemes._jacobian_blocks(state, ctx, u_rows=True)
    c = 2 * ctx.mesh.node_count + ctx.mesh.constrained_u_dofs
    free = np.setdiff1d(np.arange(2 * nn, 4 * nn), c)
    J[nn : 2 * nn, c] = on_pattern(blocks["mu_u"], "coupling")[:, c - 2 * nn]
    J[np.ix_(free, c)] = on_pattern(blocks["u_u"], "vector")[
        np.ix_(free - 2 * nn, c - 2 * nn)
    ]
    J[c, c] = 1.0
    return J


@pytest.mark.parametrize("kind", schemes.SCHEME_KINDS)
def test_jacobian_matches_finite_differences(kind):
    """Acceptance: 10 random states per scheme, relative error <= 1e-5."""
    mesh = grid.build_mesh(4)
    rng = np.random.Generator(np.random.PCG64(42))
    worst = 0.0
    for _ in range(10):
        ctx = make_ctx(mesh, kind, rng)
        state = random_state(mesh, rng)
        J = expand_saddle(state, ctx)
        Jfd = fd_jacobian(state, ctx)
        err = np.abs(J - Jfd).max() / np.abs(J).max()
        worst = max(worst, err)
    print(f"[{kind}] max FD Jacobian relative error: {worst:.2e}")
    assert worst <= 1e-5


def away_from_kinks(values, theta):
    """Whether every value is at least 1e-3 from |phi| = 1 and |phi| = theta,
    where pi' and Psi_c'' jump."""
    a = np.abs(np.asarray(values))
    return bool(np.all(np.abs(a - 1.0) >= 1e-3) and np.all(np.abs(a - theta) >= 1e-3))


@st.composite
def jacobian_cases(draw, kind):
    """A context and state of scheme ``kind`` on an n x n mesh, n in
    {2, 3, 4}, with phi in [-2.5, 2.5] away from the kinks at the nodes and
    at the quadrature points."""
    mesh = grid.build_mesh(draw(st.sampled_from([2, 3, 4])))
    nn = mesh.node_count
    theta = materials.ModelParams().theta

    def field(size, bound, phi=False):
        x = st.floats(-bound, bound, allow_nan=False, allow_infinity=False)
        if phi:
            x = x.filter(lambda v: away_from_kinks(v, theta))
        return np.array(draw(st.lists(x, min_size=size, max_size=size)))

    xi = draw(st.sampled_from([0.5, 1.0, 2.0]))
    law = law_for(kind, xi)
    params = materials.ModelParams(gamma=5.0, elastic=law)
    prev = schemes.State(
        np.concatenate([field(nn, 1.5), field(nn, 3.0), field(2 * nn, 0.2)]), mesh
    )
    ctx = schemes.SchemeContext(prev=prev, params=params, scheme_kind=kind)
    state = schemes.State(
        np.concatenate([field(nn, 2.5, phi=True), field(nn, 3.0), field(2 * nn, 0.2)]),
        mesh,
    )
    assume(away_from_kinks(grid.scalar_at_qp(mesh, state.phi), theta))
    return ctx, state


@pytest.mark.parametrize("kind", schemes.SCHEME_KINDS)
@settings(
    max_examples=30, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_jacobian_matches_finite_differences_at_generated_states(kind, data):
    """The fixed-seed check above, at hypothesis-generated states."""
    ctx, state = data.draw(jacobian_cases(kind))
    J = expand_saddle(state, ctx)
    Jfd = fd_jacobian(state, ctx)
    assert np.abs(J - Jfd).max() <= 1e-5 * np.abs(J).max()


@pytest.mark.parametrize("kind", schemes.SCHEME_KINDS)
@settings(
    max_examples=30, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_newton_steps_conserve_mass_at_generated_states(kind, data):
    """One exact monolithic Newton step, one exact phase-field block step
    and one chord step from a hypothesis-generated state whose phi holds the
    mass of phi^{n-1} keep that mass to criterion 8b's 1e-9: summed over
    its phi rows, every Newton matrix is 1^T M / tau in the phi columns and
    zero in the others."""
    ctx, state = data.draw(jacobian_cases(kind))
    M, ones = ctx.mesh.mass, np.ones(ctx.mesh.node_count)
    mass = lambda st_: float(ones @ (M @ st_.phi))
    state.phi[:] += (mass(ctx.prev) - mass(state)) / float(ones @ (M @ ones))
    r = schemes.ch_residual(state, ctx)
    for new, rep in (
        solvers.newton_monolithic(ctx, state, max_iter=1),
        solvers.newton_ch_block(ctx, state, r=r, max_iter=1),
        solvers.newton_ch_block(
            ctx, state, r=r, solve=solvers._chord(ctx, solvers.LaggedLU()), max_iter=1
        ),
    ):
        assert len(rep.increment_norms) == 1, rep.reason
        assert abs(mass(new) - mass(ctx.prev)) <= 1e-9


def test_saddle_structure_semi_implicit():
    # off-diagonal coupling blocks are negative transposes of each other
    mesh = grid.build_mesh(4)
    rng = np.random.Generator(np.random.PCG64(3))
    ctx = make_ctx(mesh, "semi_implicit", rng)
    state = random_state(mesh, rng)
    J = expand_saddle(state, ctx)
    nn = mesh.node_count
    J_mu_u = J[nn : 2 * nn, 2 * nn :]
    J_u_phi = J[2 * nn :, :nn]
    # remove the Dirichlet-identity rows of the u block before comparing
    free = np.setdiff1d(
        np.arange(2 * nn), ctx.mesh.constrained_u_dofs
    )
    assert np.allclose(J_mu_u[:, free], -J_u_phi[free, :].T, atol=1e-12)


def quadrature_residual(state, ctx):
    """Residual of a scheme from fields at quadrature points: the stiffness
    tensors of ``ElasticLaw.tensor`` (C(phi^{n-1}), or C(phi) and C'(phi)
    if implicit) and the coupling term evaluated pointwise, then integrated
    against the test functions."""
    mesh, params = ctx.mesh, ctx.params
    law, dw = params.elastic, params.double_well
    M, K = mesh.mass, mesh.stiffness
    load = lambda values: grid.assemble_scalar_load(mesh, values)
    phi_qp = grid.scalar_at_qp(mesh, state.phi)
    phi_prev_qp = grid.scalar_at_qp(mesh, ctx.prev.phi)
    e = grid.strain_at_qp(mesh, state.u) - law.xi * phi_qp[..., None] * I_VOIGT
    if ctx.scheme_kind == "implicit":
        C = law.tensor(phi_qp)
        coupling = 0.5 * np.einsum(
            "eqc,eqcd,eqd->eq", e, law.tensor_prime(phi_qp), e
        ) - law.xi * np.einsum("c,eqcd,eqd->eq", I_VOIGT, C, e)
    else:
        C = law.tensor(phi_prev_qp)
        coupling = schemes.semi_implicit_coupling_term(state, ctx)

    r_phi = M @ ((state.phi - ctx.prev.phi) / params.tau) + params.m * (K @ state.mu)
    r_mu = (
        M @ state.mu
        - params.gamma * params.ell * (K @ state.phi)
        - (params.gamma / params.ell)
        * load(dw.psi_c_prime(phi_qp) - dw.psi_e_prime(phi_prev_qp))
        - load(coupling)
    )
    sig = np.einsum("eqcd,eqd->eqc", C, e)
    elem = np.einsum("q,eqc,qca->ea", mesh.qp_weights, sig, mesh.b_matrices)
    r_u = np.zeros(2 * mesh.node_count)
    np.add.at(r_u, mesh.u_dofs.ravel(), elem.ravel())

    out = np.concatenate([r_phi, r_mu, r_u])
    c = 2 * ctx.mesh.node_count + ctx.mesh.constrained_u_dofs
    out[c] = state.x[c]
    return out


@pytest.mark.parametrize("kind", schemes.SCHEME_KINDS)
def test_residual_matches_quadrature_form(kind):
    """The residual equals the quadrature-point form of the per-point
    stiffness tensors block by block: the matvec residual of the homogeneous
    and semi-implicit schemes, including the explicit coupling term of the
    previous state, which the finite-difference Jacobian cannot see, and
    the implicit scheme's stress and elastic derivative from pi.
    ``ch_residual`` is the residual's (phi, mu) rows bit for bit."""
    mesh = grid.build_mesh(5)
    rng = np.random.Generator(np.random.PCG64(17))
    law = law_for(kind, xi=0.8)
    params = materials.ModelParams(gamma=5.0, elastic=law)
    nn = mesh.node_count
    for _ in range(3):
        ctx = schemes.SchemeContext(
            prev=random_state(mesh, rng), params=params, scheme_kind=kind
        )
        state = random_state(mesh, rng)
        want = quadrature_residual(state, ctx)
        got = schemes.residual(state, ctx)
        got_ch = schemes.ch_residual(state, ctx)
        for block in (slice(0, nn), slice(nn, 2 * nn), slice(2 * nn, 4 * nn)):
            tol = 1e-12 * np.abs(want[block]).max()
            assert np.abs(got[block] - want[block]).max() <= tol
        # one kernel: the phase-field rows are the same computation
        assert np.array_equal(got_ch, got[: 2 * nn])


@pytest.mark.parametrize("heterogeneous", [True, False])
def test_weighted_assembly_matches_per_point_tensors(heterogeneous):
    """Elasticity and coupling operators assembled from pi(phi) equal those
    of the per-point tensors C(phi) = ``ElasticLaw.tensor``, with phi in
    [-1.5, 1.5], so the clamp of pi is active: the semi-implicit operators
    at phi^{n-1} and the implicit Jacobian's u and coupling blocks at phi."""
    mesh = grid.build_mesh(4)
    rng = np.random.Generator(np.random.PCG64(23))
    law = law_for("semi_implicit" if heterogeneous else "homogeneous", xi=0.8)
    params = materials.ModelParams(elastic=law)
    prev, state = random_state(mesh, rng), random_state(mesh, rng)
    assert np.abs(prev.phi).max() > 1 and np.abs(state.phi).max() > 1

    def close(got, want):
        got, want = sp.csr_matrix(got).toarray(), sp.csr_matrix(want).toarray()
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def on_pattern(data, kind):
        p = mesh.pattern(kind)
        return sp.csr_matrix((data, p.indices, p.indptr), shape=p.shape)

    ctx = schemes.SchemeContext(prev=prev, params=params, scheme_kind="semi_implicit")
    C = law.tensor(grid.scalar_at_qp(mesh, prev.phi))
    close(ctx.elastic_matrix_prev, per_point_elasticity(mesh, C))
    swelling = law.xi * np.einsum("c,eqcd->eqd", I_VOIGT, C)
    close(ctx.coupling_prev, per_point_coupling(mesh, swelling))
    ici = law.xi**2 * np.einsum("c,eqcd,d->eq", I_VOIGT, C, I_VOIGT)
    close(ctx.coupled_mass_prev, grid.assemble_weighted_mass(mesh, ici))

    ctx = schemes.SchemeContext(prev=prev, params=params, scheme_kind="implicit")
    blocks = schemes._jacobian_blocks(state, ctx, u_rows=True)
    phi_qp = grid.scalar_at_qp(mesh, state.phi)
    C, Cp = law.tensor(phi_qp), law.tensor_prime(phi_qp)
    e = grid.strain_at_qp(mesh, state.u) - law.xi * phi_qp[..., None] * I_VOIGT
    w = np.einsum("eqc,eqcd->eqd", e, Cp) - law.xi * np.einsum("c,eqcd->eqd", I_VOIGT, C)
    close(on_pattern(blocks["u_u"], "vector"), per_point_elasticity(mesh, C))
    close(on_pattern(blocks["mu_u"], "coupling"), -per_point_coupling(mesh, w))


def test_implicit_kernels_form_no_stiffness_tensor(monkeypatch):
    """The implicit residuals and Jacobians, the free energy and the step
    potential evaluate C(phi) through pi alone: none of them calls
    ``ElasticLaw.tensor``, ``tensor_prime`` or ``tensor_second``."""
    calls = []
    for name in ("tensor", "tensor_prime", "tensor_second"):
        def counted(self, phi, _name=name, _f=getattr(materials.ElasticLaw, name)):
            calls.append(_name)
            return _f(self, phi)

        monkeypatch.setattr(materials.ElasticLaw, name, counted)
    mesh = grid.build_mesh(4)
    rng = np.random.Generator(np.random.PCG64(8))
    ctx = make_ctx(mesh, "implicit", rng)
    state = random_state(mesh, rng)
    schemes.residual(state, ctx)
    schemes.jacobian(state, ctx)
    schemes.ch_residual(state, ctx)
    schemes.ch_jacobian(state, ctx)
    schemes.free_energy(state, ctx.params)
    frozen = make_ctx(mesh, "semi_implicit", rng)
    shifted = state.copy()  # an increment of zero mass
    mass = mesh.mass.sum(axis=0).A1
    shifted.phi[:] += mass @ (frozen.prev.phi - state.phi) / mass.sum()
    schemes.step_potential(shifted, frozen)
    assert calls == []
    ctx.params.elastic.eigenvalue_bounds()  # the counters do count
    assert calls == ["tensor"]


@pytest.mark.parametrize("kind", schemes.SCHEME_KINDS)
def test_homogeneous_law_is_pi_zero(kind):
    """On one law with C_plus = C_minus, the homogeneous kind gives bitwise
    the residuals, Jacobians, frozen operators and energies of
    ``semi_implicit``: it is that scheme of a law whose pi Delta C is zero,
    with no formulas of its own. Each context is on a mesh of its own, so
    each builds the operators that a law with Delta C = 0 keeps on the mesh;
    the other kinds are compared with themselves that way. The operators
    also match the constant-C formulas, to round-off."""
    mesh = grid.build_mesh(6)
    rng = np.random.Generator(np.random.PCG64(6))
    prev, state = random_state(mesh, rng), random_state(mesh, rng)
    law = law_for("homogeneous")
    params = materials.ModelParams(elastic=law)
    kinds = (kind, "semi_implicit" if kind == "homogeneous" else kind)
    ctxs = [
        schemes.SchemeContext(
            prev=schemes.State(prev.x.copy(), m), params=params, scheme_kind=k
        )
        for m, k in zip((mesh, grid.build_mesh(6)), kinds)
    ]

    def results(ctx):
        st = schemes.State(state.x.copy(), ctx.mesh)
        out = {
            "residual": schemes.residual(st, ctx),
            "jacobian": schemes.jacobian(st, ctx).data,
            "ch_jacobian": schemes.ch_jacobian(st, ctx).data,
            "elastic_matrix_prev": ctx.elastic_matrix_prev.data,
            "coupling_prev": ctx.coupling_prev.data,
            "coupled_mass_prev": ctx.coupled_mass_prev.data,
            "free_energy": schemes.free_energy(st, ctx.params),
        }
        if kind != "implicit":  # the convex schemes' frozen load and potential
            out["frozen_mu_load"] = ctx.frozen_mu_load
            shifted = st.copy()  # an increment of zero mass
            mass = mesh.mass.sum(axis=0).A1
            shifted.phi[:] += mass @ (prev.phi - st.phi) / mass.sum()
            out["step_potential"] = schemes.step_potential(shifted, ctx)
        return out

    homogeneous, semi_implicit = (results(ctx) for ctx in ctxs)
    for name, value in homogeneous.items():
        assert np.array_equal(value, semi_implicit[name]), name

    # the constant-C formulas of C = c_minus
    w, N, B = mesh.qp_weights, mesh.shape_vals, mesh.b_matrices
    ne = mesh.element_count
    elem = np.einsum("q,qca,cd,qdb->ab", w, B, law.c_minus, B)
    A = mesh.pattern("vector").assemble(np.broadcast_to(elem, (ne, 8, 8)))
    elem = np.einsum("q,qi,c,qca->ia", w, N, law.xi * (I_VOIGT @ law.c_minus), B)
    G = mesh.pattern("coupling").assemble(np.broadcast_to(elem, (ne, 4, 8)))
    ici = np.full((ne, 4), law.xi**2 * (I_VOIGT @ law.c_minus @ I_VOIGT))
    W = grid.assemble_weighted_mass(mesh, ici)
    refs = [("elastic_matrix_prev", A), ("coupling_prev", G), ("coupled_mass_prev", W)]
    if kind != "implicit":  # the chord matrix, ch_jacobian at the previous state
        p = ctxs[0].params
        psi_cc = grid.assemble_weighted_mass(
            mesh, p.double_well.psi_c_second(grid.scalar_at_qp(mesh, prev.phi))
        )
        M, K = mesh.mass.data, mesh.stiffness.data
        blocks = {
            "mu_phi": -p.gamma * p.ell * K - (p.gamma / p.ell) * psi_cc.data - W.data,
            "mu_mu": M,
            "phi_phi": M * (1 / p.tau),
            "phi_mu": p.m * K,
        }
        chord = mesh.saddle_pattern(full=False).matrix(blocks, p.tau)
        homogeneous["chord"] = schemes.ch_jacobian(prev.copy(), ctxs[0]).data
        refs.append(("chord", chord))
    for name, ref in refs:
        # entries that cancel to zero carry round-off of the operator's scale
        atol = 1e-13 * np.abs(ref.data).max()
        assert np.allclose(homogeneous[name], ref.data, rtol=1e-13, atol=atol), name


def test_residual_zero_at_trivial_state():
    mesh = grid.build_mesh(4)
    law = law_for("homogeneous")
    params = materials.ModelParams(elastic=law)
    prev = schemes.State.zeros(mesh)
    ctx = schemes.SchemeContext(prev=prev, params=params, scheme_kind="homogeneous")
    state = schemes.State.zeros(mesh)
    r = schemes.residual(state, ctx)
    # phi = mu = u = 0 and Psi_c'(0) = Psi_e'(0) = 0: exact equilibrium
    assert np.abs(r).max() < 1e-14


def test_coupling_term_matches_implicit_at_prev():
    # E^si(phi, u; phi, u) equals the fully implicit derivative
    mesh = grid.build_mesh(5)
    rng = np.random.Generator(np.random.PCG64(11))
    law = materials.ElasticLaw()
    params = materials.ModelParams(elastic=law)
    prev = random_state(mesh, rng)
    ctx = schemes.SchemeContext(prev=prev, params=params, scheme_kind="semi_implicit")
    si = schemes.semi_implicit_coupling_term(prev, ctx)
    phi_qp = grid.scalar_at_qp(mesh, prev.phi)
    eps_qp = grid.strain_at_qp(mesh, prev.u)
    full = schemes._implicit_elastic_qp(law, phi_qp, eps_qp)[1]
    assert np.allclose(si, full, atol=1e-12)


@pytest.mark.parametrize("kind", ["homogeneous", "semi_implicit"])
def test_frozen_mu_load_assembled_once(kind, monkeypatch):
    ctx = make_ctx(grid.build_mesh(4), kind, np.random.Generator(np.random.PCG64(4)))
    calls, load = [], grid.assemble_scalar_load
    monkeypatch.setattr(
        grid, "assemble_scalar_load", lambda *a: calls.append(1) or load(*a)
    )
    first = ctx.frozen_mu_load
    assert ctx.frozen_mu_load is first
    assert len(calls) == 2  # one for each of its two loads


@pytest.mark.parametrize("kind", ["homogeneous", "semi_implicit"])
def test_frozen_elasticity_is_the_step_factor(kind, monkeypatch):
    # A frozen scheme's elasticity solve at any state is the free block,
    # factor and coupling held for the step, with nothing assembled anew.
    rng = np.random.Generator(np.random.PCG64(5))
    ctx = make_ctx(grid.build_mesh(4), kind, rng)
    A, solve = ctx.elastic_factor_prev
    G = ctx.coupling_prev
    calls, assemble = [], grid.assemble_vector_elasticity
    monkeypatch.setattr(
        grid, "assemble_vector_elasticity", lambda *a: calls.append(1) or assemble(*a)
    )
    got = ctx.elasticity(random_state(ctx.mesh, rng))
    assert all(x is y for x, y in zip(got, (A, solve, G)))
    assert calls == []


def test_implicit_elasticity_assembles_at_the_state():
    # The implicit scheme's elasticity solve is built at pi(phi) of the
    # state it is given, not of phi^{n-1}.
    rng = np.random.Generator(np.random.PCG64(6))
    ctx = make_ctx(grid.build_mesh(4), "implicit", rng)
    state = random_state(ctx.mesh, rng)
    law, free = ctx.params.elastic, ctx.mesh.free_u_dofs
    pi = law.weight(grid.scalar_at_qp(ctx.mesh, state.phi))
    want_A = grid.assemble_vector_elasticity(ctx.mesh, law.c_minus, pi, law.delta)
    want_G = grid.assemble_coupling(ctx.mesh, law.swelling_row(pi))
    A, solve, G = ctx.elasticity(state)
    assert np.array_equal(A.toarray(), want_A[free][:, free].toarray())
    assert np.array_equal(G.toarray(), want_G.toarray())
    b = (G.T @ state.phi)[free]
    assert np.allclose(A @ solve(b), b, rtol=0.0, atol=1e-12 * np.abs(b).max())
    prev_A, _, _ = ctx.elasticity(ctx.prev)
    assert not np.array_equal(A.toarray(), prev_A.toarray())


def test_elastic_derivative_independent_oracle():
    # loop-based reimplementation of 0.5 e:C'e - xi I:Ce at a few points
    law = materials.ElasticLaw(xi=0.7)
    rng = np.random.Generator(np.random.PCG64(5))
    phi = rng.uniform(-1.2, 1.2, 6)
    eps = rng.normal(0, 1, (6, 3))
    got = schemes._implicit_elastic_qp(law, phi, eps)[1]
    for k in range(6):
        e = eps[k] - law.xi * phi[k] * I_VOIGT
        C = law.tensor(np.array([phi[k]]))[0]
        Cp = law.tensor_prime(np.array([phi[k]]))[0]
        want = 0.5 * e @ Cp @ e - law.xi * (I_VOIGT @ C @ e)
        assert got[k] == pytest.approx(want, rel=1e-12)


class TestFreeEnergy:
    def test_trivial_state(self):
        mesh = grid.build_mesh(4)
        law = materials.ElasticLaw()
        params = materials.ModelParams(elastic=law)
        e = schemes.free_energy(schemes.State.zeros(mesh), params)
        # Psi(0) = 1: chemical = gamma/ell, rest zero
        assert e.chemical == pytest.approx(params.gamma / params.ell, rel=1e-12)
        assert e.gradient == 0.0
        assert e.elastic == 0.0

    def test_against_fine_quadrature(self):
        """Midsplit profile energy vs an independent per-element evaluation
        on the 2x2 Gauss rule the schemes are assembled with."""
        mesh = grid.build_mesh(8)
        law = materials.ElasticLaw()
        params = materials.ModelParams(elastic=law)
        state = schemes.State.zeros(mesh)
        state.phi[:] = np.tanh((0.5 - mesh.nodes[:, 1]) / (np.sqrt(2) * params.ell))
        rng = np.random.Generator(np.random.PCG64(2))
        state.u[:] = 0.01 * rng.normal(size=2 * mesh.node_count)
        got = schemes.free_energy(state, params)

        # 2x2 tensor Gauss rule on the reference square
        pts, wts = np.polynomial.legendre.leggauss(2)
        pts = 0.5 * (pts + 1)
        wts = 0.5 * wts
        PX, PY = np.meshgrid(pts, pts)
        W = np.outer(wts, wts).ravel()
        ref_pts = np.stack([PX.ravel(), PY.ravel()], axis=-1)
        vals = grid.shape_values(ref_pts)
        grads = grid.shape_gradients(ref_pts) / mesh.h
        dw = params.double_well
        total = 0.0
        for e_idx in range(mesh.element_count):
            nodes = mesh.elements[e_idx]
            phi_q = vals @ state.phi[nodes]
            gphi_q = np.einsum("qid,i->qd", grads, state.phi[nodes])
            ue = state.u[mesh.u_dofs[e_idx]]
            # strain from the same shape gradients
            gx = grads[..., 0]
            gy = grads[..., 1]
            eps = np.stack(
                [
                    gx @ ue[0::2],
                    gy @ ue[1::2],
                    gy @ ue[0::2] + gx @ ue[1::2],
                ],
                axis=-1,
            )
            ee = eps - law.xi * phi_q[:, None] * I_VOIGT
            C = law.tensor(phi_q)
            dens = (
                params.gamma / params.ell * dw.psi(phi_q)
                + 0.5 * params.gamma * params.ell * np.sum(gphi_q**2, axis=1)
                + 0.5 * np.einsum("qc,qcd,qd->q", ee, C, ee)
            )
            total += mesh.h**2 * W @ dens
        assert got.total == pytest.approx(total, rel=1e-8)


class TestStepPotential:
    def test_dual_term_zero_at_prev(self):
        mesh = grid.build_mesh(6)
        law = materials.ElasticLaw()
        params = materials.ModelParams(elastic=law)
        prev = schemes.State.zeros(mesh)
        prev.phi[:] = np.tanh((0.5 - mesh.nodes[:, 1]) / (np.sqrt(2) * params.ell))
        ctx = schemes.SchemeContext(
            prev=prev, params=params, scheme_kind="semi_implicit"
        )
        val = schemes.step_potential(prev, ctx)
        assert np.isfinite(val)

    def test_rejects_implicit_scheme(self):
        mesh = grid.build_mesh(4)
        law = materials.ElasticLaw()
        params = materials.ModelParams(elastic=law)
        prev = schemes.State.zeros(mesh)
        ctx = schemes.SchemeContext(prev=prev, params=params, scheme_kind="implicit")
        with pytest.raises(ValueError):
            schemes.step_potential(prev, ctx)

    def test_rejects_mean_violation(self):
        mesh = grid.build_mesh(4)
        law = materials.ElasticLaw()
        params = materials.ModelParams(elastic=law)
        prev = schemes.State.zeros(mesh)
        ctx = schemes.SchemeContext(
            prev=prev, params=params, scheme_kind="semi_implicit"
        )
        bad = prev.copy()
        bad.phi[:] += 0.5  # constant shift violates mass constraint
        with pytest.raises(ValueError):
            schemes.step_potential(bad, ctx)

    def test_gradient_matches_mu_equation(self):
        """FD gradient of the potential in mean-zero phi directions equals
        the mu-equation residual contribution (with mu eliminated through
        the phi-equation), verifying the sign normalization."""
        mesh = grid.build_mesh(5)
        law = materials.ElasticLaw()
        params = materials.ModelParams(elastic=law)
        rng = np.random.Generator(np.random.PCG64(9))
        prev = schemes.State(
            np.concatenate([
                np.tanh((0.5 - mesh.nodes[:, 1]) / (np.sqrt(2) * params.ell)),
                np.zeros(mesh.node_count),
                0.01 * rng.normal(size=2 * mesh.node_count),
            ]),
            mesh,
        )
        ctx = schemes.SchemeContext(
            prev=prev, params=params, scheme_kind="semi_implicit"
        )
        from cahnlarche.analysis import dual_norm
        from cahnlarche import analysis

        state = prev.copy()
        # mean-zero perturbation of phi
        M = mesh.mass
        d = rng.normal(size=mesh.node_count)
        ones = np.ones(mesh.node_count)
        d -= (ones @ (M @ d)) / (ones @ (M @ ones))
        state.phi[:] = prev.phi + 1e-3 * d

        # analytic gradient: dF/dphi[i] = (v/tau, p_i) + dE_c/dphi[i] + ...
        # where v represents the dual-norm term; assembled as
        # -(mu-equation spatial terms) with mu = -v/tau, i.e. the gradient
        # in direction d equals  -(r_mu - M mu) . d_hat with the multiplier
        # v/tau in place of -mu.  Build it directly:
        s = state.phi - prev.phi
        K = mesh.stiffness
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        a = M @ ones
        A = sp.bmat([[params.m * K, a[:, None]], [a[None, :], None]], format="csc")
        v = spla.splu(A).solve(np.concatenate([M @ s, [0.0]]))[:-1]
        # gradient of the remaining terms: evaluate r_mu with mu := -v/tau
        probe = state.copy()
        probe.mu[:] = -v / params.tau
        r = schemes.ch_residual(probe, ctx)
        grad = -r[mesh.node_count :]  # = (dE/dphi, p_i) - (mu, p_i)... sign below

        eps = 1e-5
        sp_, sm_ = state.copy(), state.copy()
        sp_.phi[:] = state.phi + eps * d
        sm_.phi[:] = state.phi - eps * d
        fd = (
            schemes.step_potential(sp_, ctx, mean_tol=1e-6)
            - schemes.step_potential(sm_, ctx, mean_tol=1e-6)
        ) / (2 * eps)
        got = grad @ d
        assert got == pytest.approx(fd, rel=1e-6)
