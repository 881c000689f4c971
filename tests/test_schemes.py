"""Residual/Jacobian consistency, energies and step potentials.

Independent oracles: finite-difference Jacobians at random states, a 4x4
Gauss quadrature evaluation of the free energy, a from-scratch evaluation
of the elastic energy derivative, and finite-difference gradients of the
step potential restricted to mean-zero directions.
"""

import numpy as np
import pytest
import scipy.sparse as sp

import cahnlarche as cl
from cahnlarche import grid, materials, schemes
from cahnlarche.grid import I_VOIGT


def random_state(mesh, rng, scale=1.0):
    return schemes.State(
        rng.uniform(-1.5 * scale, 1.5 * scale, mesh.node_count),
        rng.normal(0.0, scale, mesh.node_count),
        rng.normal(0.0, 0.1 * scale, 2 * mesh.node_count),
        mesh,
    )


def make_ctx(mesh, kind, rng, gamma=5.0, xi=1.0):
    het = kind != "homogeneous"
    law = materials.ElasticLaw(xi=xi, heterogeneous=het)
    params = materials.ModelParams(gamma=gamma, elastic=law)
    return schemes.SchemeContext(
        prev=random_state(mesh, rng), params=params, scheme_kind=kind
    )


def fd_jacobian(state, ctx, eps=1e-6):
    x0 = state.pack()
    J = np.empty((x0.size, x0.size))
    for j in range(x0.size):
        xp, xm = x0.copy(), x0.copy()
        xp[j] += eps
        xm[j] -= eps
        rp = schemes.residual(schemes.State.unpack(xp, ctx.mesh), ctx)
        rm = schemes.residual(schemes.State.unpack(xm, ctx.mesh), ctx)
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

    blocks = schemes._jacobian_blocks(state, ctx)
    c = 2 * ctx.mesh.node_count + ctx.mesh.constrained_u_dofs
    free = np.setdiff1d(np.arange(2 * nn, 4 * nn), c)
    J[nn : 2 * nn, c] = on_pattern(blocks["mu_u"], "coupling")[:, c - 2 * nn]
    J[np.ix_(free, c)] = -on_pattern(blocks["u_u"], "vector")[
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
    """Residual of the homogeneous / semi-implicit scheme from fields at
    quadrature points: C(phi^{n-1}) and the coupling term evaluated pointwise,
    then integrated against the test functions."""
    mesh, params = ctx.mesh, ctx.params
    law, dw = params.elastic, params.double_well
    M, K = mesh.mass, mesh.stiffness
    load = lambda values: grid.assemble_scalar_load(mesh, values)
    phi_qp = grid.scalar_at_qp(mesh, state.phi)
    phi_prev_qp = grid.scalar_at_qp(mesh, ctx.prev.phi)

    r_phi = (
        M @ ((state.phi - ctx.prev.phi) / params.tau)
        + params.m * (K @ state.mu)
        - M @ ctx.R
    )
    r_mu = (
        M @ state.mu
        - params.gamma * params.ell * (K @ state.phi)
        - (params.gamma / params.ell)
        * load(dw.psi_c_prime(phi_qp) - dw.psi_e_prime(phi_prev_qp))
        - load(schemes.semi_implicit_coupling_term(state, ctx))
    )
    e = grid.strain_at_qp(mesh, state.u) - law.xi * phi_qp[..., None] * I_VOIGT
    sig = np.einsum("eqcd,eqd->eqc", law.tensor(phi_prev_qp), e)
    elem = np.einsum("q,eqc,qca->ea", mesh.qp_weights, sig, mesh.b_matrices)
    r_u = np.zeros(2 * mesh.node_count)
    np.add.at(r_u, mesh.u_dofs.ravel(), elem.ravel())
    r_u[0::2] -= load(grid.scalar_at_qp(mesh, ctx.f[0::2]))
    r_u[1::2] -= load(grid.scalar_at_qp(mesh, ctx.f[1::2]))

    out = np.concatenate([r_phi, r_mu, r_u])
    c = 2 * ctx.mesh.node_count + ctx.mesh.constrained_u_dofs
    out[c] = state.pack()[c]
    return out


@pytest.mark.parametrize("kind", ["homogeneous", "semi_implicit"])
def test_residual_matches_quadrature_form(kind):
    """The matvec residual equals the quadrature-point form block by block,
    including the explicit coupling term of the previous state, which the
    finite-difference Jacobian cannot see."""
    mesh = grid.build_mesh(5)
    rng = np.random.Generator(np.random.PCG64(17))
    law = materials.ElasticLaw(xi=0.8, heterogeneous=kind != "homogeneous")
    params = materials.ModelParams(gamma=5.0, elastic=law)
    nn = mesh.node_count
    for _ in range(3):
        ctx = schemes.SchemeContext(
            prev=random_state(mesh, rng),
            params=params,
            scheme_kind=kind,
            R=rng.normal(size=nn),
            f=rng.normal(size=2 * nn),
        )
        state = random_state(mesh, rng)
        want = quadrature_residual(state, ctx)
        got = schemes.residual(state, ctx)
        got_ch = schemes.ch_residual(state, ctx)
        for block in (slice(0, nn), slice(nn, 2 * nn), slice(2 * nn, 4 * nn)):
            tol = 1e-12 * np.abs(want[block]).max()
            assert np.abs(got[block] - want[block]).max() <= tol
            if block.stop <= 2 * nn:
                assert np.abs(got_ch[block] - want[block]).max() <= tol


def test_residual_zero_at_trivial_state():
    mesh = grid.build_mesh(4)
    law = materials.ElasticLaw(heterogeneous=False)
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
    full = schemes.elastic_energy_density_derivative_qp(law, phi_qp, eps_qp)
    assert np.allclose(si, full, atol=1e-12)


def test_elastic_derivative_independent_oracle():
    # loop-based reimplementation of 0.5 e:C'e - xi I:Ce at a few points
    law = materials.ElasticLaw(xi=0.7)
    rng = np.random.Generator(np.random.PCG64(5))
    phi = rng.uniform(-1.2, 1.2, 6)
    eps = rng.normal(0, 1, (6, 3))
    got = schemes.elastic_energy_density_derivative_qp(law, phi, eps)
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
        """Midsplit profile energy vs an independent 4x4 Gauss evaluation."""
        mesh = grid.build_mesh(8)
        law = materials.ElasticLaw()
        params = materials.ModelParams(elastic=law)
        state = schemes.State.zeros(mesh)
        state.phi = np.tanh((0.5 - mesh.nodes[:, 1]) / (np.sqrt(2) * params.ell))
        rng = np.random.Generator(np.random.PCG64(2))
        state.u = 0.01 * rng.normal(size=2 * mesh.node_count)
        got = schemes.free_energy(state, params)

        # 4x4 tensor Gauss rule on the reference square
        pts, wts = np.polynomial.legendre.leggauss(4)
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
        prev.phi = np.tanh((0.5 - mesh.nodes[:, 1]) / (np.sqrt(2) * params.ell))
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
        bad.phi = bad.phi + 0.5  # constant shift violates mass constraint
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
            np.tanh((0.5 - mesh.nodes[:, 1]) / (np.sqrt(2) * params.ell)),
            np.zeros(mesh.node_count),
            0.01 * rng.normal(size=2 * mesh.node_count),
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
        state.phi = prev.phi + 1e-3 * d

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
        probe.mu = -v / params.tau
        r = schemes.ch_residual(probe, ctx)
        grad = -r[mesh.node_count :]  # = (dE/dphi, p_i) - (mu, p_i)... sign below

        eps = 1e-5
        sp_, sm_ = state.copy(), state.copy()
        sp_.phi = state.phi + eps * d
        sm_.phi = state.phi - eps * d
        fd = (
            schemes.step_potential(sp_, ctx, mean_tol=1e-6)
            - schemes.step_potential(sm_, ctx, mean_tol=1e-6)
        ) / (2 * eps)
        got = grad @ d
        assert got == pytest.approx(fd, rel=1e-6)
