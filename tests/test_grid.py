"""Mesh, quadrature and assembly oracles.

Reference values are computed independently: the element mass matrix from
the closed-form Q1 integral, global matrix sums from exact integrals of
constants, and stiffness row sums from the partition of unity.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from cahnlarche import grid, solvers


def test_mesh_rejects_tiny_n():
    with pytest.raises(ValueError):
        grid.build_mesh(1)


def test_mesh_geometry():
    mesh = grid.build_mesh(4)
    assert mesh.node_count == 25
    assert mesh.elements.shape == (16, 4)
    assert mesh.h == pytest.approx(0.25)
    # corner nodes present
    for corner in ([0, 0], [1, 0], [0, 1], [1, 1]):
        assert np.any(np.all(np.isclose(mesh.nodes, corner), axis=1))
    # counterclockwise element orientation: signed area positive
    quads = mesh.nodes[mesh.elements]
    x, y = quads[..., 0], quads[..., 1]
    area = 0.5 * np.sum(
        x * np.roll(y, -1, axis=1) - np.roll(x, -1, axis=1) * y, axis=1
    )
    assert np.all(area > 0)


def test_boundary_nodes():
    mesh = grid.build_mesh(5)
    b = mesh.boundary_nodes
    on_edge = (
        np.isclose(mesh.nodes[:, 0], 0)
        | np.isclose(mesh.nodes[:, 0], 1)
        | np.isclose(mesh.nodes[:, 1], 0)
        | np.isclose(mesh.nodes[:, 1], 1)
    )
    assert set(b) == set(np.nonzero(on_edge)[0])


def test_quadrature_integrates_cubics():
    # 2x2 Gauss on [0,1]^2 is exact for polynomials of degree <= 3 per axis
    rule = grid.gauss_rule()
    assert rule.points.shape == (4, 2)
    assert rule.weights.sum() == pytest.approx(1.0)
    for px in range(4):
        for py in range(4):
            val = np.sum(
                rule.weights * rule.points[:, 0] ** px * rule.points[:, 1] ** py
            )
            exact = 1.0 / (px + 1) / (py + 1)
            assert val == pytest.approx(exact, rel=1e-13)


def test_shape_functions_partition_of_unity():
    rule = grid.gauss_rule()
    vals = grid.shape_values(rule.points)
    grads = grid.shape_gradients(rule.points)
    assert np.allclose(vals.sum(axis=1), 1.0)
    assert np.allclose(grads.sum(axis=1), 0.0)


def test_element_mass_matrix_closed_form():
    # Q1 element mass matrix on a square of side h: h^2/36 * [[4,2,1,2],...]
    mesh = grid.build_mesh(3)
    M = grid.assemble_mass(mesh)
    h = mesh.h
    ref = (h**2 / 36.0) * np.array(
        [[4, 2, 1, 2], [2, 4, 2, 1], [1, 2, 4, 2], [2, 1, 2, 4]], dtype=float
    )
    # extract the block of a single interior element by assembling a
    # one-element restriction
    e = mesh.elements[4]
    block = M[np.ix_(e, e)].toarray()
    # the assembled entry sums contributions of neighboring elements; compare
    # instead total integrals: sum of M = area, and a lumped row of an
    # interior node = h^2
    assert M.sum() == pytest.approx(1.0, rel=1e-12)
    interior = 4 * 1 + 1  # node (1,1) of the 4x4 grid of nodes
    assert M[interior].sum() == pytest.approx(h**2, rel=1e-12)
    # direct one-element quadrature oracle
    rule = mesh.quadrature
    vals = grid.shape_values(rule.points)
    elem = h**2 * np.einsum("q,qi,qj->ij", rule.weights, vals, vals)
    assert np.allclose(elem, ref, rtol=1e-13)


def test_stiffness_annihilates_constants():
    mesh = grid.build_mesh(6)
    K = grid.assemble_stiffness(mesh)
    ones = np.ones(mesh.node_count)
    assert np.abs(K @ ones).max() < 1e-13
    # Dirichlet energy of v = x is 1
    x = mesh.nodes[:, 0]
    assert x @ (K @ x) == pytest.approx(1.0, rel=1e-12)


def test_weighted_mass_matches_plain_mass():
    mesh = grid.build_mesh(5)
    w = np.ones((mesh.element_count, mesh.quadrature.points.shape[0]))
    Mw = grid.assemble_weighted_mass(mesh, w)
    M = grid.assemble_mass(mesh)
    assert np.abs((Mw - M).toarray()).max() < 1e-14


def test_scalar_load_constant():
    mesh = grid.build_mesh(4)
    w = np.ones((mesh.element_count, 4))
    b = grid.assemble_scalar_load(mesh, w)
    # (1, p_i) sums to the area
    assert b.sum() == pytest.approx(1.0, rel=1e-13)


def constant_elasticity(mesh, C):
    """``grid.assemble_vector_elasticity`` of the constant Voigt tensor C:
    the case pi = 0, Delta C = 0, whose element matrices are C's alone."""
    zero_pi = np.zeros((mesh.element_count, mesh.qp_weights.size))
    return grid.assemble_vector_elasticity(mesh, C, zero_pi, np.zeros((3, 3)))


def test_elasticity_rigid_body_and_symmetry():
    mesh = grid.build_mesh(4)
    C = np.array([[100.0, 20.0, 0.0], [20.0, 100.0, 0.0], [0.0, 0.0, 200.0]])
    A = constant_elasticity(mesh, C)
    assert np.abs((A - A.T).toarray()).max() < 1e-11
    # translations are in the kernel
    for t in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
        u = np.tile(t, mesh.node_count)
        assert np.abs(A @ u).max() < 1e-11


def test_strain_of_linear_displacement():
    mesh = grid.build_mesh(4)
    # u = (a x + b y, c x + d y): strain = (a, d, b + c)
    a, b, c, d = 0.3, -0.7, 1.1, 0.4
    u = np.empty(2 * mesh.node_count)
    u[0::2] = a * mesh.nodes[:, 0] + b * mesh.nodes[:, 1]
    u[1::2] = c * mesh.nodes[:, 0] + d * mesh.nodes[:, 1]
    eps = grid.strain_at_qp(mesh, u)
    assert np.allclose(eps[..., 0], a)
    assert np.allclose(eps[..., 1], d)
    assert np.allclose(eps[..., 2], b + c)


def test_per_point_assembly_matches_quadrature_forms():
    # bilinear forms of the per-quadrature-point branches against the same
    # integrals summed at quadrature points from nodal fields
    mesh = grid.build_mesh(4)
    rng = np.random.Generator(np.random.PCG64(3))
    L = rng.normal(size=(2, 3, 3))
    c, delta = L @ np.swapaxes(L, -1, -2) + np.eye(3)
    pi = rng.uniform(-0.5, 1.5, size=(mesh.element_count, 4))
    C = c + pi[..., None, None] * delta
    vec = rng.normal(size=(mesh.element_count, 4, 3))
    u, v = rng.normal(size=(2, 2 * mesh.node_count))
    phi = rng.normal(size=mesh.node_count)
    w = mesh.qp_weights
    eps_u, eps_v = grid.strain_at_qp(mesh, u), grid.strain_at_qp(mesh, v)

    A = grid.assemble_vector_elasticity(mesh, c, pi, delta)
    ref = np.einsum("q,eqc,eqcd,eqd->", w, eps_v, C, eps_u)
    assert v @ (A @ u) == pytest.approx(ref, rel=1e-12)

    G = grid.assemble_coupling(mesh, vec)
    phi_qp = grid.scalar_at_qp(mesh, phi)
    ref = np.einsum("q,eq,eqc,eqc->", w, phi_qp, vec, eps_u)
    assert phi @ (G @ u) == pytest.approx(ref, rel=1e-12)


def test_coupling_matrix_against_quadrature():
    mesh = grid.build_mesh(3)
    law_vec = np.array([3.0, 5.0, 0.5])
    G = grid.assemble_coupling(mesh, np.tile(law_vec, (mesh.element_count, 4, 1)))
    assert G.shape == (mesh.node_count, 2 * mesh.node_count)
    # row sum against u = (x, y): B u = (1, 1, 0) at every point, so
    # G phi . u = int phi * (law_vec . (1,1,0))
    u = np.empty(2 * mesh.node_count)
    u[0::2] = mesh.nodes[:, 0]
    u[1::2] = mesh.nodes[:, 1]
    phi = np.ones(mesh.node_count)
    val = phi @ (G @ u)
    assert val == pytest.approx(law_vec[0] + law_vec[1], rel=1e-12)


def test_dirichlet_elimination_symmetric():
    mesh = grid.build_mesh(4)
    K = grid.assemble_stiffness(mesh) + 0.1 * grid.assemble_mass(mesh)
    rhs = np.ones(mesh.node_count)
    A, b = grid.eliminate_dirichlet(K, rhs, mesh.boundary_nodes)
    assert np.abs((A - A.T).toarray()).max() < 1e-14
    x = grid.solve_linear(A, b, spla.splu(A.tocsc()).solve)
    assert np.abs(x[mesh.boundary_nodes]).max() == 0.0


def test_solve_linear_rejects_singular():
    # SuperLU fails on the singular matrix; a solve that returns the
    # least-squares answer instead is rejected by the residual check.
    A = sp.csc_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    b = np.array([1.0, 0.0])
    with pytest.raises(grid.SingularSystemError, match="^factorization failed"):
        grid.solve_linear(A, b, solvers.LaggedLU().factor(A))
    lstsq = lambda c: np.linalg.lstsq(A.toarray(), c, rcond=None)[0]
    with pytest.raises(grid.SingularSystemError, match="^relative residual"):
        grid.solve_linear(A, b, lstsq)


@pytest.mark.parametrize("n", [4, 8])
def test_banded_cholesky_of_free_elasticity_block(n):
    # The free block of C(phi) at a random phi: half-bandwidth 2n + 1 in the
    # ascending order of the free dofs, the dense solve's answer, and the
    # same bits from a second factorization.
    from cahnlarche import materials

    mesh = grid.build_mesh(n)
    law = materials.ElasticLaw()
    rng = np.random.default_rng(n)
    pi = law.weight(grid.scalar_at_qp(mesh, rng.uniform(-1.0, 1.0, mesh.node_count)))
    free = mesh.free_u_dofs
    A = grid.assemble_vector_elasticity(mesh, law.c_minus, pi, law.delta)[free][:, free]
    b = rng.standard_normal(free.size)
    assert grid._lower_band(A).shape[0] - 1 == 2 * n + 1
    x, dense = grid.factorize_spd(A)(b), np.linalg.solve(A.toarray(), b)
    assert np.abs(x - dense).max() <= 1e-12 * np.abs(dense).max()
    assert np.array_equal(grid.factorize_spd(A)(b), x)


def test_mms_elasticity_convergence_order():
    """Manufactured solution u = (sin(pi x) sin(pi y), 0) with constant C,
    solved as ``solvers.solve_elasticity_block`` solves: the stiffness of
    pi = 0, Delta C = 0 on the free dofs, by banded Cholesky."""
    C = np.array([[4.0, 1.0, 0.0], [1.0, 4.0, 0.0], [0.0, 0.0, 2.0]])
    c11, c12, c33 = C[0, 0], C[0, 1], C[2, 2]
    errors = []
    sizes = (8, 16, 32)
    for n in sizes:
        mesh = grid.build_mesh(n)
        x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
        f = np.empty(2 * mesh.node_count)
        f[0::2] = (c11 + c33) * np.pi**2 * np.sin(np.pi * x) * np.sin(np.pi * y)
        f[1::2] = -(c12 + c33) * np.pi**2 * np.cos(np.pi * x) * np.cos(np.pi * y)
        fx = grid.scalar_at_qp(mesh, f[0::2])
        fy = grid.scalar_at_qp(mesh, f[1::2])
        load = grid.assemble_vector_load(mesh, np.stack([fx, fy], axis=-1))
        free = mesh.free_u_dofs
        A = constant_elasticity(mesh, C)[free][:, free]
        u = np.zeros(2 * mesh.node_count)
        u[free] = grid.solve_linear(A, load[free], grid.factorize_spd(A))
        exact = np.zeros_like(u)
        exact[0::2] = np.sin(np.pi * x) * np.sin(np.pi * y)
        M = grid.assemble_mass(mesh)
        d0, d1 = u[0::2] - exact[0::2], u[1::2] - exact[1::2]
        err = np.sqrt(d0 @ (M @ d0) + d1 @ (M @ d1))
        errors.append(err)
    rates = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(np.abs(rates - 2.0) <= 0.2), rates


def test_deterministic_assembly():
    mesh = grid.build_mesh(5)
    A1 = grid.assemble_stiffness(mesh)
    A2 = grid.assemble_stiffness(mesh)
    assert (A1 != A2).nnz == 0


def test_mesh_operators_built_once():
    mesh = grid.build_mesh(4)
    assert mesh.mass is mesh.mass
    assert mesh.stiffness is mesh.stiffness
    assert mesh.b_matrices is mesh.b_matrices
    assert mesh.free_u_dofs is mesh.free_u_dofs


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("kind", ["scalar", "vector", "coupling"])
def test_pattern_matches_sorted_index_pairs(kind, n):
    # the patterns are derived from the grid's stencil; a sort of the
    # element index pairs is the reference
    mesh = grid.build_mesh(n)
    rows, cols = {
        "scalar": (mesh.elements, mesh.elements),
        "vector": (mesh.u_dofs, mesh.u_dofs),
        "coupling": (mesh.elements, mesh.u_dofs),
    }[kind]
    shape = (rows.max() + 1, cols.max() + 1)
    major = np.repeat(rows, cols.shape[1], axis=1).ravel().astype(np.int64)
    minor = np.tile(cols, (1, rows.shape[1])).ravel()
    keys, slots = np.unique(major * shape[1] + minor, return_inverse=True)
    counts = np.bincount(keys // shape[1], minlength=shape[0])
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
    want = indptr, (keys % shape[1]).astype(np.int32), slots
    got = mesh.pattern(kind)
    assert got.shape == shape
    for name, w in zip(("indptr", "indices", "slots"), want):
        g = getattr(got, name)
        assert g.dtype == w.dtype and np.array_equal(g, w), name


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9, 32])
def test_nested_dissection_orders_every_node_once(n):
    order = grid.nested_dissection(n)
    assert np.array_equal(np.sort(order), np.arange((n + 1) ** 2))
    # the middle node line of the whole grid separates it, and comes last
    assert np.array_equal(np.sort(order[-(n + 1) :] % (n + 1)), np.full(n + 1, (n + 1) // 2))


@pytest.mark.parametrize("full", [False, True])
@pytest.mark.parametrize("n", [4, 8])
def test_saddle_order_is_a_permutation_of_the_unknowns(n, full):
    mesh = grid.build_mesh(n)
    nn = mesh.node_count
    p = mesh.saddle_pattern(full)
    unknowns = np.arange(2 * nn)
    if full:
        unknowns = np.concatenate([unknowns, 2 * nn + mesh.free_u_dofs])
    assert np.array_equal(np.sort(p.order), unknowns)
    assert p.shape == (unknowns.size,) * 2
    # each node's unknowns are adjacent, its phi first, nodes in ND order
    node = np.where(p.order < 2 * nn, p.order % nn, (p.order - 2 * nn) // 2)
    starts = np.flatnonzero(np.diff(node, prepend=-1))
    assert np.array_equal(node[starts], grid.nested_dissection(n))
    assert np.array_equal(p.order[starts], node[starts])


@pytest.mark.parametrize("full", [False, True])
@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_saddle_pattern_matches_sorted_pairs(n, full):
    # scipy lays out and orders the saddle pattern; the reference places
    # every block entry at its (column, row) in S by the pattern's order and
    # sorts those pairs
    mesh = grid.build_mesh(n)
    nn = mesh.node_count
    p = mesh.saddle_pattern(full)
    size = p.shape[0]
    pos = np.full(4 * nn if full else 2 * nn, size)  # size: a constrained dof
    pos[p.order] = np.arange(size)

    def entries(kind):
        q = mesh.pattern(kind)
        return np.repeat(np.arange(q.shape[0]), np.diff(q.indptr)), q.indices

    # the equation of mu (phi) of a node takes the place of its phi (mu)
    i, j = entries("scalar")
    blocks = {
        "mu_phi": (pos[i], pos[j]), "mu_mu": (pos[i], pos[nn + j]),
        "phi_phi": (pos[nn + i], pos[j]), "phi_mu": (pos[nn + i], pos[nn + j]),
    }
    if full:
        (ci, cj), (vi, vj), u = entries("coupling"), entries("vector"), pos[2 * nn :]
        blocks.update(
            mu_u=(pos[ci], u[cj]), u_phi=(u[cj], pos[ci]), u_u=(u[vi], u[vj])
        )
    assert list(p.slots) == list(blocks)
    rows = np.concatenate([r for r, _ in blocks.values()])
    cols = np.concatenate([c for _, c in blocks.values()])
    kept = (rows < size) & (cols < size)
    keys, inverse = np.unique(cols[kept] * size + rows[kept], return_inverse=True)
    slots = np.full(rows.size, keys.size)  # the spare entry nnz
    slots[kept] = inverse
    counts = np.bincount(keys // size, minlength=size)
    assert np.array_equal(p.indptr, np.concatenate([[0], np.cumsum(counts)]))
    assert np.array_equal(p.indices, keys % size)
    assert np.array_equal(np.concatenate(list(p.slots.values())), slots)


@pytest.mark.parametrize("full", [False, True])
@pytest.mark.parametrize("n", [2, 8, 32])
def test_saddle_matrix_gather_equals_scatter(n, full):
    # matrix() gathers the scaled block data through one index; the
    # reference scatters each scaled block into S's data through its slots
    mesh = grid.build_mesh(n)
    p = mesh.saddle_pattern(full)
    rng = np.random.Generator(np.random.PCG64(n))
    blocks = {name: rng.normal(size=slot.size) for name, slot in p.slots.items()}
    tau = 1e-5
    scale = {"phi_phi": tau, "phi_mu": tau, "u_phi": -1.0, "u_u": -1.0}
    data = np.empty(p.indices.size + 1)
    for name, values in blocks.items():
        data[p.slots[name]] = scale[name] * values if name in scale else values
    S = p.matrix(blocks, tau)
    assert np.array_equal(S.indptr, p.indptr) and np.array_equal(S.indices, p.indices)
    assert np.array_equal(S.data, data[:-1])


@pytest.mark.parametrize("full", [False, True])
def test_saddle_vector_maps(full):
    # rows() pairs and scales J's rows as in the saddle matrix; unknowns()
    # undoes the column order, with zeros on the constrained dofs
    from tests.test_schemes import make_ctx, saddle_order

    mesh = grid.build_mesh(5)
    rng = np.random.Generator(np.random.PCG64(0))
    ctx = make_ctx(mesh, "semi_implicit", rng)
    size = (4 if full else 2) * mesh.node_count
    rows, cols, scale = saddle_order(ctx, size)
    p = mesh.saddle_pattern(full)
    b = rng.normal(size=size)
    assert np.array_equal(p.rows(b, ctx.params.tau), scale * b[rows])
    x = rng.normal(size=p.shape[0])
    got = p.unknowns(x, size)
    assert np.array_equal(got[cols], x)
    assert not np.delete(got, cols).any()


def test_saddle_lu_fill_below_minimum_degree():
    # At a random implicit state, the nested-dissection order keeps the full
    # saddle LU at most 3/4 of SuperLU's minimum-degree LU of the same
    # matrix in the (phi, mu, u) block layout, and no larger than minimum
    # degree on the matrix as ordered.
    import scipy.sparse.linalg as spla

    from cahnlarche import schemes, solvers
    from tests.test_solvers import random_ctx

    ctx, state = random_ctx(32, "implicit")
    S = schemes.jacobian(state, ctx)
    nnz = solvers.LaggedLU().factor(S).__self__.nnz

    def mmd(A):
        return spla.splu(
            A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=1e-3,
            options={"SymmetricMode": True},
        ).nnz

    back = np.argsort(ctx.mesh.saddle_pattern(full=True).order)
    block, ordered = nnz / mmd(S[back][:, back]), nnz / mmd(S)
    print(f"LU nnz, ND / MMD: {block:.3f} (block layout), {ordered:.3f} (as ordered)")
    assert block <= 0.75
    assert ordered <= 1.0
