"""Mesh, quadrature and assembly oracles.

Reference values are computed independently: the element mass matrix from
the closed-form Q1 integral, global matrix sums from exact integrals of
constants, and stiffness row sums from the partition of unity.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from cahnlarche import grid


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
    rule = grid.gauss_rule(2)
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
    rule = grid.gauss_rule(2)
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


def test_elasticity_rigid_body_and_symmetry():
    mesh = grid.build_mesh(4)
    C = np.array([[100.0, 20.0, 0.0], [20.0, 100.0, 0.0], [0.0, 0.0, 200.0]])
    A = grid.assemble_vector_elasticity(mesh, C)
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
    L = rng.normal(size=(mesh.element_count, 4, 3, 3))
    C = L @ np.swapaxes(L, -1, -2) + np.eye(3)
    vec = rng.normal(size=(mesh.element_count, 4, 3))
    u, v = rng.normal(size=(2, 2 * mesh.node_count))
    phi = rng.normal(size=mesh.node_count)
    w = mesh.qp_weights
    eps_u, eps_v = grid.strain_at_qp(mesh, u), grid.strain_at_qp(mesh, v)

    A = grid.assemble_vector_elasticity(mesh, C)
    ref = np.einsum("q,eqc,eqcd,eqd->", w, eps_v, C, eps_u)
    assert v @ (A @ u) == pytest.approx(ref, rel=1e-12)

    G = grid.assemble_coupling(mesh, vec)
    phi_qp = grid.scalar_at_qp(mesh, phi)
    ref = np.einsum("q,eq,eqc,eqc->", w, phi_qp, vec, eps_u)
    assert phi @ (G @ u) == pytest.approx(ref, rel=1e-12)


def test_coupling_matrix_against_quadrature():
    mesh = grid.build_mesh(3)
    law_vec = np.array([3.0, 5.0, 0.5])
    G = grid.assemble_coupling(mesh, law_vec)
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
    x = grid.solve_linear(A, b)
    assert np.abs(x[mesh.boundary_nodes]).max() == 0.0


def test_solve_linear_rejects_singular():
    A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(grid.SingularSystemError):
        grid.solve_linear(A, np.array([1.0, 0.0]))


def test_mms_elasticity_convergence_order():
    """Manufactured solution u = (sin(pi x) sin(pi y), 0) with constant C."""
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
        A = grid.assemble_vector_elasticity(mesh, C)
        c = np.sort(np.concatenate(
            [2 * mesh.boundary_nodes, 2 * mesh.boundary_nodes + 1]
        ))
        A_bc, b_bc = grid.eliminate_dirichlet(A, load, c)
        u = grid.solve_linear(A_bc, b_bc)
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
    want = grid._compressed(
        np.repeat(rows, cols.shape[1], axis=1), np.tile(cols, (1, rows.shape[1])), shape
    )
    got = mesh.pattern(kind)
    assert got.shape == shape
    for name, w in zip(("indptr", "indices", "slots"), want):
        g = getattr(got, name)
        assert g.dtype == w.dtype and np.array_equal(g, w), name


def test_compressed_pattern_int32_indices_past_2_31():
    # major * n_minor + minor exceeds 2**31 for the last row; int32 index
    # arrays must not wrap around in the sort key
    size = 50_000
    major = np.array([size - 1, 0, size - 1, 3], dtype=np.int32)
    minor = np.array([size - 2, 1, size - 2, size - 1], dtype=np.int32)
    indptr, indices, slots = grid._compressed(major, minor, (size, size))
    assert indices.tolist() == [1, size - 1, size - 2]
    assert slots.tolist() == [2, 0, 2, 1]
    assert indptr[[0, 1, 3, 4, size - 1, size]].tolist() == [0, 1, 1, 2, 2, 3]


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
    nnz = solvers._factor_saddle(S).__self__.nnz

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
