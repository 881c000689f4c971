"""Structured Q1 finite elements on the unit square.

Provides the mesh, quadrature, assembly primitives (scalar mass/stiffness,
vector elasticity, scalar-vector coupling, load vectors) on sparsity patterns
fixed per mesh, the pattern of the saddle-form Newton matrices in a
nested-dissection order of the grid, symmetric Dirichlet elimination and
sparse direct solves. All elements are axis-aligned squares of side
h = 1/n, with bilinear shape functions on the reference square [0,1]^2 and
counterclockwise node ordering.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Voigt convention: strain (e11, e22, 2*e12), stress (s11, s22, s12).
# The identity tensor maps to (1, 1, 0).
I_VOIGT = np.array([1.0, 1.0, 0.0])


# Relative residual every solve_linear result must reach.
RESIDUAL_TOL = 1e-10


class SingularSystemError(Exception):
    """Linear solve failed or did not reach ``RESIDUAL_TOL``."""


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature on the reference square [0,1]^2."""

    points: np.ndarray   # (nq, 2)
    weights: np.ndarray  # (nq,)


def gauss_rule(order=2):
    """Tensor-product Gauss rule on [0,1]^2. order=2 is exact for Q1 x Q1."""
    x, w = np.polynomial.legendre.leggauss(order)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    pts = np.array([(a, b) for b in x for a in x])
    wts = np.array([wa * wb for wb in w for wa in w])
    return QuadratureRule(points=pts, weights=wts)


def shape_values(pts):
    """Q1 shape functions at reference points, counterclockwise order."""
    x, y = pts[:, 0], pts[:, 1]
    return np.stack(
        [(1 - x) * (1 - y), x * (1 - y), x * y, (1 - x) * y], axis=1
    )


def shape_gradients(pts):
    """Reference gradients of the Q1 shape functions, shape (nq, 4, 2)."""
    x, y = pts[:, 0], pts[:, 1]
    dx = np.stack([-(1 - y), (1 - y), y, -y], axis=1)
    dy = np.stack([-(1 - x), -x, x, (1 - x)], axis=1)
    return np.stack([dx, dy], axis=2)


def strain_displacement(grads):
    """Strain-displacement matrices (nq, 3, 8) from gradients (nq, 4, 2)."""
    B = np.zeros((grads.shape[0], 3, 8))
    B[:, 0, 0::2] = grads[:, :, 0]
    B[:, 1, 1::2] = grads[:, :, 1]
    B[:, 2, 0::2] = grads[:, :, 1]
    B[:, 2, 1::2] = grads[:, :, 0]
    return B


def _compressed(major, minor, shape):
    """Compressed pattern of the index pairs (major[k], minor[k]).

    Returns (indptr, indices, slots): each distinct pair is one entry, sorted
    by major then minor index, and pair k lands in entry ``slots[k]``.
    Index arrays are read-only, because every matrix on the pattern shares
    them.
    """
    key = np.ravel(major).astype(np.int64) * shape[1]  # no int32 overflow
    key += np.ravel(minor)
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.ones(key.size, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=first[1:])
    rank = np.cumsum(first)
    rank -= 1
    slots = np.empty_like(rank)
    slots[order] = rank
    del order, rank  # freed early: they set the peak memory of the build
    key = key[first]
    counts = np.bincount(key // shape[1], minlength=shape[0])
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
    indices = (key % shape[1]).astype(np.int32)
    indptr.flags.writeable = indices.flags.writeable = False
    return indptr, indices, slots


@dataclass(frozen=True)
class Pattern:
    """Fixed CSR pattern of an assembled operator.

    ``slots[k]`` is the entry of ``data`` that the k-th element-matrix entry
    adds to; ``assemble`` sums with ``np.bincount`` in element order.
    Columns are sorted within each row, and entries are kept even where
    they sum to zero.
    """

    shape: tuple
    indptr: np.ndarray
    indices: np.ndarray
    slots: np.ndarray

    @property
    def rows(self):
        """Row index of every entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def assemble(self, elem_mats):
        data = np.bincount(
            self.slots, weights=elem_mats.ravel(), minlength=self.indices.size
        )
        return sp.csr_matrix((data, self.indices, self.indptr), shape=self.shape)


def _stencil_pattern(mesh):
    """Scalar ``Pattern`` of the structured grid, found without a sort.

    Node (i, j), numbered j (n + 1) + i, couples with the nodes of its 3x3
    neighbourhood, which its row holds in (j, i) order. An element-matrix
    entry's place in its row follows from the offsets of its two nodes.
    """
    n, e = mesh.n_per_side, mesh.elements
    j, i = np.divmod(np.arange(mesh.node_count), n + 1)
    width = lambda k: 3 - (k == 0) - (k == n)  # neighbours along one axis
    indptr = np.zeros(mesh.node_count + 1, dtype=np.int32)
    np.cumsum(width(i) * width(j), out=indptr[1:])
    ie, je = i[e], j[e]
    w = width(ie)
    first = indptr[e] + (je > 0) * w + (ie > 0)
    di, dj = ie[0] - ie[0][:, None], je[0] - je[0][:, None]  # same in every element
    slots = (first[:, :, None] + dj * w[:, :, None] + di).ravel()
    return _pattern(indptr, slots, np.tile(e, (1, 4)), (mesh.node_count,) * 2)


def _dof_pattern(mesh, kind):
    """The "coupling" (4x8) or "vector" (8x8) ``Pattern``, from the scalar
    one: every column node becomes its two u dofs, and for "vector" every
    row node too, so each scalar entry becomes two adjacent entries per
    row."""
    s, ne = mesh.pattern("scalar"), mesh.element_count
    split = {"coupling": 1, "vector": 2}[kind]
    indptr = np.zeros(split * mesh.node_count + 1, dtype=np.int32)
    np.cumsum(np.repeat(2 * np.diff(s.indptr), split), out=indptr[1:])
    shift = indptr[:-1] - 2 * np.repeat(s.indptr[:-1], split)  # per row
    slots = 2 * s.slots.reshape(ne, 4, 1, 4, 1) + np.arange(2)
    slots = np.broadcast_to(slots, (ne, 4, split, 4, 2)).reshape(ne, 4 * split, 8)
    rows = mesh.u_dofs if split == 2 else mesh.elements
    slots = (slots + shift[rows][:, :, None]).ravel()
    cols = np.tile(mesh.u_dofs, (1, 4 * split))
    return _pattern(indptr, slots, cols, (indptr.size - 1, 2 * mesh.node_count))


def _pattern(indptr, slots, cols, shape):
    """``Pattern`` with the column ``cols.ravel()[k]`` in entry ``slots[k]``."""
    indices = np.empty(indptr[-1], dtype=np.int32)
    indices[slots] = cols.ravel()
    indptr.flags.writeable = indices.flags.writeable = False
    return Pattern(shape, indptr, indices, slots)


def nested_dissection(n):
    """Nodes of the (n + 1) x (n + 1) grid in geometric nested-dissection
    order (George 1973, SIAM J. Numer. Anal. 10(2)).

    A box of nodes is split at the middle node line of its longer side; on
    the 3x3 stencil that line separates the two halves. The first half, the
    second half and then the separator are ordered in turn, recursively,
    down to boxes whose longer side has fewer than 3 nodes, which are
    numbered naturally.
    """
    def box(i0, i1, j0, j1):  # nodes i0 <= i < i1, j0 <= j < j1, naturally
        return (np.arange(j0, j1)[:, None] * (n + 1) + np.arange(i0, i1)).ravel()

    def order(i0, i1, j0, j1):
        if max(i1 - i0, j1 - j0) < 3:
            return box(i0, i1, j0, j1)
        if i1 - i0 >= j1 - j0:
            m = (i0 + i1) // 2
            parts = order(i0, m, j0, j1), order(m + 1, i1, j0, j1), box(m, m + 1, j0, j1)
        else:
            m = (j0 + j1) // 2
            parts = order(i0, i1, j0, m), order(i0, i1, m + 1, j1), box(i0, i1, m, m + 1)
        return np.concatenate(parts)

    return order(0, n + 1, 0, n + 1)


@dataclass(frozen=True)
class SaddlePattern:
    """CSC pattern of a Newton matrix in saddle form, fixed by the mesh.

    Column k is the unknown with index ``order[k]`` in the (phi, mu, u)
    layout, with u on the free (interior) dofs only; row k is the equation
    paired with it: mu's with phi, phi's with mu, u's with u. The caller
    scales the rows (mu, tau * phi, -u) (``schemes.jacobian``). Each node's
    unknowns (phi, mu, then its free u dofs) are adjacent, and the nodes
    come in ``nested_dissection`` order, so SuperLU factors the matrix as it
    is ordered. The blocks, named by equation and unknown, are

        mu_phi   mu_mu    mu_u
        phi_phi  phi_mu   .
        u_phi    .        u_u

    ``slots[name]`` holds, for every entry of the block's source pattern
    (``Mesh.pattern`` "scalar" for the four (phi, mu) blocks, "coupling" for
    ``mu_u`` and ``u_phi``, "vector" for ``u_u``), its entry in ``data``;
    entries on a constrained dof go to the spare entry ``nnz``. The (phi,
    mu) block alone has the first four blocks.
    """

    shape: tuple
    indptr: np.ndarray
    indices: np.ndarray
    slots: dict
    order: np.ndarray

    @classmethod
    def of(cls, mesh, full):
        nn = mesh.node_count
        rank = np.empty(nn, dtype=np.int64)
        rank[nested_dissection(mesh.n_per_side)] = np.arange(nn)
        order = np.arange(2 * nn)
        if full:
            order = np.concatenate([order, 2 * nn + mesh.free_u_dofs])
        node = np.where(order < 2 * nn, order % nn, (order - 2 * nn) // 2)
        order = order[np.lexsort((order, rank[node]))]
        order.flags.writeable = False
        size = order.size
        pos = np.full(4 * nn if full else 2 * nn, -1)  # -1: a constrained u dof
        pos[order] = np.arange(size)
        s = mesh.pattern("scalar")
        i, j = s.rows, s.indices
        # (rows, columns) of each block: the equation of mu (phi) of a node
        # takes the place of that node's phi (mu) unknown
        blocks = {
            "mu_phi": (pos[i], pos[j]), "mu_mu": (pos[i], pos[nn + j]),
            "phi_phi": (pos[nn + i], pos[j]), "phi_mu": (pos[nn + i], pos[nn + j]),
        }
        if full:
            c, v = mesh.pattern("coupling"), mesh.pattern("vector")
            u = pos[2 * nn :]
            blocks["mu_u"] = (pos[c.rows], u[c.indices])
            blocks["u_phi"] = (u[c.indices], pos[c.rows])
            blocks["u_u"] = (u[v.rows], u[v.indices])
        names, sizes = list(blocks), [r.size for r, _ in blocks.values()]
        rows = np.concatenate([r for r, _ in blocks.values()], dtype=np.int32)
        cols = np.concatenate([c for _, c in blocks.values()], dtype=np.int32)
        del blocks, i, j
        # entries on a constrained dof all become one entry past the last column
        dropped = (rows < 0) | (cols < 0)
        cols[dropped], rows[dropped] = size, 0
        indptr, indices, slots = _compressed(cols, rows, (size + 1, size))
        slots = dict(zip(names, np.split(slots, np.cumsum(sizes)[:-1])))
        return cls((size, size), indptr[:-1], indices[: indptr[size]], slots, order)

    def matrix(self, blocks):
        """The saddle matrix with data ``blocks[name]`` in block ``name``."""
        data = np.empty(self.indices.size + 1)
        for name, values in blocks.items():
            data[self.slots[name]] = values
        return sp.csc_matrix((data[:-1], self.indices, self.indptr), shape=self.shape)


@dataclass(frozen=True)
class Mesh:
    """Structured quadrilateral mesh of the unit square."""

    n_per_side: int
    h: float
    nodes: np.ndarray       # (node_count, 2) coordinates
    elements: np.ndarray    # (n^2, 4) connectivity, counterclockwise
    boundary_nodes: np.ndarray
    quadrature: QuadratureRule
    # operators built on first use, each under a tuple naming all its inputs
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def node_count(self):
        return self.nodes.shape[0]

    @property
    def element_count(self):
        return self.elements.shape[0]

    # Precomputed assembly data -------------------------------------------

    @cached_property
    def shape_vals(self):
        return shape_values(self.quadrature.points)

    @cached_property
    def phys_grads(self):
        """Physical shape gradients (nq, 4, 2); constant across elements."""
        return shape_gradients(self.quadrature.points) / self.h

    @property
    def qp_weights(self):
        """Physical quadrature weights per point (area-scaled)."""
        return self.quadrature.weights * self.h**2

    @cached_property
    def u_dofs(self):
        """(n_elem, 8) interleaved displacement dofs per element."""
        e = self.elements
        ud = np.empty((e.shape[0], 8), dtype=int)
        ud[:, 0::2] = 2 * e
        ud[:, 1::2] = 2 * e + 1
        return ud

    @cached_property
    def b_matrices(self):
        """Strain-displacement matrices, (nq, 3, 8), engineering shear."""
        return strain_displacement(self.phys_grads)

    @property
    def constrained_u_dofs(self):
        """Interleaved displacement dofs of the boundary nodes, ascending;
        u = 0 there."""
        b = self.boundary_nodes
        return np.stack([2 * b, 2 * b + 1], axis=1).ravel()

    @cached_property
    def free_u_dofs(self):
        """The other displacement dofs (interior nodes), ascending."""
        return np.setdiff1d(np.arange(2 * self.node_count), self.constrained_u_dofs)

    def pattern(self, kind):
        """Fixed CSR pattern of "scalar" (4x4 element matrices), "vector"
        (8x8, elasticity) or "coupling" (4x8, scalar rows, u columns)
        assembly, built on first use."""
        key = ("pattern", kind)
        if key not in self._cache:
            if kind == "scalar":
                self._cache[key] = _stencil_pattern(self)
            else:
                self._cache[key] = _dof_pattern(self, kind)
        return self._cache[key]

    def saddle_pattern(self, full):
        """CSC pattern of the saddle matrix of the (phi, mu) block or, with
        ``full``, of the whole system; built on first use (``SaddlePattern``)."""
        key = ("saddle_pattern", bool(full))
        if key not in self._cache:
            self._cache[key] = SaddlePattern.of(self, full)
        return self._cache[key]

    @cached_property
    def mass(self):
        """Scalar mass matrix, assembled once per mesh."""
        return assemble_mass(self)

    @cached_property
    def stiffness(self):
        """Scalar stiffness matrix, assembled once per mesh."""
        return assemble_stiffness(self)


def build_mesh(n_per_side):
    """Build a structured n x n quadrilateral mesh of the unit square."""
    if n_per_side < 2:
        raise ValueError(f"n_per_side must be >= 2, got {n_per_side}")
    n = int(n_per_side)
    h = 1.0 / n
    coords_1d = np.arange(n + 1) * h
    X, Y = np.meshgrid(coords_1d, coords_1d)
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    def idx(i, j):
        return j * (n + 1) + i

    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    ii, jj = ii.ravel(), jj.ravel()
    elements = np.column_stack(
        [idx(ii, jj), idx(ii + 1, jj), idx(ii + 1, jj + 1), idx(ii, jj + 1)]
    )

    I, J = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    on_bnd = (I == 0) | (I == n) | (J == 0) | (J == n)
    boundary = np.sort(idx(I[on_bnd], J[on_bnd]))

    return Mesh(
        n_per_side=n,
        h=h,
        nodes=nodes,
        elements=elements,
        boundary_nodes=boundary,
        quadrature=gauss_rule(2),
    )


# ---------------------------------------------------------------------------
# Field evaluation at quadrature points
# ---------------------------------------------------------------------------

def scalar_at_qp(mesh, nodal):
    """Nodal scalar field evaluated at quadrature points, (n_elem, nq)."""
    return nodal[mesh.elements] @ mesh.shape_vals.T


def gradient_at_qp(mesh, nodal):
    """Gradient of nodal scalar field at quadrature points, (n_elem, nq, 2)."""
    return np.einsum("ei,qid->eqd", nodal[mesh.elements], mesh.phys_grads)


def strain_at_qp(mesh, u):
    """Voigt strain of an interleaved displacement vector, (n_elem, nq, 3)."""
    ue = u[mesh.u_dofs]
    return np.einsum("qca,ea->eqc", mesh.b_matrices, ue)


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

def assemble_mass(mesh):
    """Scalar mass matrix int p_i p_j dx. Symmetric positive definite."""
    N = mesh.shape_vals
    elem = np.einsum("q,qi,qj->ij", mesh.qp_weights, N, N)
    mats = np.broadcast_to(elem, (mesh.element_count, 4, 4))
    return mesh.pattern("scalar").assemble(mats)


def assemble_weighted_mass(mesh, weight_qp):
    """Mass matrix with per-quadrature-point weights, shape (n_elem, nq)."""
    N = mesh.shape_vals
    NN = (N[:, :, None] * N[:, None, :]).reshape(N.shape[0], -1)
    mats = (weight_qp * mesh.qp_weights) @ NN
    return mesh.pattern("scalar").assemble(mats)


def assemble_stiffness(mesh):
    """Scalar stiffness int grad p_i . grad p_j dx. SPSD, kernel=constants."""
    dN = mesh.phys_grads
    elem = np.einsum("q,qid,qjd->ij", mesh.qp_weights, dN, dN)
    mats = np.broadcast_to(elem, (mesh.element_count, 4, 4))
    return mesh.pattern("scalar").assemble(mats)


def assemble_vector_elasticity(mesh, voigt_field):
    """Elasticity stiffness int (C eps(u)) : eps(v) dx on interleaved u dofs.

    voigt_field is a (3,3) constant or a per-quadrature (n_elem, nq, 3, 3)
    array of Voigt stiffness tensors, symmetric positive definite: C(phi) of
    an ``ElasticLaw``, a convex combination of its two checked tensors.
    """
    C = np.asarray(voigt_field, dtype=float)
    B = mesh.b_matrices
    w = mesh.qp_weights
    if C.ndim == 2:
        elem = np.einsum("q,qca,cd,qdb->ab", w, B, C, B)
        mats = np.broadcast_to(elem, (mesh.element_count, 8, 8))
    else:
        # sum over (q, c) of (w_q B_q)^T (C_eq B_q), as one matmul per element
        CB = (C @ B).reshape(C.shape[0], -1, B.shape[2])
        mats = (w[:, None, None] * B).reshape(-1, B.shape[2]).T @ CB
    return mesh.pattern("vector").assemble(mats)


def assemble_coupling(mesh, voigt_vec_qp):
    """Coupling matrix G[i, a] = int p_i * (v . B_a) dx.

    voigt_vec_qp is a per-quadrature Voigt row vector, shape (n_elem, nq, 3)
    or constant (3,). Maps u dofs (columns) to scalar test functions (rows).
    """
    v = np.asarray(voigt_vec_qp, dtype=float)
    N = mesh.shape_vals
    B = mesh.b_matrices
    w = mesh.qp_weights
    if v.ndim == 1:
        elem = np.einsum("q,qi,c,qca->ia", w, N, v, B)
        mats = np.broadcast_to(elem, (mesh.element_count, 4, 8))
    else:
        # sum over q of (w_q N_q)^T (v_eq B_q)
        vB = (v[:, :, None, :] @ B)[:, :, 0, :]
        mats = (w[:, None] * N).T @ vB
    return mesh.pattern("coupling").assemble(mats)


def assemble_scalar_load(mesh, values_qp):
    """Load vector int f p_i dx from per-quadrature scalar values."""
    mats = (values_qp * mesh.qp_weights) @ mesh.shape_vals
    return np.bincount(
        mesh.elements.ravel(), weights=mats.ravel(), minlength=mesh.node_count
    )


def assemble_vector_load(mesh, values_qp):
    """Load vector int f . v dx from per-quadrature (n_elem, nq, 2) values."""
    N = mesh.shape_vals
    mats = np.zeros((mesh.element_count, 8))
    mats[:, 0::2] = np.einsum("q,eq,qi->ei", mesh.qp_weights, values_qp[:, :, 0], N)
    mats[:, 1::2] = np.einsum("q,eq,qi->ei", mesh.qp_weights, values_qp[:, :, 1], N)
    out = np.zeros(2 * mesh.node_count)
    np.add.at(out, mesh.u_dofs.ravel(), mats.ravel())
    return out


# ---------------------------------------------------------------------------
# Constraints and solves
# ---------------------------------------------------------------------------

def eliminate_dirichlet(matrix, rhs, dofs, values=None):
    """Symmetric elimination of Dirichlet dofs.

    Zeroes constrained rows and columns, puts 1 on the diagonal, and corrects
    the right-hand side so the solution takes the prescribed values exactly.
    Returns (A, b) as new objects.
    """
    A = matrix.tocsr(copy=True)
    b = np.asarray(rhs, dtype=float).copy()
    dofs = np.asarray(dofs, dtype=int)
    if values is None:
        values = np.zeros(len(dofs))
    else:
        values = np.asarray(values, dtype=float)

    x_bc = np.zeros(A.shape[0])
    x_bc[dofs] = values
    b -= A @ x_bc
    b[dofs] = values

    mask = np.zeros(A.shape[0], dtype=bool)
    mask[dofs] = True
    keep = sp.diags((~mask).astype(float))
    A = keep @ A @ keep + sp.diags(mask.astype(float))
    A = A.tocsr()
    A.eliminate_zeros()
    return A, b


def solve_linear(matrix, rhs, factor=None, row_scale=None):
    """Sparse direct solve with an algebraic residual check.

    ``factor(matrix)`` returns the solve function of a factorization of
    ``matrix``; without it SuperLU factors ``matrix`` in its default column
    order. The residual is checked against ``matrix`` and ``rhs`` either way.
    When ``matrix`` is D A with the row scales D given as ``row_scale``, the
    check is made in A's rows: |D^-1 (matrix x - rhs)| <= RESIDUAL_TOL
    |D^-1 rhs|.
    """
    b = np.asarray(rhs, dtype=float)
    try:
        if factor is None:
            matrix = matrix.tocsc()
            solve = spla.splu(matrix).solve
        else:
            solve = factor(matrix)
    except RuntimeError as exc:
        raise SingularSystemError(f"factorization failed: {exc}") from exc
    x = solve(b)
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("solve produced non-finite values")
    scale = 1.0 if row_scale is None else row_scale
    bnorm = np.linalg.norm(b / scale)
    if bnorm > 0:
        res = np.linalg.norm((matrix @ x - b) / scale) / bnorm
        if not res <= RESIDUAL_TOL:  # a NaN residual fails too
            raise SingularSystemError(
                f"relative residual {res:.3e} exceeds {RESIDUAL_TOL:.1e}"
            )
    return x
