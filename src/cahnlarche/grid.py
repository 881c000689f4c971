"""Structured Q1 finite elements on the unit square.

Provides the mesh, quadrature, assembly primitives (scalar mass/stiffness,
vector elasticity, scalar-vector coupling, load vectors) on sparsity patterns
fixed per mesh, the saddle form of the Newton matrices in a nested-dissection
order of the grid (``SaddlePattern``) and symmetric Dirichlet elimination.
``factorize_spd`` makes the banded Cholesky factor of a symmetric positive
definite matrix (the free elasticity block), and ``solve_linear`` checks
the residual of a solve it is given, direct or iterative; SuperLU is
called by ``solvers.LaggedLU`` alone. The elasticity
of C(phi) = C_minus + pi(phi) Delta C is assembled from the weights pi at
the quadrature points alone: one product with the per-point element
matrices of Delta C, built once per mesh (``Mesh.elasticity_basis``); the
coupling likewise from per-point Voigt rows (``Mesh.coupling_basis``). All
elements are axis-aligned squares of side h = 1/n, with bilinear shape
functions on the reference square [0,1]^2 and counterclockwise node
ordering.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

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


def _gauss_1d():
    x, w = np.polynomial.legendre.leggauss(2)
    return 0.5 * (x + 1.0), 0.5 * w


# The 2-point Gauss rule on [0, 1], (points, weights); exact for cubics.
GAUSS_1D = _gauss_1d()


def gauss_rule():
    """Tensor square of ``GAUSS_1D`` on [0,1]^2; exact for Q1 x Q1."""
    x, w = GAUSS_1D
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
    """The saddle form S of a Newton matrix J, fixed by the mesh.

    S's column k is the unknown with index ``order[k]`` in J's (phi, mu, u)
    layout, with u on the free (interior) dofs only; its row k is J's
    equation paired with that unknown, scaled: mu's with phi, tau * phi's
    with mu, -u's with u. Each step is the stationarity system of a step
    potential, so S is symmetric. Each node's unknowns (phi, mu, then its
    free u dofs) are adjacent, and the nodes come in ``nested_dissection``
    order, so SuperLU factors S, held in CSC, as it is ordered. The blocks,
    named by equation and unknown, are

        mu_phi   mu_mu    mu_u
        phi_phi  phi_mu   .
        u_phi    .        u_u

    ``slots[name]`` holds, for every entry of the block's source pattern
    (``Mesh.pattern`` "scalar" for the four (phi, mu) blocks, "coupling" for
    ``mu_u`` and, transposed, ``u_phi``, "vector" for ``u_u``), its entry in
    S's data; entries on a constrained dof go to the spare entry ``nnz``.
    ``gather`` is the other direction: S's k-th entry is entry ``gather[k]``
    of the blocks' data concatenated in the order of ``slots``. The (phi, mu)
    block alone has the first four blocks.
    """

    shape: tuple
    indptr: np.ndarray
    indices: np.ndarray
    slots: dict
    gather: np.ndarray
    order: np.ndarray
    nodes: int
    # row scales per tau (``row_scales``)
    _scales: dict = field(default_factory=dict, repr=False, compare=False)
    # the scaled block data of the latest ``matrix`` call, concatenated; kept
    # so that a call allocates only S's data
    _source: np.ndarray = field(default=None, repr=False, compare=False)

    @classmethod
    def of(cls, mesh, full):
        """The full system's pattern or, without ``full``, the (phi, mu)
        block's, laid out by ``sp.bmat`` and ordered by scipy's indexing."""
        nn = mesh.node_count
        rank = np.empty(nn, dtype=np.int64)
        rank[nested_dissection(mesh.n_per_side)] = np.arange(nn)
        order = np.arange(2 * nn)
        if full:
            order = np.concatenate([order, 2 * nn + mesh.free_u_dofs])
        node = np.where(order < 2 * nn, order % nn, (order - 2 * nn) // 2)
        order = order[np.lexsort((order, rank[node]))]
        order.flags.writeable = False
        kinds = dict.fromkeys(("mu_phi", "mu_mu", "phi_phi", "phi_mu"), "scalar")
        if full:
            kinds.update(mu_u="coupling", u_phi="coupling", u_u="vector")
        ids, start = {}, 1  # every source entry numbered, none zero
        for name, kind in kinds.items():
            p = mesh.pattern(kind)
            number = np.arange(start, start + p.indices.size, dtype=float)
            ids[name] = sp.csr_matrix((number, p.indices, p.indptr), shape=p.shape)
            start += p.indices.size
        # rows (mu; phi; u): the equation of mu (phi) of a node takes the
        # place of that node's phi (mu) unknown
        B = [[ids["mu_phi"], ids["mu_mu"]], [ids["phi_phi"], ids["phi_mu"]]]
        if full:
            B = [B[0] + [ids["mu_u"]], B[1] + [None], [ids["u_phi"].T, None, ids["u_u"]]]
        S = sp.bmat(B, format="csr")[order][:, order].tocsc()
        S.sort_indices()
        slot = np.full(start, S.nnz)  # numbers dropped with a constrained dof
        slot[S.data.astype(np.int64)] = np.arange(S.nnz)
        ends = np.cumsum([ids[name].nnz for name in kinds])[:-1]
        slots = dict(zip(kinds, np.split(slot[1:], ends)))
        gather = S.data.astype(np.int64) - 1
        for a in (S.indptr, S.indices, gather):
            a.flags.writeable = False
        return cls(
            S.shape, S.indptr, S.indices, slots, gather, order, nn, _source=np.empty(start - 1)
        )

    def matrix(self, blocks, tau):
        """S, from the data ``blocks[name]`` of J's block ``name`` in J's own
        rows: the phi rows are scaled by ``tau``, the u rows by -1."""
        scale = {"phi_phi": tau, "phi_mu": tau, "u_phi": -1.0, "u_u": -1.0}
        start = 0
        for name, slot in self.slots.items():
            end = start + slot.size
            np.multiply(blocks[name], scale.get(name, 1.0), out=self._source[start:end])
            start = end
        data = self._source[self.gather]
        return sp.csc_matrix((data, self.indices, self.indptr), shape=self.shape)

    def rows(self, b, tau):
        """A vector ``b`` in J's (phi, mu[, u]) rows, in S's rows: paired
        with the unknowns of ``order`` and scaled as in ``matrix``."""
        nn = self.nodes
        return np.concatenate([b[nn : 2 * nn], tau * b[:nn], -b[2 * nn :]])[self.order]

    def row_scales(self, tau):
        """The scales of S's rows, the ``rows`` of a vector of ones: 1 for
        mu's equations, ``tau`` for phi's, -1 for u's; kept per ``tau``."""
        if tau not in self._scales:
            nn, k = self.nodes, self.order
            d = np.select([k < nn, k < 2 * nn], [1.0, tau], -1.0)
            d.flags.writeable = False
            self._scales[tau] = d
        return self._scales[tau]

    def unknowns(self, x, size):
        """An unknown ``x`` in S's order, in the (phi, mu[, u]) layout of
        ``size`` entries, zero on the constrained dofs."""
        out = np.zeros(size)
        out[self.order] = x
        return out


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
    _built: dict = field(default_factory=dict, repr=False, compare=False)

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

    def elasticity_basis(self, C):
        """Row q is the element matrix w_q B_q^T C B_q of the constant Voigt
        tensor C at quadrature point q, (nq, 64); built once per C."""
        C = np.asarray(C, dtype=float)

        def build():
            B = self.b_matrices
            basis = np.einsum("q,qca,cd,qdb->qab", self.qp_weights, B, C, B)
            return basis.reshape(B.shape[0], -1)

        return self.cached(("elasticity_basis", C.tobytes()), build)

    @cached_property
    def coupling_basis(self):
        """Row (q, c) holds w_q p_i (B_q)_ca at (i, a), (3 nq, 32): a
        per-point Voigt row v gives the coupling element matrix v @ basis."""
        B = self.b_matrices
        basis = np.einsum("q,qi,qca->qcia", self.qp_weights, self.shape_vals, B)
        return basis.reshape(3 * B.shape[0], -1)

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
        if kind == "scalar":
            return self.cached(("pattern", kind), lambda: _stencil_pattern(self))
        return self.cached(("pattern", kind), lambda: _dof_pattern(self, kind))

    def saddle_pattern(self, full):
        """CSC pattern of the saddle matrix of the (phi, mu) block or, with
        ``full``, of the whole system; built on first use (``SaddlePattern``)."""
        full = bool(full)
        return self.cached(("saddle_pattern", full), lambda: SaddlePattern.of(self, full))

    def cached(self, key, build):
        """``build()``, kept on the mesh under ``key``, a tuple naming its inputs."""
        if key not in self._built:
            self._built[key] = build()
        return self._built[key]

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
        quadrature=gauss_rule(),
    )


# ---------------------------------------------------------------------------
# Field evaluation at quadrature points
# ---------------------------------------------------------------------------

def scalar_at_qp(mesh, nodal):
    """Nodal scalar field evaluated at quadrature points, (n_elem, nq)."""
    return nodal[mesh.elements] @ mesh.shape_vals.T


def gradient_at_qp(mesh, nodal):
    """Gradient of nodal scalar field at quadrature points, (n_elem, nq, 2)."""
    return np.tensordot(nodal[mesh.elements], mesh.phys_grads, axes=([1], [1]))


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


def assemble_vector_elasticity(mesh, c, pi_qp, delta):
    """Elasticity stiffness int (C eps(u)) : eps(v) dx on interleaved u dofs.

    C = c + pi_qp delta at each point, from the per-quadrature weights
    ``pi_qp`` (n_elem, nq): C(phi) of an ``ElasticLaw`` with c = C_minus,
    delta = Delta C; a constant C is the case pi_qp delta = 0. Each element
    matrix is c's plus pi_qp @ ``Mesh.elasticity_basis(delta)``, one
    (n_elem, nq) @ (nq, 64) product for all elements. C must be symmetric
    positive definite, as every C(phi) of an ``ElasticLaw`` is.
    """
    C = np.asarray(c, dtype=float)
    B = mesh.b_matrices
    elem = np.einsum("q,qca,cd,qdb->ab", mesh.qp_weights, B, C, B)
    mats = pi_qp @ mesh.elasticity_basis(delta)
    mats += elem.ravel()
    return mesh.pattern("vector").assemble(mats)


def assemble_coupling(mesh, voigt_vec_qp):
    """Coupling matrix G[i, a] = int p_i * (v . B_a) dx.

    voigt_vec_qp is a per-quadrature Voigt row vector, shape (n_elem, nq, 3),
    such as ``ElasticLaw.swelling_row``. Maps u dofs (columns) to scalar
    test functions (rows). The element matrices are one
    (n_elem, 3 nq) @ (3 nq, 32) product with ``Mesh.coupling_basis``.
    """
    mats = voigt_vec_qp.reshape(mesh.element_count, -1) @ mesh.coupling_basis
    return mesh.pattern("coupling").assemble(mats)


def assemble_scalar_load(mesh, values_qp):
    """Load vector int f p_i dx from per-quadrature scalar values."""
    mats = (values_qp * mesh.qp_weights) @ mesh.shape_vals
    return np.bincount(
        mesh.elements.ravel(), weights=mats.ravel(), minlength=mesh.node_count
    )


def assemble_vector_load(mesh, values_qp):
    """Load vector int f . v dx from per-quadrature (n_elem, nq, 2) values."""
    mats = np.einsum("q,eqd,qi->eid", mesh.qp_weights, values_qp, mesh.shape_vals)
    return np.bincount(
        mesh.u_dofs.ravel(), weights=mats.ravel(), minlength=2 * mesh.node_count
    )


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


def _lower_band(matrix):
    """The lower triangle of the square sparse ``matrix`` in LAPACK's band
    storage: entry (i, j), i >= j, at [i - j, j] of a Fortran-ordered
    (kd + 1, N) array, kd the half-bandwidth of the stored pattern."""
    A = matrix.tocoo()
    lower = A.row >= A.col
    col = A.col[lower]
    offset = A.row[lower] - col
    band = np.zeros((offset.max(initial=0) + 1, A.shape[0]), order="F")
    band[offset, col] = A.data[lower]
    return band


def factorize_spd(matrix):
    """The solve function of the banded Cholesky factor of the symmetric
    positive definite sparse ``matrix`` (LAPACK ``dpbtrf``/``dpbtrs``;
    Anderson et al., LAPACK Users' Guide, 1999).

    The band is that of the stored pattern in the matrix's own order: the
    free elasticity dofs, ascending, give a half-bandwidth of 2n + 1. A
    matrix that is not positive definite raises ``SingularSystemError``.
    """
    factor, info = lapack.dpbtrf(_lower_band(matrix), lower=1, overwrite_ab=1)
    if info != 0:
        reason = (
            f"leading minor of order {info} is not positive definite"
            if info > 0 else f"dpbtrf argument {-info} is invalid"
        )
        raise SingularSystemError(f"factorization failed: {reason}")

    def solve(b):
        x, info = lapack.dpbtrs(factor, b, lower=1)
        if info != 0:
            raise SingularSystemError(f"dpbtrs argument {-info} is invalid")
        return x

    return solve


def solve_linear(matrix, rhs, solve, row_scale=None):
    """``solve(rhs)``, checked as a solution of ``matrix`` x = ``rhs``.

    ``solve`` may be an LU or Cholesky solve (``solvers.LaggedLU``,
    ``factorize_spd``) or an iterative one. A result that is non-finite or
    whose relative residual exceeds ``RESIDUAL_TOL`` raises
    ``SingularSystemError``. When ``matrix`` is D A with the row scales D
    given as ``row_scale``, the check is made in A's rows:
    |D^-1 (matrix x - rhs)| <= RESIDUAL_TOL |D^-1 rhs|.
    """
    b = np.asarray(rhs, dtype=float)
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
