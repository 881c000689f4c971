"""Time-discretization layer.

Residual vectors, Jacobian matrices, free-energy evaluation and the per-step
convex potentials for the three schemes:

* ``homogeneous``  - convex-concave split double well, constant stiffness.
* ``implicit``     - convex-concave split double well, elastic contributions
                     fully implicit (stiffness and its derivative at phi^n).
* ``semi_implicit``- stiffness frozen at phi^{n-1} and the quadratic
                     C'(phi)-term evaluated at the previous time level, so
                     each step is the optimality system of a convex problem.

All residuals use the sign conventions of the variational statements; at a
fixed point mu equals the variational derivative of the free energy.
Dirichlet rows of the displacement block are replaced by value residuals.
Jacobians come in symmetric saddle form on the free dofs (``jacobian``).
The free energy is evaluated on the 2x2 rule the residuals are assembled
with, which is the discrete energy the schemes dissipate. A
``SchemeContext`` computes each previous-level field once
(``cached_property``); operators built from C(phi^{n-1}) go through
``SchemeContext.frozen_operator``, which keeps them for the step or, for a
homogeneous law, on the mesh.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import grid
from .grid import I_VOIGT

SCHEME_KINDS = ("homogeneous", "implicit", "semi_implicit")


class DivergedIterateError(Exception):
    """Residual evaluation hit non-finite values."""


@dataclass
class State:
    """Nodal coefficients (phi, mu, u) at one time level."""

    phi: np.ndarray
    mu: np.ndarray
    u: np.ndarray  # interleaved (ux_0, uy_0, ux_1, ...)
    mesh: grid.Mesh

    def copy(self):
        return State(self.phi.copy(), self.mu.copy(), self.u.copy(), self.mesh)

    def pack(self):
        return np.concatenate([self.phi, self.mu, self.u])

    @classmethod
    def unpack(cls, x, mesh):
        nn = mesh.node_count
        return cls(x[:nn].copy(), x[nn : 2 * nn].copy(), x[2 * nn :].copy(), mesh)

    @classmethod
    def zeros(cls, mesh):
        nn = mesh.node_count
        return cls(np.zeros(nn), np.zeros(nn), np.zeros(2 * nn), mesh)


@dataclass(frozen=True)
class EnergyBreakdown:
    chemical: float
    gradient: float
    elastic: float

    @property
    def total(self):
        return self.chemical + self.gradient + self.elastic


@dataclass(frozen=True)
class SchemeContext:
    """Frozen previous-time-level data and per-step assembled operators."""

    prev: State
    params: object  # ModelParams
    scheme_kind: str
    R: np.ndarray = None  # nodal source, None = zero
    f: np.ndarray = None  # nodal body force (interleaved), None = zero
    # per-step operators of frozen_operator, and the chord's LU (solvers)
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.scheme_kind not in SCHEME_KINDS:
            raise ValueError(f"unknown scheme kind {self.scheme_kind!r}")
        if self.scheme_kind == "homogeneous" and self.params.elastic.heterogeneous:
            raise ValueError("homogeneous scheme requires a homogeneous elastic law")

    @property
    def mesh(self):
        return self.prev.mesh

    # -- constant operators -------------------------------------------------

    @property
    def M(self):
        return self.mesh.mass

    @property
    def K(self):
        return self.mesh.stiffness

    @property
    def R_nodal(self):
        if self.R is None:
            return np.zeros(self.mesh.node_count)
        return self.R

    @cached_property
    def R_load(self):
        """Source load M R, fixed for the step."""
        return self.M @ self.R_nodal

    @cached_property
    def f_load(self):
        if self.f is None:
            return np.zeros(2 * self.mesh.node_count)
        fx = grid.scalar_at_qp(self.mesh, self.f[0::2])
        fy = grid.scalar_at_qp(self.mesh, self.f[1::2])
        return grid.assemble_vector_load(self.mesh, np.stack([fx, fy], axis=-1))

    # -- previous-level fields at quadrature points --------------------------

    @cached_property
    def phi_prev_qp(self):
        return grid.scalar_at_qp(self.mesh, self.prev.phi)

    @cached_property
    def C_prev_qp(self):
        """Stiffness tensor at the frozen phase field (semi-implicit)."""
        return self.params.elastic.tensor(self.phi_prev_qp)

    def frozen_operator(self, name, build):
        """Operator ``build()`` that depends on C(phi^{n-1}), built once.

        It is cached on the context for a heterogeneous law, where it changes
        every step. A homogeneous law's operators depend only on the mesh,
        ``xi`` and ``c_minus``, so they are cached on the mesh under a key
        holding both and shared by every step of a run.
        """
        law = self.params.elastic
        if law.heterogeneous:
            cache, key = self._cache, name
        else:
            c_minus = np.asarray(law.c_minus, dtype=float)
            cache, key = self.mesh._cache, (name, law.xi, c_minus.tobytes())
        if key not in cache:
            cache[key] = build()
        return cache[key]

    @property
    def elastic_matrix_prev(self):
        """Elasticity stiffness with C(phi^{n-1}); C constant if homogeneous."""
        def build():
            law = self.params.elastic
            C = law.c_minus if not law.heterogeneous else self.C_prev_qp
            return grid.assemble_vector_elasticity(self.mesh, C)

        return self.frozen_operator("A_prev", build)

    @property
    def coupling_prev(self):
        """G[i,a] = int p_i * xi I:C(phi^{n-1}) B_a dx."""
        def build():
            law = self.params.elastic
            if not law.heterogeneous:
                vec = law.xi * (I_VOIGT @ law.c_minus)
            else:
                vec = law.xi * np.einsum("c,eqcd->eqd", I_VOIGT, self.C_prev_qp)
            return grid.assemble_coupling(self.mesh, vec)

        return self.frozen_operator("G_prev", build)

    @cached_property
    def ici_prev_qp(self):
        """xi^2 I:C(phi^{n-1})I at quadrature points."""
        law = self.params.elastic
        if not law.heterogeneous:
            val = law.xi**2 * (I_VOIGT @ law.c_minus @ I_VOIGT)
            return np.full_like(self.phi_prev_qp, val)
        return law.xi**2 * np.einsum("c,eqcd,d->eq", I_VOIGT, self.C_prev_qp, I_VOIGT)

    @property
    def coupled_mass_prev(self):
        """Weighted mass with weight xi^2 I:C(phi^{n-1})I."""
        return self.frozen_operator(
            "W_prev",
            lambda: grid.assemble_weighted_mass(self.mesh, self.ici_prev_qp),
        )

    @cached_property
    def explicit_elastic_qp(self):
        """Explicit part of the semi-implicit coupling term at quadrature.

        0.5 * (eps(u^{n-1}) - xi phi^{n-1} I) : C'(phi^{n-1}) (same), a scalar
        per quadrature point, frozen for the whole step.
        """
        law = self.params.elastic
        if not law.heterogeneous:  # C' vanishes
            return np.zeros_like(self.phi_prev_qp)
        eps = grid.strain_at_qp(self.mesh, self.prev.u)
        e = eps - law.xi * self.phi_prev_qp[..., None] * I_VOIGT
        Cp = law.tensor_prime(self.phi_prev_qp)
        return 0.5 * np.einsum("eqc,eqcd,eqd->eq", e, Cp, e)

    @cached_property
    def psi_e_prime_prev_qp(self):
        return self.params.double_well.psi_e_prime(self.phi_prev_qp)

    @cached_property
    def frozen_mu_load(self):
        """Part of the mu rows fixed for the step (homogeneous, semi-implicit).

        (gamma/ell) load(Psi_e'(phi^{n-1})) - load(E^si(phi^{n-1}, u^{n-1})):
        the explicit double-well load plus the coupling load at the previous
        state, from which ``residual`` continues by matvecs.
        """
        p = self.params
        return (p.gamma / p.ell) * grid.assemble_scalar_load(
            self.mesh, self.psi_e_prime_prev_qp
        ) - grid.assemble_scalar_load(
            self.mesh, semi_implicit_coupling_term(self.prev, self)
        )


# ---------------------------------------------------------------------------
# Coupling terms
# ---------------------------------------------------------------------------

def elastic_energy_density_derivative_qp(law, phi_qp, eps_qp):
    """Pointwise variational derivative of the elastic energy w.r.t. phi.

    0.5 e : C'(phi) e - xi I : C(phi) e   with   e = eps - xi phi I.
    """
    e = eps_qp - law.xi * phi_qp[..., None] * I_VOIGT
    C = law.tensor(phi_qp)
    Cp = law.tensor_prime(phi_qp)
    quad = 0.5 * np.einsum("...c,...cd,...d->...", e, Cp, e)
    lin = law.xi * np.einsum("c,...cd,...d->...", I_VOIGT, C, e)
    return quad - lin


def semi_implicit_coupling_term(state, ctx):
    """Semi-implicit evaluation of the elastic derivative, per quadrature.

    Explicit quadratic part at the previous time level plus the implicit
    swelling part with stiffness frozen at phi^{n-1}. Coincides with the
    fully implicit derivative when evaluated at the previous state.
    """
    if ctx.scheme_kind not in ("semi_implicit", "homogeneous"):
        raise ValueError("coupling term defined for the semi-implicit form")
    law = ctx.params.elastic
    phi_qp = grid.scalar_at_qp(ctx.mesh, state.phi)
    eps_qp = grid.strain_at_qp(ctx.mesh, state.u)
    e = eps_qp - law.xi * phi_qp[..., None] * I_VOIGT
    if law.heterogeneous:
        lin = law.xi * np.einsum("c,eqcd,eqd->eq", I_VOIGT, ctx.C_prev_qp, e)
    else:
        lin = law.xi * np.einsum("c,cd,eqd->eq", I_VOIGT, law.c_minus, e)
    return ctx.explicit_elastic_qp - lin


# ---------------------------------------------------------------------------
# Residuals
# ---------------------------------------------------------------------------

def _phase_field_rows(state, ctx, phi_qp, eps_qp=None):
    """(phi, mu) rows of the residual; ``eps_qp`` is needed if implicit.

    For the homogeneous and semi-implicit schemes the elastic part of the mu
    rows is linear in the state with operators frozen at phi^{n-1}:
    -load(E^si(phi, u)) = -load(E^si at the previous state)
    + G_prev (u - u^{n-1}) - W_prev (phi - phi^{n-1}), exactly, on the same
    quadrature. Only Psi_c'(phi) is evaluated at quadrature points.
    """
    mesh = ctx.mesh
    params = ctx.params
    M, K = ctx.M, ctx.K
    r_phi = (
        M @ ((state.phi - ctx.prev.phi) / params.tau)
        + params.m * (K @ state.mu)
        - ctx.R_load
    )
    r_mu = M @ state.mu - params.gamma * params.ell * (K @ state.phi)
    psi_c = params.double_well.psi_c_prime(phi_qp)
    if ctx.scheme_kind == "implicit":
        r_mu -= (params.gamma / params.ell) * grid.assemble_scalar_load(
            mesh, psi_c - ctx.psi_e_prime_prev_qp
        )
        dE = elastic_energy_density_derivative_qp(params.elastic, phi_qp, eps_qp)
        r_mu -= grid.assemble_scalar_load(mesh, dE)
    else:
        r_mu -= (params.gamma / params.ell) * grid.assemble_scalar_load(mesh, psi_c)
        r_mu += ctx.frozen_mu_load
        r_mu += ctx.coupling_prev @ (state.u - ctx.prev.u)
        r_mu -= ctx.coupled_mass_prev @ (state.phi - ctx.prev.phi)
    return r_phi, r_mu


def residual(state, ctx):
    """Galerkin residual of the selected scheme, Dirichlet rows replaced.

    The homogeneous and semi-implicit schemes evaluate the elastic rows as
    matvecs with the operators of ``jacobian``: the u rows are
    A_prev u - G_prev^T phi - f, the mu rows as in ``_phase_field_rows``.
    The implicit scheme evaluates stress and coupling at quadrature points.
    """
    mesh = ctx.mesh
    law = ctx.params.elastic

    phi_qp = grid.scalar_at_qp(mesh, state.phi)
    if ctx.scheme_kind == "implicit":
        eps_qp = grid.strain_at_qp(mesh, state.u)
        r_phi, r_mu = _phase_field_rows(state, ctx, phi_qp, eps_qp)
        e = eps_qp - law.xi * phi_qp[..., None] * I_VOIGT
        sig = np.einsum("eqcd,eqd->eqc", law.tensor(phi_qp), e)
        # int sigma : eps(v) assembled through the strain-displacement matrices
        mats = np.einsum("q,eqc,qca->ea", mesh.qp_weights, sig, mesh.b_matrices)
        r_u = np.zeros(2 * mesh.node_count)
        np.add.at(r_u, mesh.u_dofs.ravel(), mats.ravel())
        r_u -= ctx.f_load
    else:
        r_phi, r_mu = _phase_field_rows(state, ctx, phi_qp)
        r_u = (
            ctx.elastic_matrix_prev @ state.u
            - ctx.coupling_prev.T @ state.phi
            - ctx.f_load
        )

    out = np.concatenate([r_phi, r_mu, r_u])
    if not np.all(np.isfinite(out)):
        raise DivergedIterateError("non-finite residual")

    # Dirichlet rows carry the value residual
    c = mesh.constrained_u_dofs
    out[2 * mesh.node_count + c] = state.u[c]
    return out


def _jacobian_qp(state, ctx):
    """Fields at quadrature points shared by the blocks of a Jacobian.

    phi, and for the implicit scheme e = eps(u) - xi phi I, C(phi) and
    C'(phi); None for the others.
    """
    phi_qp = grid.scalar_at_qp(ctx.mesh, state.phi)
    if ctx.scheme_kind != "implicit":
        return phi_qp, None, None, None
    law = ctx.params.elastic
    e = grid.strain_at_qp(ctx.mesh, state.u) - law.xi * phi_qp[..., None] * I_VOIGT
    return phi_qp, e, law.tensor(phi_qp), law.tensor_prime(phi_qp)


def _phase_field_blocks(ctx, phi_qp, e, C, Cp):
    """Data of the (mu, phi) rows of the saddle matrix, on the scalar pattern.

    The mu rows are d r_mu / d(phi, mu); the phi rows are tau d r_phi /
    d(phi, mu), which makes the block symmetric. Terms are combined after
    assembly and in the order written, tau (M / tau) included: another order
    changes the round-off of every Newton step.
    """
    params = ctx.params
    law = params.elastic
    M, K = ctx.M.data, ctx.K.data
    psi_cc = grid.assemble_weighted_mass(
        ctx.mesh, params.double_well.psi_c_second(phi_qp)
    ).data
    mu_phi = -params.gamma * params.ell * K - (params.gamma / params.ell) * psi_cc
    if ctx.scheme_kind == "implicit":
        g = (
            0.5 * np.einsum("eqc,eqcd,eqd->eq", e, law.tensor_second(phi_qp), e)
            - 2.0 * law.xi * np.einsum("c,eqcd,eqd->eq", I_VOIGT, Cp, e)
            + law.xi**2 * np.einsum("c,eqcd,d->eq", I_VOIGT, C, I_VOIGT)
        )
        mu_phi = mu_phi - grid.assemble_weighted_mass(ctx.mesh, g).data
    else:
        mu_phi = mu_phi - ctx.coupled_mass_prev.data
    return {
        "mu_phi": mu_phi,
        "mu_mu": M,
        "phi_phi": params.tau * (M * (1 / params.tau)),
        "phi_mu": params.tau * (params.m * K),
    }


def _jacobian_blocks(state, ctx):
    """Data of the blocks of ``jacobian``, each on its source pattern
    (``grid.SaddlePattern``). The coupling and u blocks span every u dof,
    the constrained ones included."""
    mesh = ctx.mesh
    law = ctx.params.elastic
    phi_qp, e, C, Cp = _jacobian_qp(state, ctx)
    if ctx.scheme_kind == "implicit":
        # d(dE/dphi)/du in direction eps(du): e:C' eps(du) - xi I:C eps(du)
        w = np.einsum("eqc,eqcd->eqd", e, Cp) - law.xi * np.einsum(
            "c,eqcd->eqd", I_VOIGT, C
        )
        G = -grid.assemble_coupling(mesh, w).data
        A = grid.assemble_vector_elasticity(mesh, C).data
    else:
        G = ctx.coupling_prev.data
        A = ctx.elastic_matrix_prev.data
    blocks = _phase_field_blocks(ctx, phi_qp, e, C, Cp)
    blocks.update(mu_u=G, u_phi=G, u_u=-A)
    return blocks


def jacobian(state, ctx):
    """Exact derivative of ``residual`` at ``state``, in saddle form.

    The rows are the (mu, tau phi, -u) rows of the derivative and the
    columns (phi, mu, u), with u on the free dofs only (the Dirichlet rows
    and columns are dropped). Each step is the stationarity system of a
    step potential, so this matrix is symmetric. Its pattern is fixed by
    the mesh (``grid.SaddlePattern``); only the data is computed here.
    """
    return ctx.mesh.saddle_pattern(full=True).matrix(_jacobian_blocks(state, ctx))


def ch_residual(state, ctx):
    """(phi, mu) rows of the residual at frozen displacement.

    Equal to the first two blocks of ``residual`` without its u rows; the
    displacement enters the homogeneous and semi-implicit schemes only
    through the G_prev matvec.
    """
    phi_qp = grid.scalar_at_qp(ctx.mesh, state.phi)
    eps_qp = None
    if ctx.scheme_kind == "implicit":
        eps_qp = grid.strain_at_qp(ctx.mesh, state.u)
    out = np.concatenate(_phase_field_rows(state, ctx, phi_qp, eps_qp))
    if not np.all(np.isfinite(out)):
        raise DivergedIterateError("non-finite residual")
    return out


def ch_jacobian(state, ctx):
    """(phi, mu) block of ``jacobian`` at frozen displacement, in saddle form."""
    blocks = _phase_field_blocks(ctx, *_jacobian_qp(state, ctx))
    return ctx.mesh.saddle_pattern(full=False).matrix(blocks)


# ---------------------------------------------------------------------------
# Energies and step potentials
# ---------------------------------------------------------------------------

def free_energy(state, params):
    """Free energy with the unsplit double well and the current C(phi).

    Evaluated on the 2x2 Gauss rule the schemes are assembled with: the time
    discretizations dissipate *this* discrete energy, so it is the one to
    monitor for gradient stability.
    """
    mesh = state.mesh
    law = params.elastic
    dw = params.double_well
    phi_e = state.phi[mesh.elements]
    phi_qp = phi_e @ mesh.shape_vals.T
    grad_qp = np.tensordot(phi_e, mesh.phys_grads, axes=([1], [1]))
    eps_qp = grid.strain_at_qp(mesh, state.u)
    w = mesh.qp_weights

    chemical = (params.gamma / params.ell) * np.einsum(
        "q,eq->", w, dw.psi(phi_qp)
    )
    gradient = 0.5 * params.gamma * params.ell * np.einsum(
        "q,eqd,eqd->", w, grad_qp, grad_qp
    )
    e = eps_qp - law.xi * phi_qp[..., None] * I_VOIGT
    sig = np.einsum("eqcd,eqd->eqc", law.tensor(phi_qp), e)
    elastic = 0.5 * np.einsum("q,eqc,eqc->", w, e, sig)
    return EnergyBreakdown(float(chemical), float(gradient), float(elastic))


def step_potential(state, ctx, mean_tol=1e-8):
    """Per-step convex potential of the homogeneous / semi-implicit scheme.

    The first term is the squared weighted dual norm of the constrained
    increment, so the increment must satisfy the mean constraint of the
    admissible space.
    """
    if ctx.scheme_kind == "implicit":
        raise ValueError("no convex step potential exists for the implicit scheme")
    from .analysis import dual_norm  # local import to avoid a cycle

    mesh = ctx.mesh
    params = ctx.params
    law = params.elastic
    dw = params.double_well
    w = mesh.qp_weights

    s = state.phi - ctx.prev.phi - params.tau * ctx.R_nodal
    dn = dual_norm(s, mesh, params.m, mean_tol=mean_tol)

    phi_qp = grid.scalar_at_qp(mesh, state.phi)
    grad_qp = grid.gradient_at_qp(mesh, state.phi)
    eps_qp = grid.strain_at_qp(mesh, state.u)
    e = eps_qp - law.xi * phi_qp[..., None] * I_VOIGT
    if law.heterogeneous:
        Cq = ctx.C_prev_qp
        elastic = 0.5 * np.einsum("q,eqc,eqcd,eqd->", w, e, Cq, e)
    else:
        elastic = 0.5 * np.einsum("q,eqc,cd,eqd->", w, e, law.c_minus, e)

    value = (
        dn**2 / (2.0 * params.tau)
        + (params.gamma / params.ell) * np.einsum("q,eq->", w, dw.psi_c(phi_qp))
        + 0.5 * params.gamma * params.ell * np.einsum(
            "q,eqd,eqd->", w, grad_qp, grad_qp
        )
        + elastic
        - (params.gamma / params.ell) * np.einsum(
            "q,eq,eq->", w, ctx.psi_e_prime_prev_qp, phi_qp
        )
        - float(ctx.f_load @ state.u)
    )
    if ctx.scheme_kind == "semi_implicit":
        # Sign normalized so the scheme's mu-equation is the stationarity
        # condition of this functional: the explicit quadratic term enters
        # the potential with the same sign it carries in the coupling term.
        value += np.einsum("q,eq,eq->", w, ctx.explicit_elastic_qp, phi_qp)
    return float(value)
