"""Time-discretization layer.

Residual vectors, Jacobian matrices, free-energy evaluation and the per-step
convex potentials for the three schemes:

* ``implicit``     - convex-concave split double well, elastic contributions
                     fully implicit (stiffness and its derivative at phi^n).
* ``semi_implicit``- stiffness frozen at phi^{n-1} and the quadratic
                     C'(phi)-term evaluated at the previous time level, so
                     each step is the optimality system of a convex problem.
* ``homogeneous``  - ``semi_implicit`` of a law with Delta C = 0, checked by
                     ``SchemeContext``: with a constant C the schemes are one,
                     Eyre's convex-concave step (Eyre 1998, MRS Proc. 529).

All residuals use the sign conventions of the variational statements; at a
fixed point mu equals the variational derivative of the free energy.
Dirichlet rows of the displacement block are replaced by value residuals.
Residual and Jacobian have one kernel each, testing the scheme once
(``_residual``, ``_jacobian_blocks``); the Cahn-Hilliard block is the kernel
without the u rows. Jacobians come in symmetric saddle form on the free dofs.
The free energy and the step potentials share one quadrature (``_energies``)
on the 2x2 rule the residuals use: the discrete energy the schemes dissipate. A
``SchemeContext`` holds phi^{n-1}, the parameters and the scheme kind, and
computes each piece of data frozen at phi^{n-1} once (``cached_property``):
for a law with Delta C = 0, whose operators do not depend on phi^{n-1},
it takes them from the mesh's cache, shared by every step. It builds and
factors every elasticity block (``SchemeContext.elasticity``).

C(phi) = C_minus + pi(phi) Delta C enters every residual, Jacobian and
energy only through the scalars pi, pi' and pi'' at the quadrature points
(``ElasticLaw.weight``), combined with tensors fixed per law and mesh: the
stress is C_minus e + pi Delta C e (``ElasticLaw.stress``, which the
implicit residual inlines to share Delta C e with the elastic derivative),
the elasticity block is assembled from pi
(``grid.assemble_vector_elasticity``), the coupling from the rows
xi (I.C_minus + pi I.Delta C) (``ElasticLaw.swelling_row``). No 3x3 tensor
is formed per point. A homogeneous law is the case Delta C = 0, where
pi Delta C is exactly zero, with no formulas of its own; its explicit
elastic term is zero without evaluation.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import grid
from .grid import I_VOIGT

SCHEME_KINDS = ("homogeneous", "implicit", "semi_implicit")


class DivergedIterateError(Exception):
    """Residual evaluation hit non-finite values."""


@dataclass(frozen=True)
class State:
    """Nodal coefficients x = (phi, mu, u) at one time level; ``phi``,
    ``mu`` and ``u`` are views of its blocks, so writing them writes x."""

    x: np.ndarray
    mesh: grid.Mesh

    @property
    def phi(self):
        return self.x[: self.mesh.node_count]

    @property
    def mu(self):
        return self.x[self.mesh.node_count : 2 * self.mesh.node_count]

    @property
    def u(self):  # interleaved (ux_0, uy_0, ux_1, ...)
        return self.x[2 * self.mesh.node_count :]

    def copy(self):
        return State(self.x.copy(), self.mesh)

    @classmethod
    def zeros(cls, mesh):
        return cls(np.zeros(4 * mesh.node_count), mesh)


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
    """The data of phi^{n-1} that a step freezes, each piece computed once
    (``cached_property``)."""

    prev: State
    params: object  # ModelParams
    scheme_kind: str

    def __post_init__(self):
        if self.scheme_kind not in SCHEME_KINDS:
            raise ValueError(f"unknown scheme kind {self.scheme_kind!r}")
        if self.scheme_kind == "homogeneous" and self.params.elastic.heterogeneous:
            raise ValueError("homogeneous scheme requires a law with C_plus = C_minus")

    @property
    def mesh(self):
        return self.prev.mesh

    # -- previous-level fields at quadrature points --------------------------

    @cached_property
    def phi_prev_qp(self):
        return grid.scalar_at_qp(self.mesh, self.prev.phi)

    @cached_property
    def pi_prev_qp(self):
        """pi(phi^{n-1}): C(phi^{n-1}) = C_minus + pi_prev_qp Delta C."""
        return self.params.elastic.weight(self.phi_prev_qp)

    # -- operators built from C(phi^{n-1}) -----------------------------------

    def _shared(self, name, build):
        """``build()``, or for a law with Delta C = 0, whose operators depend
        only on the mesh, ``xi`` and ``c_minus``, kept on the mesh under a
        key holding both and shared by every step of a run."""
        law = self.params.elastic
        if law.heterogeneous:
            return build()
        return self.mesh.cached((name, law.xi, law.c_minus.tobytes()), build)

    @cached_property
    def elastic_matrix_prev(self):
        """Elasticity stiffness with C(phi^{n-1})."""
        law = self.params.elastic
        return self._shared(
            "A_prev",
            lambda: grid.assemble_vector_elasticity(
                self.mesh, law.c_minus, self.pi_prev_qp, law.delta
            ),
        )

    @cached_property
    def elastic_factor_prev(self):
        """(A, solve) of ``_free_factor`` for ``elastic_matrix_prev``."""
        return self._shared(
            "elast_cholesky", lambda: _free_factor(self.mesh, self.elastic_matrix_prev)
        )

    @cached_property
    def coupling_prev(self):
        """G[i,a] = int p_i * xi I:C(phi^{n-1}) B_a dx."""
        return self._shared(
            "G_prev",
            lambda: grid.assemble_coupling(
                self.mesh, self.params.elastic.swelling_row(self.pi_prev_qp)
            ),
        )

    def elasticity(self, state):
        """(A, solve, G) of the elasticity solve at ``state``: the free
        stiffness block and its solve (``_free_factor``), and the coupling.
        The implicit scheme assembles both at pi(phi) of ``state`` each call;
        the frozen ones return ``elastic_factor_prev`` and ``coupling_prev``.
        """
        if self.scheme_kind != "implicit":
            return (*self.elastic_factor_prev, self.coupling_prev)
        law = self.params.elastic
        pi = law.weight(grid.scalar_at_qp(self.mesh, state.phi))
        A = grid.assemble_vector_elasticity(self.mesh, law.c_minus, pi, law.delta)
        G = grid.assemble_coupling(self.mesh, law.swelling_row(pi))
        return (*_free_factor(self.mesh, A), G)

    @cached_property
    def ch_jacobian_prev(self):
        """``ch_jacobian`` at phi^{n-1}: the matrix of the chord."""
        return ch_jacobian(self.prev, self)

    @cached_property
    def coupled_mass_prev(self):
        """Weighted mass with weight xi^2 I:C(phi^{n-1})I."""
        law = self.params.elastic
        return self._shared(
            "W_prev",
            lambda: grid.assemble_weighted_mass(
                self.mesh, law.swelling_modulus(self.pi_prev_qp)
            ),
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
        e, dce = _misfit_qp(law, self.phi_prev_qp, eps)
        return 0.5 * law.weight(self.phi_prev_qp, 1) * np.einsum("eqc,eqc->eq", e, dce)

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


def _free_factor(mesh, A):
    """(A_free, solve): the free block of the stiffness ``A``, SPD and banded
    in the ascending order of the free dofs, and its banded Cholesky solve
    (``grid.factorize_spd``)."""
    free = mesh.free_u_dofs
    A = A[free][:, free]
    return A, grid.factorize_spd(A)


# ---------------------------------------------------------------------------
# Coupling terms
# ---------------------------------------------------------------------------

def _voigt(v, m):
    """v @ m for per-point Voigt vectors v (..., 3) and a fixed (3,) or
    (3, 3) m, as one 2-D product (a stacked product is slower)."""
    return (v.reshape(-1, 3) @ m).reshape(v.shape[:-1] + m.shape[1:])


def _misfit_qp(law, phi_qp, eps_qp):
    """The misfit strain e = eps - xi phi I and Delta C e, per point."""
    e = eps_qp - law.xi * phi_qp[..., None] * I_VOIGT
    return e, _voigt(e, law.delta)


def elastic_energy_density_derivative_qp(law, phi_qp, e, dce, sigma):
    """Pointwise variational derivative of the elastic energy w.r.t. phi.

    0.5 e : C'(phi) e - xi I : C(phi) e, from the misfit e, dce = Delta C e
    (``_misfit_qp``) and the stress sigma = C(phi) e: it is
    0.5 pi'(phi) e . dce - xi I . sigma.
    """
    quad = 0.5 * law.weight(phi_qp, 1) * np.einsum("...c,...c->...", e, dce)
    return quad - law.xi * _voigt(sigma, I_VOIGT)


def _implicit_elastic_qp(law, phi_qp, eps_qp):
    """Stress sigma = C(phi) e and the derivative of
    ``elastic_energy_density_derivative_qp`` at the quadrature points, with
    e and Delta C e computed once for both: sigma = C_minus e + pi Delta C e.
    """
    e, dce = _misfit_qp(law, phi_qp, eps_qp)
    sigma = _voigt(e, law.c_minus) + law.weight(phi_qp)[..., None] * dce
    return sigma, elastic_energy_density_derivative_qp(law, phi_qp, e, dce, sigma)


def semi_implicit_coupling_term(state, ctx):
    """Semi-implicit evaluation of the elastic derivative, per quadrature.

    Explicit quadratic part at the previous time level plus the implicit
    swelling part with stiffness frozen at phi^{n-1}. Coincides with the
    fully implicit derivative when evaluated at the previous state.
    """
    if ctx.scheme_kind == "implicit":
        raise ValueError("coupling term defined for the semi-implicit form")
    law = ctx.params.elastic
    phi_qp = grid.scalar_at_qp(ctx.mesh, state.phi)
    eps_qp = grid.strain_at_qp(ctx.mesh, state.u)
    e = eps_qp - law.xi * phi_qp[..., None] * I_VOIGT
    lin = np.einsum("eqc,eqc->eq", e, law.swelling_row(ctx.pi_prev_qp))
    return ctx.explicit_elastic_qp - lin


# ---------------------------------------------------------------------------
# Residuals
# ---------------------------------------------------------------------------

def _residual(state, ctx, u_rows):
    """The kernel of ``residual`` and, without ``u_rows``, of
    ``ch_residual``: the (phi, mu) rows are one computation either way, and
    every row computed is checked to be finite.

    For the homogeneous and semi-implicit schemes the elastic part of the mu
    rows is linear in the state with operators frozen at phi^{n-1}:
    -load(E^si(phi, u)) = -load(E^si at the previous state)
    + G_prev (u - u^{n-1}) - W_prev (phi - phi^{n-1}), exactly, on the same
    quadrature. Only Psi_c'(phi) is evaluated at quadrature points.
    """
    mesh = ctx.mesh
    params = ctx.params
    M, K = mesh.mass, mesh.stiffness
    phi_qp = grid.scalar_at_qp(mesh, state.phi)
    r_phi = M @ ((state.phi - ctx.prev.phi) / params.tau) + params.m * (K @ state.mu)
    r_mu = M @ state.mu - params.gamma * params.ell * (K @ state.phi)
    psi_c = params.double_well.psi_c_prime(phi_qp)
    if ctx.scheme_kind == "implicit":
        eps_qp = grid.strain_at_qp(mesh, state.u)
        sig, dE = _implicit_elastic_qp(params.elastic, phi_qp, eps_qp)
        r_mu -= (params.gamma / params.ell) * grid.assemble_scalar_load(
            mesh, psi_c - ctx.psi_e_prime_prev_qp
        )
        r_mu -= grid.assemble_scalar_load(mesh, dE)
        if u_rows:
            # int sigma : eps(v), through the weighted strain-displacement matrices
            wB = (mesh.qp_weights[:, None, None] * mesh.b_matrices).reshape(-1, 8)
            mats = sig.reshape(mesh.element_count, -1) @ wB
            r_u = np.bincount(
                mesh.u_dofs.ravel(), weights=mats.ravel(), minlength=2 * mesh.node_count
            )
    else:
        r_mu -= (params.gamma / params.ell) * grid.assemble_scalar_load(mesh, psi_c)
        r_mu += ctx.frozen_mu_load
        r_mu += ctx.coupling_prev @ (state.u - ctx.prev.u)
        r_mu -= ctx.coupled_mass_prev @ (state.phi - ctx.prev.phi)
        if u_rows:
            r_u = ctx.elastic_matrix_prev @ state.u - ctx.coupling_prev.T @ state.phi

    out = np.concatenate([r_phi, r_mu, r_u] if u_rows else [r_phi, r_mu])
    if not np.all(np.isfinite(out)):
        raise DivergedIterateError("non-finite residual")
    return out


def residual(state, ctx):
    """Galerkin residual of the selected scheme, Dirichlet rows replaced.

    The homogeneous and semi-implicit schemes evaluate the elastic rows as
    matvecs with the operators of ``jacobian``: the u rows are
    A_prev u - G_prev^T phi, the mu rows as in ``_residual``.
    The implicit scheme evaluates stress and coupling at quadrature points
    (``_implicit_elastic_qp``).
    """
    out = _residual(state, ctx, u_rows=True)
    # Dirichlet rows carry the value residual
    c = ctx.mesh.constrained_u_dofs
    out[2 * ctx.mesh.node_count + c] = state.u[c]
    return out


def _jacobian_blocks(state, ctx, u_rows):
    """The kernel of ``jacobian`` and, without ``u_rows``, of ``ch_jacobian``:
    the data of the blocks of ``residual``'s derivative J in J's own rows,
    each on its source pattern (``grid.SaddlePattern``, which scales the phi
    rows by tau, making J symmetric). The coupling and u blocks span every u
    dof, the constrained ones included. The implicit scheme evaluates e,
    Delta C e and pi, pi', pi'' at the quadrature points; the frozen ones
    take W, G and A of phi^{n-1} from ``ctx``. Terms are combined after
    assembly and in the order written, M * (1 / tau) included: another order
    changes the round-off of every Newton step.
    """
    mesh, params = ctx.mesh, ctx.params
    law = params.elastic
    M, K = mesh.mass.data, mesh.stiffness.data
    phi_qp = grid.scalar_at_qp(mesh, state.phi)
    psi_cc = grid.assemble_weighted_mass(mesh, params.double_well.psi_c_second(phi_qp))
    mu_phi = -params.gamma * params.ell * K - (params.gamma / params.ell) * psi_cc.data
    if ctx.scheme_kind == "implicit":
        e, dce = _misfit_qp(law, phi_qp, grid.strain_at_qp(mesh, state.u))
        pi, pi1, pi2 = (law.weight(phi_qp, k) for k in range(3))
        # 0.5 e:C''e - 2 xi I:C'e + xi^2 I:C:I
        g = (
            0.5 * pi2 * np.einsum("eqc,eqc->eq", e, dce)
            - 2.0 * law.xi * pi1 * _voigt(dce, I_VOIGT)
            + law.swelling_modulus(pi)
        )
        W = grid.assemble_weighted_mass(mesh, g).data
        if u_rows:
            # d(dE/dphi)/du in direction eps(du): e:C' eps(du) - xi I:C eps(du)
            w = pi1[..., None] * dce - law.swelling_row(pi)
            G = -grid.assemble_coupling(mesh, w).data
            A = grid.assemble_vector_elasticity(mesh, law.c_minus, pi, law.delta).data
    else:
        W = ctx.coupled_mass_prev.data
        if u_rows:
            G, A = ctx.coupling_prev.data, ctx.elastic_matrix_prev.data
    blocks = {
        "mu_phi": mu_phi - W,
        "mu_mu": M,
        "phi_phi": M * (1 / params.tau),
        "phi_mu": params.m * K,
    }
    if u_rows:
        blocks.update(mu_u=G, u_phi=-G, u_u=A)
    return blocks


def jacobian(state, ctx):
    """Exact derivative of ``residual`` at ``state``, in saddle form.

    The rows are the (mu, tau phi, -u) rows of the derivative and the
    columns (phi, mu, u), with u on the free dofs only (the Dirichlet rows
    and columns are dropped). Each step is the stationarity system of a
    step potential, so this matrix is symmetric. Its pattern, order and row
    scales are fixed by the mesh (``grid.SaddlePattern``); only the data is
    computed here.
    """
    pattern = ctx.mesh.saddle_pattern(full=True)
    return pattern.matrix(_jacobian_blocks(state, ctx, u_rows=True), ctx.params.tau)


def ch_residual(state, ctx):
    """(phi, mu) rows of ``residual``, at frozen displacement: the same
    computation without the u rows."""
    return _residual(state, ctx, u_rows=False)


def ch_jacobian(state, ctx):
    """(phi, mu) block of ``jacobian`` at frozen displacement, in saddle form."""
    pattern = ctx.mesh.saddle_pattern(full=False)
    return pattern.matrix(_jacobian_blocks(state, ctx, u_rows=False), ctx.params.tau)


# ---------------------------------------------------------------------------
# Energies and step potentials
# ---------------------------------------------------------------------------

def _energies(state, params, psi, pi=None):
    """phi at the quadrature points and the integrals of (gamma/ell) psi(phi),
    (gamma ell / 2) |grad phi|^2 and e : C e / 2 over the 2x2 rule, with
    e = eps(u) - xi phi I and C = C_minus + pi Delta C per point, pi the
    given weights or, if None, pi(phi) of the state: the energy and the step
    potential differ only in psi and pi (Eyre 1998, MRS Proc. 529).
    """
    mesh, law = state.mesh, params.elastic
    w = mesh.qp_weights
    phi_qp = grid.scalar_at_qp(mesh, state.phi)
    grad_qp = grid.gradient_at_qp(mesh, state.phi)
    e = grid.strain_at_qp(mesh, state.u)
    e -= law.xi * phi_qp[..., None] * I_VOIGT
    sig = law.stress(e, law.weight(phi_qp) if pi is None else pi)
    chemical = (params.gamma / params.ell) * np.einsum("q,eq->", w, psi(phi_qp))
    gradient = 0.5 * params.gamma * params.ell * np.einsum(
        "q,eqd,eqd->", w, grad_qp, grad_qp
    )
    elastic = 0.5 * np.einsum("q,eqc,eqc->", w, e, sig)
    return phi_qp, EnergyBreakdown(float(chemical), float(gradient), float(elastic))


def free_energy(state, params):
    """Free energy with the unsplit double well and the current C(phi).

    The time discretizations dissipate *this* discrete energy (on the 2x2
    rule of ``_energies``), so it is the one to monitor for gradient
    stability.
    """
    return _energies(state, params, params.double_well.psi)[1]


def step_potential(state, ctx, mean_tol=1e-8):
    """Per-step convex potential of the homogeneous / semi-implicit scheme.

    The chemical, gradient and elastic integrals of ``free_energy`` with the
    convex part Psi_c of the double well and the stiffness C(phi^{n-1}),
    plus the dual-norm term and the explicit terms of phi^{n-1}. The first
    term is the squared weighted dual norm of the constrained increment, so
    the increment must satisfy the mean constraint of the admissible space.
    """
    if ctx.scheme_kind == "implicit":
        raise ValueError("no convex step potential exists for the implicit scheme")
    from .analysis import dual_norm  # local import to avoid a cycle

    params = ctx.params
    w = ctx.mesh.qp_weights
    dn = dual_norm(state.phi - ctx.prev.phi, ctx.mesh, params.m, mean_tol=mean_tol)
    phi_qp, terms = _energies(state, params, params.double_well.psi_c, ctx.pi_prev_qp)

    value = (
        dn**2 / (2.0 * params.tau)
        + terms.chemical
        + terms.gradient
        + terms.elastic
        - (params.gamma / params.ell) * np.einsum(
            "q,eq,eq->", w, ctx.psi_e_prime_prev_qp, phi_qp
        )
        # Sign normalized so the scheme's mu-equation is the stationarity
        # condition of this functional: the explicit quadratic term enters
        # the potential with the same sign it carries in the coupling term.
        + np.einsum("q,eq,eq->", w, ctx.explicit_elastic_qp, phi_qp)
    )
    return float(value)
