"""Nonlinear solvers for a single time step.

Two strategies solve the coupled optimality system:

* ``newton_monolithic`` - exact Newton on the full (phi, mu, u) system.
* ``alternating_minimization`` - outer loop alternating a Newton solve of
  the phase-field block (``newton_ch_block``, displacement frozen) with a
  linear elasticity solve, optionally wrapped in Anderson acceleration.

All three iterations run in one loop, ``_iterate``. A solver supplies its
residual and its step, which returns the new iterate and the increment; the
loop keeps the report, measures increments in L2, and stops once at least
one residual criterion (absolute or relative) and at least one increment
criterion hold simultaneously, all four with the one tolerance of the
``StoppingRule``. The phase-field block of alternating minimization stops
on the outer loop's rule, within at most 50 passes, or 200 with the chord
(``_INNER_MAX_ITER``). Failure to converge is a reported outcome, not an
exception.

Every Newton matrix (monolithic, phase-field block, chord) arrives from
``schemes`` in its symmetric saddle-point form on the free dofs, already in
a nested-dissection order fixed by the mesh (``grid.SaddlePattern``), and
is factored in that order; ``_saddle_rows`` and ``_layout`` map vectors
between the (phi, mu, u) layout and the saddle order.

The exact Newton solves (monolithic, and the phase-field block without the
chord) reuse a lagged LU (``LaggedLU``): the latest saddle LU preconditions
at most ``_LAGGED_GMRES_STEPS`` GMRES steps on each new matrix, which is
factored, and its LU held instead, only when the GMRES iterate fails the
residual check of ``grid.solve_linear``. GMRES gives up early once a
step beyond the first cuts its residual estimate by less than
``1 / _GMRES_GIVE_UP``. ``harness.run_simulation`` passes one ``LaggedLU``
to every time step, so a step's first matrix is solved with the previous
step's last LU; a standalone ``newton_monolithic`` or
``alternating_minimization`` call makes its own.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from . import grid, schemes
from .acceleration import AndersonWindow
from .schemes import DivergedIterateError, State

_POTENTIAL_MEAN_TOL = 1e-5


@dataclass(frozen=True)
class StoppingRule:
    """Mixed residual/increment termination test.

    Each family (residual, increment) offers an absolute and a relative
    criterion, all four with the tolerance ``tol``; the iteration terminates
    when both families are satisfied, each through at least one of its two
    criteria. Comparisons are inclusive.
    """

    tol: float = 1e-6

    def residual_ok(self, res, res0):
        if res <= self.tol:
            return True
        return res0 > 0 and res / res0 <= self.tol

    def increment_ok(self, inc, inc_first):
        if sum(inc) <= self.tol:
            return True
        rel = 0.0
        for a, b in zip(inc, inc_first):
            if b > 0:
                rel += a / b
            elif a > 0:
                return False
        return rel <= self.tol

    def satisfied(self, res, res0, inc, inc_first):
        return self.residual_ok(res, res0) and self.increment_ok(inc, inc_first)


@dataclass
class SolveReport:
    """Outcome of one nonlinear solve.

    ``iterations`` counts executed loop passes. ``effective_iterations``
    counts only the passes that moved the iterate by more than the
    increment tolerance; the terminal pass of a converged solve merely
    confirms that the iterate stopped changing and is excluded, matching
    the usual reporting of iteration counts.
    """

    converged: bool
    iterations: int
    residual_norms: list = field(default_factory=list)
    increment_norms: list = field(default_factory=list)  # (phi, mu, u) triples
    potential_history: list = field(default_factory=list)
    reason: str = ""
    increment_floor: float = 1e-6

    @property
    def effective_iterations(self):
        moved = sum(1 for inc in self.increment_norms if sum(inc) > self.increment_floor)
        return max(moved, 1) if self.increment_norms else self.iterations


def _l2_norms(mesh, dx):
    """L2 norms of the phi, mu and (if present) u blocks of an increment."""
    M = mesh.mass
    nn = mesh.node_count
    dphi, dmu, du = dx[:nn], dx[nn : 2 * nn], dx[2 * nn :]
    n_phi = np.sqrt(max(float(dphi @ (M @ dphi)), 0.0))
    n_mu = np.sqrt(max(float(dmu @ (M @ dmu)), 0.0))
    if du.size == 0:
        return (n_phi, n_mu)
    ux, uy = du[0::2], du[1::2]
    n_u = np.sqrt(max(float(ux @ (M @ ux)) + float(uy @ (M @ uy)), 0.0))
    return (n_phi, n_mu, n_u)


class _StepFailed(Exception):
    """An iteration step could not continue; the message is the reason."""


def _iterate(state, residual, step, stopping, max_iter, exhausted, r=None):
    """The iteration shared by every solver.

    Repeats ``state, dx = step(state, r)`` with ``r = residual(state)`` until
    ``stopping`` holds, starting from the residual ``r`` if it is given.
    Increments are measured by ``_l2_norms``; the first residual and the
    first increment are the references of the relative criteria. A step
    raising ``_StepFailed``, a residual raising ``DivergedIterateError`` or a
    non-finite residual norm ends the iteration with that reason; running
    out of iterations ends it with ``exhausted``. Returns the last iterate
    and the SolveReport.
    """
    report = SolveReport(converged=False, iterations=0, increment_floor=stopping.tol)
    try:
        if r is None:
            r = residual(state)
        report.residual_norms.append(float(np.linalg.norm(r)))
        for it in range(1, max_iter + 1):
            report.iterations = it
            state, dx = step(state, r)
            inc = _l2_norms(state.mesh, dx)
            report.increment_norms.append(inc)
            r = residual(state)
            res = float(np.linalg.norm(r))
            report.residual_norms.append(res)
            if not np.isfinite(res):
                raise _StepFailed("non-finite residual")
            if stopping.satisfied(
                res, report.residual_norms[0], inc, report.increment_norms[0]
            ):
                report.converged = True
                return state, report
        report.reason = exhausted
    except (_StepFailed, DivergedIterateError) as exc:
        report.reason = str(exc)
    return state, report


# Diagonal pivot threshold of the saddle-form factorization: SuperLU takes
# the diagonal entry as pivot unless it is below this fraction of the
# largest entry of its column.
_SADDLE_PIVOT_THRESHOLD = 1e-3


def _saddle_rows(mesh, tau, b):
    """A (phi, mu[, u]) vector in the saddle matrix's row order.

    Row k is the equation paired with the unknown ``order[k]`` of the
    mesh's ``grid.SaddlePattern``, scaled as in ``schemes.jacobian``: mu's
    with phi, tau * phi's with mu and -u's with u.
    """
    nn = mesh.node_count
    paired = np.concatenate([b[nn : 2 * nn], tau * b[:nn], -b[2 * nn :]])
    return paired[mesh.saddle_pattern(b.size > 2 * nn).order]


def _layout(mesh, x, size):
    """A saddle-order unknown in the (phi, mu[, u]) layout of ``size``
    entries, with zero increments on the constrained dofs."""
    out = np.zeros(size)
    out[mesh.saddle_pattern(size > 2 * mesh.node_count).order] = x
    return out


def _factor_saddle(S):
    """SuperLU of the symmetric saddle matrix ``S``; returns its solve.

    S arrives in the nested-dissection order of its ``grid.SaddlePattern``,
    fixed by the mesh, so SuperLU keeps that order (it only post-orders the
    elimination tree) and takes diagonal pivots.
    """
    try:
        lu = spla.splu(
            S, permc_spec="NATURAL",
            diag_pivot_thresh=_SADDLE_PIVOT_THRESHOLD,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise grid.SingularSystemError(f"factorization failed: {exc}") from exc
    return lu.solve


# At most this many GMRES steps are tried with the held LU before a saddle
# matrix is factored afresh. Chosen on am-anderson-n32 and
# spinodal-newton-n32 (see ROADMAP, Recent).
_LAGGED_GMRES_STEPS = 5

# GMRES gives up once a step beyond the first keeps more than this fraction
# of its residual estimate: at that rate the remaining steps seldom reach
# _GMRES_RTOL, so the matrix is factored without spending them.
_GMRES_GIVE_UP = 0.05

# GMRES stops once its own residual estimate is below this fraction of the
# right-hand side, so that the iterate it returns passes the residual check
# of grid.solve_linear.
_GMRES_RTOL = grid.RESIDUAL_TOL / 10


def _gmres(S, d, precond, b):
    """At most ``_LAGGED_GMRES_STEPS`` GMRES steps on J x = b / d from x = 0.

    J = S / d is the Newton matrix in its own rows (``d`` the row scales of
    S). The right preconditioner v -> precond(d * v) is J'^-1 for the saddle
    matrix S' whose LU solve is ``precond``. The preconditioned directions
    are kept, so each step costs one LU solve and one product with S.
    Givens rotations keep the least-squares problem triangular and give its
    residual (Saad & Schultz 1986), with no LAPACK call. A step beyond the
    first that cuts that residual by less than ``1 / _GMRES_GIVE_UP`` ends
    the attempt. Returns the iterate, which may miss the tolerance.
    """
    c = b / d
    beta = np.linalg.norm(c)
    if beta == 0:
        return np.zeros_like(c)
    k = _LAGGED_GMRES_STEPS
    R = np.zeros((k, k))  # the rotated Hessenberg matrix
    g = [beta]  # the rotated beta e1
    V, Z, rotations = [c / beta], [], []
    for j in range(k):
        z = precond(d * V[j])
        w = (S @ z) / d
        col = []
        for v in V:  # modified Gram-Schmidt
            col.append(v @ w)
            w -= col[-1] * v
        h = np.linalg.norm(w)
        for i, (cs, sn) in enumerate(rotations):
            col[i], col[i + 1] = cs * col[i] + sn * col[i + 1], cs * col[i + 1] - sn * col[i]
        rho = np.hypot(col[j], h)
        if not 0 < rho < np.inf:
            break  # breakdown or a non-finite S: the iterate so far fails the check
        cs, sn = col[j] / rho, h / rho
        rotations.append((cs, sn))
        col[j] = rho
        R[: j + 1, j] = col
        Z.append(z)
        g[j:] = [cs * g[j], -sn * g[j]]
        if abs(g[j + 1]) <= _GMRES_RTOL * beta:
            break
        if j >= 1 and abs(g[j + 1]) > _GMRES_GIVE_UP * abs(g[j]):
            break  # stagnating
        V.append(w / h)
    y = np.zeros(len(Z))
    for i in reversed(range(len(Z))):
        y[i] = (g[i] - R[i, i + 1 : len(Z)] @ y[i + 1 :]) / R[i, i]
    return sum((yi * z for yi, z in zip(y, Z)), np.zeros_like(c))


class LaggedLU:
    """The latest saddle LU of one sequence of Newton solves.

    A lagged preconditioner (Knoll & Keyes 2004, J. Comput. Phys. 193): a
    new saddle matrix is first solved by ``_gmres`` with the held LU, and
    factored, its LU then held instead, only when that iterate fails the
    residual check. One instance lives for one ``harness.run_simulation``
    call, or for one solver call made on its own, never on a cache, so no
    result depends on earlier runs.
    """

    def __init__(self):
        self.solve = None
        self.size = 0

    def factor(self, S):
        """``_factor_saddle(S)``, held from now on."""
        self.solve = None  # free the old LU before the new one is built
        self.solve = _factor_saddle(S)
        self.size = S.shape[0]
        return self.solve

    def holds_for(self, S):
        """Whether an LU of S's size is held; one of another size is dropped."""
        if self.size != S.shape[0]:
            self.solve = None
        return self.solve is not None

    def krylov(self, d):
        """A ``factor`` for ``grid.solve_linear``: GMRES with the held LU."""
        return lambda S: lambda b: _gmres(S, d, self.solve, b)


def _newton_solve(S, r, ctx, lagged=None):
    """Newton increment dx with J dx = -r, from the saddle form S of J.

    The residual check is made in J's own rows, |J dx + r| <= tol |r| with
    tol = ``grid.RESIDUAL_TOL``: S only scales and permutes J's rows and
    columns, and r is zero on the constrained dofs that S drops. The row
    scales are the saddle rows of a vector of ones. With the ``LaggedLU``
    ``lagged`` holding an LU of S's size, GMRES preconditioned by it is
    tried first; S is factored only if its iterate fails the check.
    """
    mesh, tau = ctx.mesh, ctx.params.tau
    lagged = LaggedLU() if lagged is None else lagged
    b = _saddle_rows(mesh, tau, -r)
    d = _saddle_rows(mesh, tau, np.ones(r.size))
    if lagged.holds_for(S):
        try:
            x = grid.solve_linear(S, b, factor=lagged.krylov(d), row_scale=d)
            return _layout(mesh, x, r.size)
        except grid.SingularSystemError:
            pass
    x = grid.solve_linear(S, b, factor=lagged.factor, row_scale=d)
    return _layout(mesh, x, r.size)


def _linear_solve(solve, *args):
    """``solve(*args)``; a failed or non-finite solve ends the step."""
    try:
        dx = solve(*args)
    except grid.SingularSystemError as exc:
        raise _StepFailed(f"linear solve failed: {exc}") from exc
    if not np.all(np.isfinite(dx)):
        raise _StepFailed("linear solve failed: non-finite values")
    return dx


def _constrained_copy(ctx, state):
    """Copy of ``state`` with the homogeneous Dirichlet values imposed."""
    state = state.copy()
    state.u[ctx.mesh.constrained_u_dofs] = 0.0
    return state


# ---------------------------------------------------------------------------
# Monolithic Newton
# ---------------------------------------------------------------------------

def newton_monolithic(ctx, initial, stopping=None, max_iter=50, lagged=None):
    """Exact Newton iteration on the coupled residual.

    The Newton matrices are solved with the LU held by the ``LaggedLU``
    ``lagged`` (a fresh one if not given). Returns the final state and a
    SolveReport; the state carries the last iterate even when the iteration
    did not converge.
    """
    lagged = LaggedLU() if lagged is None else lagged

    def step(state, r):
        dx = _linear_solve(_newton_solve, schemes.jacobian(state, ctx), r, ctx, lagged)
        return State.unpack(state.pack() + dx, ctx.mesh), dx

    return _iterate(
        _constrained_copy(ctx, initial), lambda st: schemes.residual(st, ctx), step,
        stopping or StoppingRule(), max_iter, "maximum Newton iterations reached",
    )


# ---------------------------------------------------------------------------
# Block solves for alternating minimization
# ---------------------------------------------------------------------------

_ch_residual = schemes.ch_residual
_ch_jacobian = schemes.ch_jacobian


def _chord_solve(ctx, b):
    """Solve with the phase-field Jacobian at phi^{n-1}, factored once per step.

    The converged solution is unchanged (the residual test is exact); only
    the inner linearization is frozen, saving one factorization per inner
    iteration.
    """
    if "ch_chord_lu" not in ctx._cache:
        ctx._cache["ch_chord_lu"] = _factor_saddle(_ch_jacobian(ctx.prev.copy(), ctx))
    x = ctx._cache["ch_chord_lu"](_saddle_rows(ctx.mesh, ctx.params.tau, b))
    return _layout(ctx.mesh, x, b.size)


def newton_ch_block(ctx, state, *, r, stopping=None, max_iter=50, chord=False,
                    lagged=None):
    """Newton solve of the phase-field block at fixed displacement.

    ``r`` is the phase-field residual at ``state``, the (phi, mu) rows of
    ``schemes.residual``. With ``chord`` the Jacobian is frozen at the
    previous time level and factorized once per step; otherwise it is exact
    at every iterate, and solved with the LU held by the ``LaggedLU``
    ``lagged`` (a fresh one per call if not given). Updates phi and mu of
    ``state`` in place and returns (state, report).
    """
    nn = ctx.mesh.node_count
    lagged = LaggedLU() if lagged is None else lagged

    def step(state, r):
        if chord:
            dx = _linear_solve(_chord_solve, ctx, -r)
        else:
            dx = _linear_solve(_newton_solve, _ch_jacobian(state, ctx), r, ctx, lagged)
        state.phi += dx[:nn]
        state.mu += dx[nn:]
        return state, dx

    return _iterate(
        state, lambda st: _ch_residual(st, ctx), step, stopping or StoppingRule(),
        max_iter, "maximum Newton iterations reached in phase-field block", r=r,
    )


def _free_block(A, free):
    """A[free][:, free] in CSC format, with its exact zeros dropped.

    A constant C gives exact zeros in A; they are left out of the LU's
    column ordering.
    """
    A = A[free][:, free]
    A.eliminate_zeros()
    return A.tocsc()


def solve_elasticity_block(ctx, state):
    """Linear elasticity solve at the current phase field.

    The stiffness uses C(phi^{n-1}) for the homogeneous and semi-implicit
    schemes, factorized once through ``SchemeContext.frozen_operator``: once
    per step for a heterogeneous law, once per mesh, ``xi`` and ``c_minus``
    for a homogeneous one. The implicit scheme uses C(phi) at the current
    iterate, reassembled and factorized every call. Either way the system is
    solved on the free dofs, and u = 0 on the boundary.
    Updates state.u in place.
    """
    mesh = ctx.mesh
    law = ctx.params.elastic
    free = mesh.free_u_dofs
    u = np.zeros(2 * mesh.node_count)
    if ctx.scheme_kind == "implicit":
        phi_qp = grid.scalar_at_qp(mesh, state.phi)
        C = law.tensor(phi_qp)
        A = grid.assemble_vector_elasticity(mesh, C)
        vec = law.xi * np.einsum("c,eqcd->eqd", grid.I_VOIGT, C)
        G = grid.assemble_coupling(mesh, vec)
        rhs = ctx.f_load + G.T @ state.phi
        u[free] = grid.solve_linear(_free_block(A, free), rhs[free])
        state.u = u
        return state

    # homogeneous / semi-implicit: the stiffness is fixed for the whole
    # step (for the whole run when C is constant), so cache the factorization
    lu = ctx.frozen_operator(
        "elast_lu", lambda: spla.splu(_free_block(ctx.elastic_matrix_prev, free))
    )
    rhs = ctx.f_load + ctx.coupling_prev.T @ state.phi
    u[free] = lu.solve(rhs[free])
    if not np.all(np.isfinite(u)):
        raise grid.SingularSystemError("elasticity solve produced non-finite values")
    state.u = u
    return state


# ---------------------------------------------------------------------------
# Alternating minimization
# ---------------------------------------------------------------------------

# Pass cap of the phase-field block, by ``chord``: the chord's frozen
# Jacobian converges linearly, so it gets more passes than exact Newton.
_INNER_MAX_ITER = {False: 50, True: 200}


def alternating_minimization(
    ctx,
    initial,
    stopping=None,
    max_iter=200,
    anderson_depth=0,
    chord=False,
    track_potential=False,
    lagged=None,
):
    """Outer alternating loop with optional Anderson mixing.

    Each outer iteration solves the phase-field block by Newton at frozen
    displacement, then the elasticity block at the new phase field. The
    concatenated iterate may then be mixed by Anderson acceleration of the
    given depth (0 = plain iteration). The outer loop stops on the full
    coupled residual, the phase-field block on its own, both by the same
    ``stopping`` rule; the block has at most ``_INNER_MAX_ITER[chord]``
    passes. The exact block Newton solves share the ``LaggedLU``
    ``lagged`` (a fresh one if not given). With ``track_potential`` the
    report's ``potential_history`` holds the step potential of every iterate
    whose residual was evaluated.
    """
    nn = ctx.mesh.node_count
    stopping = stopping or StoppingRule()
    window = AndersonWindow(anderson_depth)
    lagged = LaggedLU() if lagged is None else lagged
    potentials = []

    def residual(state):
        r = schemes.residual(state, ctx)
        if track_potential and ctx.scheme_kind != "implicit":
            try:
                potentials.append(
                    schemes.step_potential(state, ctx, mean_tol=_POTENTIAL_MEAN_TOL)
                )
            except ValueError:
                potentials.append(np.nan)
        return r

    def step(state, r):
        x_old = state.pack()
        state, inner = newton_ch_block(
            ctx, state, r=r[: 2 * nn], stopping=stopping,
            max_iter=_INNER_MAX_ITER[chord], chord=chord, lagged=lagged,
        )
        if not inner.converged:
            raise _StepFailed(f"phase-field block failed: {inner.reason}")
        try:
            state = solve_elasticity_block(ctx, state)
        except grid.SingularSystemError as exc:
            raise _StepFailed(f"elasticity solve failed: {exc}") from exc
        x_new = window.update(x_old, state.pack())
        return State.unpack(x_new, ctx.mesh), x_new - x_old

    state, report = _iterate(
        _constrained_copy(ctx, initial), residual, step, stopping,
        max_iter, "maximum outer iterations reached",
    )
    report.potential_history = potentials
    return state, report


def solve_step(ctx, initial, strategy="alternating", **kwargs):
    """Solve one time step with the solver of ``strategy``.

    ``kwargs`` go to ``newton_monolithic`` ("monolithic") or
    ``alternating_minimization`` ("alternating") unchanged.
    """
    if strategy == "monolithic":
        return newton_monolithic(ctx, initial, **kwargs)
    if strategy == "alternating":
        return alternating_minimization(ctx, initial, **kwargs)
    raise ValueError(f"unknown strategy {strategy!r}")
