"""Discrete norms, mesh constants and a priori contraction bounds.

The alternating-minimization analysis controls the iteration through three
mesh-dependent quantities: the Poincaré constant of the mean-zero space,
an inverse-estimate constant relating the L2 norm to the weighted dual
norm, and the spectral bounds of the stiffness-tensor interpolation. This
module computes all of them numerically and assembles the convergence-rate
bound from them.
"""

from dataclasses import dataclass, asdict

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh

from .grid import I_VOIGT


# ---------------------------------------------------------------------------
# Weighted dual norm
# ---------------------------------------------------------------------------

def dual_norm(s, mesh, mobility=1.0, mean_tol=1e-8):
    """Weighted H^-1-type dual norm of a nodal functional density s.

    Solves (m grad v, grad q) = (s, q) for all q, with the mean of v pinned
    through a Lagrange multiplier, and returns sqrt(v^T (m K) v). The datum
    must have (numerically) zero mean against the mass matrix.
    """
    M, K = mesh.mass, mesh.stiffness
    rhs_s = M @ np.asarray(s, dtype=float)
    total = float(np.sum(rhs_s))
    area = float(M.sum())
    if abs(total) > mean_tol * max(1.0, np.linalg.norm(rhs_s)) and abs(
        total
    ) > mean_tol * area:
        raise ValueError(
            f"dual norm needs a mean-zero datum; integral = {total:.3e}"
        )

    key = ("dual_factor", float(mobility))
    if key not in mesh._cache:
        mK = mobility * K
        a = M @ np.ones(mesh.node_count)
        A = sp.bmat([[mK, a[:, None]], [a[None, :], None]], format="csc")
        mesh._cache[key] = spla.splu(A)
    lu = mesh._cache[key]
    rhs = np.concatenate([rhs_s - total / area * (M @ np.ones(mesh.node_count)), [0.0]])
    v = lu.solve(rhs)[:-1]
    val = mobility * float(v @ (K @ v))
    return float(np.sqrt(max(val, 0.0)))


# ---------------------------------------------------------------------------
# Mesh constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormConstants:
    """Numerically estimated mesh constants.

    poincare : Poincaré constant of the mean-zero subspace, 1/sqrt(lambda_1)
        of the (K, M) pencil restricted away from constants.
    inverse : constant C in  |s|_{L2} <= (C/h) |s|_{Q*,m}  for mean-zero s.
    h : mesh size (element diagonal).
    mobility : mobility used in the weighted dual norm.
    """

    poincare: float
    inverse: float
    h: float
    mobility: float


def _pencil_1d(mesh):
    """Stiffness and mass (K1, M1) of the 1-D Q1 factor of the mesh.

    The mesh is a uniform tensor grid and its quadrature the tensor square
    of an ``order``-point Gauss rule, so with the 1-D matrices assembled on
    the same 1-D rule M = M1 (x) M1 and K = K1 (x) M1 + M1 (x) K1 exactly.
    Dense, (n+1) x (n+1).
    """
    n, h = mesh.n_per_side, mesh.h
    order = int(round(np.sqrt(mesh.quadrature.weights.size)))
    x, w = np.polynomial.legendre.leggauss(order)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    N = np.stack([1.0 - x, x], axis=1)
    dN = np.array([-1.0, 1.0])
    out = []
    for elem in (np.outer(dN, dN) / h, h * (w * N.T) @ N):
        diag = np.full(n + 1, elem[0, 0] + elem[1, 1])
        diag[0], diag[-1] = elem[0, 0], elem[1, 1]
        off = np.full(n, elem[0, 1])
        out.append(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return tuple(out)


def estimate_constants(mesh, mobility=1.0):
    """Compute NormConstants from the eigenvalues of the (K, M) pencil.

    The Poincaré constant comes from the smallest nonzero eigenvalue of
    K v = lambda M v; the inverse constant from the largest eigenvalue of
    the same pencil scaled by the mobility, since the L2-to-dual-norm ratio
    of mean-zero functions is bounded by sqrt(lambda_max(m K, M)). Both come
    from the 1-D pencil (K1, M1) of ``_pencil_1d``: the 2-D eigenvalues are
    the sums lambda_i + lambda_j of 1-D ones, and lambda_0 = 0 (constants),
    so lambda_1 is the 1-D lambda_1 and lambda_max twice the 1-D one.
    """
    K1, M1 = _pencil_1d(mesh)
    vals = eigh(K1, M1, eigvals_only=True)
    lam1 = vals[1]
    lam_max = 2.0 * vals[-1]
    h = np.sqrt(2.0) * mesh.h  # element diameter
    poincare = 1.0 / np.sqrt(lam1)
    inverse = h * np.sqrt(mobility * lam_max)
    return NormConstants(float(poincare), float(inverse), float(h), float(mobility))


# ---------------------------------------------------------------------------
# Convergence-rate bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateBound:
    """A priori contraction bound of alternating minimization.

    beta_ch, beta_e : strong-convexity fractions of the two subproblems.
    lipschitz_ch : relative Lipschitz constant of the phase-field block.
    contraction : per-iteration bound (1 - beta_ch / lipschitz_ch) *
        (1 - beta_e) on the potential-gap reduction.
    """

    beta_ch: float
    beta_e: float
    lipschitz_ch: float
    contraction: float

    def as_dict(self):
        return asdict(self)


def rate_bound(params, constants):
    """Evaluate the contraction bound of the alternating scheme.

    For a heterogeneous law the coupling strength is measured by the
    spectral bounds of the interpolated tensor times I . I = 2 (the trace
    of the identity in Voigt form in two dimensions); a homogeneous law
    uses the exact scalar I : C I instead. The Lipschitz constant of the
    derivative of the convex double-well part is the measured one.
    """
    law = params.elastic
    lipschitz_psi = params.double_well.measured_lipschitz()
    if law.heterogeneous:
        c_lo, c_hi = law.eigenvalue_bounds()
        couple_lo = law.xi**2 * 2.0 * c_lo
        couple_hi = law.xi**2 * 2.0 * c_hi
    else:
        ici = float(I_VOIGT @ law.c_minus @ I_VOIGT)
        couple_lo = couple_hi = law.xi**2 * ici

    h2_term = constants.h**2 / (params.tau * constants.inverse**2)
    grad_term = params.gamma * params.ell / constants.poincare**2

    beta = 1.0 - 1.0 / (h2_term / couple_hi + grad_term / couple_hi + 1.0)
    L = 1.0 + lipschitz_psi / (h2_term + grad_term + couple_lo)
    contraction = (1.0 - beta / L) * (1.0 - beta)
    return RateBound(float(beta), float(beta), float(L), float(contraction))


def observed_rate(potential_history, floor=1e-12):
    """Per-iteration gap-reduction ratios from a potential trace.

    The limiting value is taken as the final entry; ratios where the
    preceding gap is below the noise floor are reported as NaN.
    """
    p = np.asarray(potential_history, dtype=float)
    if p.size < 3:
        return np.array([])
    gaps = p[:-1] - p[-1]
    ratios = np.full(gaps.size - 1, np.nan)
    ok = gaps[:-1] > floor
    ratios[ok] = gaps[1:][ok] / gaps[:-1][ok]
    return ratios


def monotonicity_violations(values, slack=0.0):
    """Indices where a sequence increases by more than ``slack``."""
    v = np.asarray(values, dtype=float)
    d = np.diff(v)
    return np.nonzero(d > slack)[0]
