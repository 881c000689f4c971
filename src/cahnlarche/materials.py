"""Constitutive ingredients.

The modified double-well potential with its convex-concave split, the cubic
C^1 interpolation between the two pure-phase stiffness tensors, the
phase-field dependent elasticity tensor and the swelling stress law.

C(phi) = C_minus + pi(phi) Delta C with Delta C = C_plus - C_minus, so C and
its derivatives are a scalar per point times a fixed tensor. The schemes
use that: they evaluate ``ElasticLaw.weight`` (pi, pi', pi'') at the
quadrature points and combine it with the fixed tensors (``swelling_row``,
``grid.assemble_vector_elasticity``), never forming a 3x3 tensor per point.
A homogeneous law is one with Delta C = 0 (C_plus = C_minus), whose pi
Delta C is exactly zero; ``ElasticLaw.heterogeneous`` is worked out from
that, for the callers that skip work a zero Delta C makes needless.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grid import I_VOIGT

# Pure-phase Voigt stiffness tensors used in the experiments.
C_MINUS_DEFAULT = np.array(
    [[100.0, 20.0, 0.0], [20.0, 100.0, 0.0], [0.0, 0.0, 200.0]]
)
C_PLUS_DEFAULT = np.array(
    [[1.0, 0.1, 0.0], [0.1, 1.0, 0.0], [0.0, 0.0, 2.0]]
)


@dataclass(frozen=True)
class DoubleWell:
    """Quartic double well, quadratically extended outside |phi| = theta.

    Psi = Psi_c - Psi_e with both parts convex. Inside (-theta, theta):
    Psi_c = phi^4 + 1 and Psi_e = 2 phi^2, so Psi = (1 - phi^2)^2. Outside,
    Psi_c switches to the matching quadratic 2 theta^2 phi^2 - (theta^4 - 1),
    which caps the growth of Psi_c' and makes it globally Lipschitz.
    """

    theta: float = 2.0

    def __post_init__(self):
        if self.theta <= 1.0:
            raise ValueError("theta must exceed 1")

    def psi(self, phi):
        phi = np.asarray(phi, dtype=float)
        t = self.theta
        inner = (1.0 - phi**2) ** 2
        outer = 2.0 * (t**2 - 1.0) * phi**2 - (t**4 - 1.0)
        return np.where(np.abs(phi) < t, inner, outer)

    def psi_prime(self, phi):
        phi = np.asarray(phi, dtype=float)
        t = self.theta
        inner = 4.0 * phi**3 - 4.0 * phi
        outer = 4.0 * (t**2 - 1.0) * phi
        return np.where(np.abs(phi) < t, inner, outer)

    def psi_c(self, phi):
        phi = np.asarray(phi, dtype=float)
        t = self.theta
        inner = phi**4 + 1.0
        outer = 2.0 * t**2 * phi**2 - (t**4 - 1.0)
        return np.where(np.abs(phi) < t, inner, outer)

    # Psi_c' and Psi_c'' run at every quadrature point of every residual and
    # Jacobian, so they evaluate the quartic branch by products and overwrite
    # only the points with |phi| >= theta.

    def psi_c_prime(self, phi):
        phi = np.asarray(phi, dtype=float)
        out = np.asarray(4.0 * phi * phi * phi)
        outer = np.abs(phi) >= self.theta
        if outer.any():
            out[outer] = 4.0 * self.theta**2 * phi[outer]
        return out

    def psi_c_second(self, phi):
        phi = np.asarray(phi, dtype=float)
        out = np.asarray(12.0 * (phi * phi))
        outer = np.abs(phi) >= self.theta
        if outer.any():
            out[outer] = 4.0 * self.theta**2
        return out

    def psi_e(self, phi):
        phi = np.asarray(phi, dtype=float)
        return 2.0 * phi**2

    def psi_e_prime(self, phi):
        phi = np.asarray(phi, dtype=float)
        return 4.0 * phi

    def psi_e_second(self, phi):
        phi = np.asarray(phi, dtype=float)
        return np.full_like(phi, 4.0)

    def measured_lipschitz(self):
        """Largest difference quotient of Psi_c' on a grid of 20001 points
        over [-3, 3].

        The quadratic tails have Lipschitz constant 4 theta^2; the quartic
        branch reaches Psi_c'' = 12 theta^2 near |phi| = theta, so the measured
        constant is larger (47.98 at theta = 2). Reported as-is, never
        reconciled silently.
        """
        x = np.linspace(-3.0, 3.0, 20001)
        d = self.psi_c_prime(x)
        return float(np.max(np.abs(np.diff(d)) / np.diff(x)))


def pi_interp(phi):
    """Clamped cubic interpolation weight, 0 at phi=-1, 1 at phi=+1."""
    phi = np.asarray(phi, dtype=float)
    p = np.clip(phi, -1.0, 1.0)
    # -p^3 + 3p + 2 by products: numpy evaluates p**3 through pow
    return 0.25 * (p * (3.0 - p * p) + 2.0)


def pi_interp_prime(phi):
    phi = np.asarray(phi, dtype=float)
    inside = (phi >= -1.0) & (phi <= 1.0)
    return np.where(inside, 0.25 * (-3.0 * phi**2 + 3.0), 0.0)


def pi_interp_second(phi):
    phi = np.asarray(phi, dtype=float)
    inside = (phi >= -1.0) & (phi <= 1.0)
    return np.where(inside, -1.5 * phi, 0.0)


@dataclass(frozen=True)
class ElasticLaw:
    """Phase-field dependent Voigt stiffness C(phi) and swelling coupling."""

    c_minus: np.ndarray = field(default_factory=lambda: C_MINUS_DEFAULT.copy())
    c_plus: np.ndarray = field(default_factory=lambda: C_PLUS_DEFAULT.copy())
    xi: float = 1.0

    def __post_init__(self):
        for name, C in (("c_minus", self.c_minus), ("c_plus", self.c_plus)):
            C = np.asarray(C, dtype=float)
            if C.shape != (3, 3) or not np.allclose(C, C.T, atol=1e-12):
                raise ValueError(f"{name} must be a symmetric 3x3 Voigt matrix")
            if np.min(np.linalg.eigvalsh(C)) <= 0:
                raise ValueError(f"{name} must be positive definite")

    @property
    def delta(self):
        return self.c_plus - self.c_minus

    @cached_property
    def heterogeneous(self):
        """Whether C depends on phi: Delta C != 0."""
        return bool(np.any(self.delta))

    def tensor(self, phi):
        """C(phi) = C_minus + pi(phi) (C_plus - C_minus); shape (..., 3, 3)."""
        C = np.multiply.outer(pi_interp(phi), self.delta)
        C += self.c_minus  # in place: a second per-point array costs as much again
        return C

    def tensor_prime(self, phi):
        return self.weight(phi, 1)[..., None, None] * self.delta

    def tensor_second(self, phi):
        return self.weight(phi, 2)[..., None, None] * self.delta

    def weight(self, phi, order=0):
        """pi(phi) of C(phi) = C_minus + pi(phi) Delta C, or its derivative of
        ``order`` 1 or 2."""
        return (pi_interp, pi_interp_prime, pi_interp_second)[order](phi)

    def swelling_row(self, pi):
        """xi I . C(phi) per point, xi (I . C_minus + pi I . Delta C), from
        pi = ``weight(phi)``: the row a unit of phi adds to the stress."""
        return self.xi * (I_VOIGT @ self.c_minus + pi[..., None] * (I_VOIGT @ self.delta))

    def swelling_modulus(self, pi):
        """xi^2 I : C(phi) I per point, xi^2 (I:C_minus:I + pi I:Delta C:I),
        from pi = ``weight(phi)``."""
        ici = I_VOIGT @ self.c_minus @ I_VOIGT
        return self.xi**2 * (ici + pi * (I_VOIGT @ self.delta @ I_VOIGT))

    def stress(self, phi, strain_voigt):
        """sigma = C(phi) (eps - xi phi I) in Voigt form."""
        phi = np.asarray(phi, dtype=float)
        eps = np.asarray(strain_voigt, dtype=float)
        e = eps - self.xi * phi[..., None] * I_VOIGT
        C = self.tensor(phi)
        return np.einsum("...cd,...d->...c", C, e)

    def i_c_i(self, phi):
        """Quadratic form I : C(phi) I in the fixed Voigt convention."""
        C = self.tensor(phi)
        return np.einsum("c,...cd,d->...", I_VOIGT, C, I_VOIGT)

    def eigenvalue_bounds(self):
        """Extreme eigenvalues of C(phi) over 201 points phi in [-1, 1] (A2
        constants)."""
        phis = np.linspace(-1.0, 1.0, 201)
        eigs = np.linalg.eigvalsh(self.tensor(phis))
        return float(eigs.min()), float(eigs.max())


@dataclass(frozen=True)
class ModelParams:
    """All scalar model parameters plus the elastic law."""

    m: float = 1.0
    gamma: float = 5.0
    ell: float = 0.02
    tau: float = 1e-5
    theta: float = 2.0
    elastic: ElasticLaw = field(default_factory=ElasticLaw)

    def __post_init__(self):
        for name in ("m", "gamma", "ell", "tau"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.theta <= 1.0:
            raise ValueError("theta must exceed 1")

    @property
    def double_well(self):
        return DoubleWell(theta=self.theta)
