"""Finite-element solver laboratory for coupled phase-field/elasticity
evolution (Cahn-Hilliard with linearized elasticity).

Modules
-------
grid         : structured Q1 mesh, quadrature, assembly, linear algebra
materials    : double-well splittings, stiffness interpolation, parameters
schemes      : time-discrete residuals, Jacobians, energies, potentials
solvers      : monolithic Newton and alternating minimization
acceleration : Anderson acceleration window
analysis     : dual norms, mesh constants, contraction-rate bounds
harness      : configuration, time loop, CSV/VTK/JSON outputs, sweeps
cli          : command-line entry point
"""

from .grid import Mesh, build_mesh, SingularSystemError
from .materials import DoubleWell, ElasticLaw, ModelParams
from .schemes import State, SchemeContext, free_energy, step_potential
from .solvers import (
    StoppingRule,
    SolveReport,
    newton_monolithic,
    alternating_minimization,
    solve_step,
)
from .acceleration import AndersonWindow
from .analysis import NormConstants, RateBound, dual_norm, estimate_constants, rate_bound
from .harness import RunConfig, RunSummary, run_simulation, run_sweep

__version__ = "0.1.0"
