"""Simulation driver: configuration, initial data, time loop, outputs.

A run is described by a flat INI-style configuration (sections [model],
[discretization], [solver], [output]) that round-trips through
``RunConfig``. The driver advances the chosen scheme in time, records
per-step energies and iteration counts, and writes CSV summaries, legacy
ASCII VTK snapshots and a JSON metadata file.
"""

import configparser
import csv
import io
import json
import numbers
import os
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from . import analysis, grid, materials, schemes, solvers
from .schemes import State

SCHEMES = schemes.SCHEME_KINDS
STRATEGIES = ("monolithic", "alternating")
INITS = ("midsplit", "random")


class ConfigError(ValueError):
    """A RunConfig field holds a value no run can use."""


@dataclass
class RunConfig:
    """Complete description of one simulation run."""

    # model
    m: float = 1.0
    gamma: float = 5.0
    ell: float = 0.02
    xi: float = 1.0
    theta: float = 2.0
    heterogeneous: bool = True
    # discretization
    n: int = 65
    tau: float = 1e-5
    t_final: float = 0.01
    scheme: str = "semi_implicit"
    # solver
    strategy: str = "alternating"
    anderson_depth: int = 0
    tolerance: float = 1e-6
    max_iterations: int = 200
    chord: bool = False
    # output
    init: str = "midsplit"
    seed: int = 0
    out_dir: str = "out"
    snapshot_every: int = 0  # 0 = only first/last

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        if self.init not in INITS:
            raise ConfigError(f"unknown initialization {self.init!r}")
        for name in (f.name for f in fields(self) if f.type is int):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            setattr(self, name, int(value))  # a numpy integer becomes an int
        for name, ok, need in (
            ("n", self.n >= 2, ">= 2"),
            ("tau", self.tau > 0, "> 0"),
            ("tolerance", self.tolerance > 0, "> 0"),
            ("anderson_depth", self.anderson_depth >= 0, ">= 0"),
            ("max_iterations", self.max_iterations >= 1, ">= 1"),
            ("seed", self.seed >= 0, ">= 0"),
            ("snapshot_every", self.snapshot_every >= 0, ">= 0"),
        ):
            if not ok:
                raise ConfigError(f"{name} must be {need}, got {getattr(self, name)!r}")
        if self.scheme == "homogeneous":
            self.heterogeneous = False
        try:  # the model parameters are checked by the model's own rules
            self.build_params()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    _SECTIONS = {
        "model": ("m", "gamma", "ell", "xi", "theta", "heterogeneous"),
        "discretization": ("n", "tau", "t_final", "scheme"),
        "solver": ("strategy", "anderson_depth", "tolerance", "max_iterations", "chord"),
        "output": ("init", "seed", "out_dir", "snapshot_every"),
    }

    def to_text(self):
        cp = configparser.ConfigParser()
        for sec, keys in self._SECTIONS.items():
            cp[sec] = {k: str(getattr(self, k)) for k in keys}
        buf = io.StringIO()
        cp.write(buf)
        return buf.getvalue()

    @classmethod
    def from_text(cls, text):
        """The config of an INI text; a section, key or value no run can use
        raises ``ConfigError``."""
        cp = configparser.ConfigParser(default_section="")
        try:
            cp.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"unreadable configuration: {exc}") from exc
        kwargs = {}
        for sec in cp.sections():
            keys = cls._SECTIONS.get(sec)
            if keys is None:
                raise ConfigError(f"unknown section [{sec}]")
            for k in cp.options(sec):
                if k not in keys:
                    raise ConfigError(f"unknown key {k!r} in section [{sec}]")
                default = cls.__dataclass_fields__[k].default
                get = {bool: cp.getboolean, int: cp.getint, float: cp.getfloat}.get(
                    type(default), cp.get
                )
                try:
                    kwargs[k] = get(sec, k)
                except ValueError as exc:
                    raise ConfigError(f"[{sec}] {k}: {exc}") from exc
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path):
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read configuration {path}: {exc.strerror}") from exc
        return cls.from_text(text)

    def build_params(self):
        law = materials.ElasticLaw(
            xi=self.xi, heterogeneous=self.heterogeneous
        )
        return materials.ModelParams(
            m=self.m,
            gamma=self.gamma,
            ell=self.ell,
            tau=self.tau,
            t_final=self.t_final,
            theta=self.theta,
            elastic=law,
        )


# ---------------------------------------------------------------------------
# Initial data
# ---------------------------------------------------------------------------

def init_midsplit(mesh, ell):
    """Horizontal-interface profile phi0 = tanh((0.5 - y)/(sqrt(2) ell))."""
    y = mesh.nodes[:, 1]
    return np.tanh((0.5 - y) / (np.sqrt(2.0) * ell))


def init_random(mesh, seed):
    """Uniform random perturbation of the mixed state, in [-0.05, 0.05]."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.uniform(-0.05, 0.05, size=mesh.node_count)


def initial_state(mesh, config):
    state = State.zeros(mesh)
    if config.init == "midsplit":
        state.phi = init_midsplit(mesh, config.ell)
    else:
        state.phi = init_random(mesh, config.seed)
    return state


# ---------------------------------------------------------------------------
# Time loop
# ---------------------------------------------------------------------------

@dataclass
class StepRecord:
    step: int
    time: float
    iterations: int  # effective (state-changing) iterations
    loops: int  # executed loop passes including the confirming pass
    converged: bool
    residual: float
    energy_total: float
    energy_chemical: float
    energy_gradient: float
    energy_elastic: float
    mass: float


@dataclass
class RunSummary:
    config: RunConfig
    steps: list = field(default_factory=list)  # StepRecord
    failed_at_step: int = None
    failure_reason: str = ""
    constants: analysis.NormConstants = None
    bound: analysis.RateBound = None
    final_state: State = None

    @property
    def completed(self):
        return self.failed_at_step is None

    @property
    def average_iterations(self):
        its = [s.iterations for s in self.steps if s.step > 0]
        return float(np.mean(its)) if its else float("nan")

    @property
    def energies(self):
        return np.array([s.energy_total for s in self.steps])


def run_simulation(config, callback=None, estimate_bound=False):
    """Advance the configured scheme from t=0 to t_final.

    On a nonconverged step the run halts and records the step index and
    reason; all completed steps stay in the summary. ``callback`` receives
    (step_index, state, report) after every accepted step. One
    ``solvers.LaggedLU`` serves the exact Newton solves of every step, so a
    step starts from the previous step's last saddle LU.
    """
    mesh = grid.build_mesh(config.n)
    params = config.build_params()
    stopping = solvers.StoppingRule(config.tolerance)
    state = initial_state(mesh, config)
    summary = RunSummary(config=config)
    if estimate_bound:
        summary.constants = analysis.estimate_constants(mesh, mobility=config.m)
        summary.bound = analysis.rate_bound(params, summary.constants)

    M = mesh.mass
    n_steps = int(round(config.t_final / config.tau))
    kwargs = dict(
        stopping=stopping, max_iter=config.max_iterations, lagged=solvers.LaggedLU()
    )
    if config.strategy == "alternating":
        kwargs.update(anderson_depth=config.anderson_depth, chord=config.chord)

    record0 = _make_record(0, 0.0, 0, 0, True, 0.0, state, params, M)
    summary.steps.append(record0)

    for k in range(1, n_steps + 1):
        ctx = schemes.SchemeContext(
            prev=state, params=params, scheme_kind=config.scheme
        )
        new_state, report = solvers.solve_step(
            ctx, state, strategy=config.strategy, **kwargs
        )
        if not report.converged:
            summary.failed_at_step = k
            summary.failure_reason = report.reason or "did not converge"
            break
        state = new_state
        res = report.residual_norms[-1] if report.residual_norms else float("nan")
        summary.steps.append(
            _make_record(
                k,
                k * config.tau,
                report.effective_iterations,
                report.iterations,
                True,
                res,
                state,
                params,
                M,
            )
        )
        if callback is not None:
            callback(k, state, report)
    summary.final_state = state
    return summary


def _make_record(step, time, iterations, loops, converged, residual, state, params, M):
    # the schemes dissipate the 2x2-quadrature energy; monitor that one
    e = schemes.free_energy(state, params, quadrature="scheme")
    mass = float(np.ones_like(state.phi) @ (M @ state.phi))
    return StepRecord(
        step=step,
        time=time,
        iterations=iterations,
        loops=loops,
        converged=converged,
        residual=residual,
        energy_total=e.total,
        energy_chemical=e.chemical,
        energy_gradient=e.gradient,
        energy_elastic=e.elastic,
        mass=mass,
    )


# ---------------------------------------------------------------------------
# Outputs
# ---------------------------------------------------------------------------

def write_vtk(path, mesh, state, title="snapshot"):
    """Legacy ASCII VTK 3.0 structured-grid snapshot of (phi, mu, u)."""
    n = mesh.n_per_side
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write(f"{title}\n")
        fh.write("ASCII\n")
        fh.write("DATASET STRUCTURED_GRID\n")
        fh.write(f"DIMENSIONS {n + 1} {n + 1} 1\n")
        fh.write(f"POINTS {mesh.node_count} double\n")
        for x, y in mesh.nodes:
            fh.write(f"{x:.10g} {y:.10g} 0\n")
        fh.write(f"POINT_DATA {mesh.node_count}\n")
        for name, vals in (("phi", state.phi), ("mu", state.mu)):
            fh.write(f"SCALARS {name} double 1\n")
            fh.write("LOOKUP_TABLE default\n")
            for v in vals:
                fh.write(f"{v:.10g}\n")
        fh.write("VECTORS displacement double\n")
        for ux, uy in zip(state.u[0::2], state.u[1::2]):
            fh.write(f"{ux:.10g} {uy:.10g} 0\n")


def write_outputs(summary, out_dir, mesh=None, snapshots=()):
    """Write energy.csv, iterations.csv, run.json and any VTK snapshots."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "energy.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["step", "time", "total", "chemical", "gradient", "elastic", "mass"]
        )
        for s in summary.steps:
            w.writerow(
                [
                    s.step,
                    s.time,
                    s.energy_total,
                    s.energy_chemical,
                    s.energy_gradient,
                    s.energy_elastic,
                    s.mass,
                ]
            )
    with open(os.path.join(out_dir, "iterations.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["step", "time", "iterations", "loops", "residual"])
        for s in summary.steps[1:]:
            w.writerow([s.step, s.time, s.iterations, s.loops, s.residual])

    meta = {
        "config": {k: getattr(summary.config, k) for k in _config_keys()},
        "completed": summary.completed,
        "failed_at_step": summary.failed_at_step,
        "failure_reason": summary.failure_reason,
        "average_iterations": summary.average_iterations,
    }
    if summary.constants is not None:
        meta["constants"] = asdict(summary.constants)
    if summary.bound is not None:
        meta["rate_bound"] = summary.bound.as_dict()
    with open(os.path.join(out_dir, "run.json"), "w") as fh:
        json.dump(meta, fh, indent=2)

    if mesh is not None:
        for label, state in snapshots:
            write_vtk(
                os.path.join(out_dir, f"snapshot_{label}.vtk"), mesh, state, label
            )


def _config_keys():
    keys = []
    for ks in RunConfig._SECTIONS.values():
        keys.extend(ks)
    return keys


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------

GAMMA_SWEEP = (1.0, 5.0, 10.0, 50.0, 100.0)
XI_SWEEP = (0.01, 0.1, 1.0, 1.5, 2.0)
ANDERSON_SWEEP = (0, 1, 2, 3, 4, 5)


def run_sweep(base_config, preset, values=None):
    """Run a family of simulations varying one control parameter.

    ``preset`` is one of 'gamma', 'xi', 'anderson'; rows report the varied
    value, average iteration count and completion status.
    """
    if preset == "gamma":
        values = values if values is not None else GAMMA_SWEEP
        key = "gamma"
    elif preset == "xi":
        values = values if values is not None else XI_SWEEP
        key = "xi"
    elif preset == "anderson":
        values = values if values is not None else ANDERSON_SWEEP
        key = "anderson_depth"
    else:
        raise ValueError(f"unknown sweep preset {preset!r}")

    rows = []
    for v in values:
        cfg = RunConfig(**{**_config_dict(base_config), key: v})
        summary = run_simulation(cfg)
        rows.append(
            {
                key: v,
                "average_iterations": summary.average_iterations,
                "completed": summary.completed,
                "failed_at_step": summary.failed_at_step,
            }
        )
    return rows


def write_sweep_csv(rows, path):
    if not rows:
        return
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        w.writeheader()
        w.writerows(rows)


def _config_dict(config):
    return {k: getattr(config, k) for k in _config_keys()}
