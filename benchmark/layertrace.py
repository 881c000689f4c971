"""In-memory span tracing around the public boundaries of the cahnlarche modules.

The package itself is not instrumented. A traced run replaces, for its
duration only, the attributes that callers look up (module functions, class
methods, ``scipy.sparse.linalg.splu``) by thin wrappers that record a span
``(name, start, end, parent)`` and restores the originals afterwards. Self
time of a span is its duration minus the durations of its direct children.
"""

import functools
import time
from collections import Counter


class Tracer:
    """Collects spans and counters in memory for one traced run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = Counter()
        self._stack = []

    def wrap(self, fn, name, on_result=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``on_result(tracer, result)`` runs after the span has closed, so its
        cost lands in the parent's self time, not in ``name``.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def summary(self):
        """Per span name: number of calls and total self time in seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = Counter(), Counter()
        for (name, start, end, _), c in zip(self.spans, child):
            calls[name] += 1
            self_s[name] += (end - start) - c
        return calls, self_s

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start - t0:.9f},{end - t0:.9f},{parent}\n")


class _TracedLU:
    """SuperLU stand-in whose ``solve`` is a span; other attributes pass through."""

    __slots__ = ("_lu", "solve")

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


def _traced_splu(tracer, splu):
    factor = tracer.wrap(splu, "splu.factor")

    def traced_splu(*args, **kwargs):
        lu = factor(*args, **kwargs)
        tracer.counters["splu.factor.nnz"] += lu.nnz
        return _TracedLU(lu, tracer.wrap(lu.solve, "splu.solve"))

    return traced_splu


def _count_inner_iterations(tracer, result):
    tracer.counters["solvers.newton_ch_block.iterations"] += result[1].iterations


def boundaries():
    """(owner, attribute, span name, on_result) for every traced boundary.

    Owners are the objects callers look the name up on at call time.
    ``solvers`` binds ``_ch_residual``/``_ch_jacobian`` at import, so those
    aliases are wrapped as well as the ``schemes`` originals; ``grid``,
    ``solvers`` and ``analysis`` all reach ``splu`` through the
    ``scipy.sparse.linalg`` module attribute. The shift-invert LU inside
    ``eigsh`` is bound within scipy and stays in the self time of
    ``analysis.estimate_constants``.
    """
    import scipy.sparse.linalg as spla

    from cahnlarche import acceleration, analysis, grid, harness, materials, schemes, solvers

    out = [(spla, "splu", "splu.factor", None)]
    for attr in (
        "assemble_mass",
        "assemble_weighted_mass",
        "assemble_stiffness",
        "assemble_vector_elasticity",
        "assemble_coupling",
        "assemble_scalar_load",
        "assemble_vector_load",
    ):
        out.append((grid, attr, "grid.assemble", None))
    for attr in ("scalar_at_qp", "gradient_at_qp", "strain_at_qp"):
        out.append((grid, attr, "grid.qp_eval", None))
    out += [
        (grid, "solve_linear", "grid.solve_linear", None),
        (grid, "eliminate_dirichlet", "grid.eliminate_dirichlet", None),
        (grid, "build_mesh", "grid.build_mesh", None),
        (schemes, "residual", "schemes.residual", None),
        (schemes, "jacobian", "schemes.jacobian", None),
        (schemes, "ch_residual", "schemes.ch_residual", None),
        (schemes, "ch_jacobian", "schemes.ch_jacobian", None),
        (solvers, "_ch_residual", "schemes.ch_residual", None),
        (solvers, "_ch_jacobian", "schemes.ch_jacobian", None),
        (schemes, "semi_implicit_coupling_term", "schemes.coupling_term", None),
        (schemes, "elastic_energy_density_derivative_qp", "schemes.coupling_term", None),
        (schemes, "free_energy", "schemes.free_energy", None),
        (solvers, "solve_step", "solvers.solve_step", None),
        (solvers, "newton_monolithic", "solvers.newton_monolithic", None),
        (solvers, "alternating_minimization", "solvers.alternating_minimization", None),
        (solvers, "newton_ch_block", "solvers.newton_ch_block", _count_inner_iterations),
        (solvers, "solve_elasticity_block", "solvers.elasticity_block", None),
        (acceleration.AndersonWindow, "update", "acceleration.update", None),
        (analysis, "estimate_constants", "analysis.estimate_constants", None),
        (analysis, "rate_bound", "analysis.rate_bound", None),
        (harness, "run_simulation", "harness.run_simulation", None),
        (harness, "initial_state", "harness.initial_state", None),
        (harness, "write_outputs", "harness.write_outputs", None),
    ]
    for attr in (
        "psi", "psi_prime", "psi_c", "psi_c_prime", "psi_c_second",
        "psi_e", "psi_e_prime", "psi_e_second",
    ):
        out.append((materials.DoubleWell, attr, "materials.double_well", None))
    for attr in ("tensor", "tensor_prime", "tensor_second", "stress", "i_c_i"):
        out.append((materials.ElasticLaw, attr, "materials.elastic_law", None))
    return out


class installed:
    """Context manager that swaps every boundary for its traced wrapper."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._saved = []

    def __enter__(self):
        try:
            for owner, attr, name, on_result in boundaries():
                original = getattr(owner, attr)  # AttributeError on a rename
                if name == "splu.factor":
                    wrapper = _traced_splu(self.tracer, original)
                else:
                    wrapper = self.tracer.wrap(original, name, on_result)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        except BaseException:
            self._restore()
            raise
        return self.tracer

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
