"""Every function and method of the package is used by the package.

A name that nothing in ``src/`` refers to is code without a caller. For
public names the exceptions are the names the benchmark's layer trace wraps
(read from ``benchmark/layertrace.py::boundaries()``, which fails on a
missing name) and a few tools that only the tests and the user call. A
private name has no exception: a leftover helper that only tests reach
fails. Dunder methods are called by Python and are not checked.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cahnlarche"

# Used by the tests and by a user of the API, not inside the package.
TEST_SIDE_TOOLS = {
    "RunConfig.to_text",  # writes a configuration file that from_text reads
    "RunSummary.energies",  # the energy series of a run, as an array
    "analysis.observed_rate",  # fits the rate of a convergence series
    "analysis.monotonicity_violations",  # steps whose energy rises
}


def traced_names():
    spec = importlib.util.spec_from_file_location(
        "layertrace", ROOT / "benchmark" / "layertrace.py"
    )
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    return {attr for _, attr, _, _ in layertrace.boundaries()}


def definitions(tree, module):
    """(qualified name, bare name) of every module function and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{module}.{node.name}", node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item.name


def scan():
    """The names ``src/`` refers to (as a name or an attribute, so matched by
    name alone) and the definitions other than dunders, qualified and bare."""
    referenced, defined = set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
        defined += [
            d for d in definitions(tree, path.stem)
            if not (d[1].startswith("__") and d[1].endswith("__"))
        ]
    return referenced, defined


def test_every_public_function_is_referenced_in_src():
    referenced, defined = scan()
    exempt = traced_names()
    unused = [
        qualified for qualified, name in defined
        if not name.startswith("_") and name not in referenced and name not in exempt
        and qualified not in TEST_SIDE_TOOLS
    ]
    assert unused == []


def test_every_private_function_is_referenced_in_src():
    referenced, defined = scan()
    private = [(qualified, name) for qualified, name in defined if name.startswith("_")]
    assert private  # the scan sees them
    assert [qualified for qualified, name in private if name not in referenced] == []


def test_test_side_tools_are_defined_and_uncalled():
    # a tool that gains a caller in src, or is deleted, leaves the list
    referenced, defined = scan()
    uncalled = {qualified for qualified, name in defined if name not in referenced}
    assert TEST_SIDE_TOOLS <= uncalled


def identifiers(path):
    """Every name and attribute name the module at ``path`` uses."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def test_superlu_is_called_from_solvers_alone():
    # LaggedLU.factor is the package's one SuperLU factorization
    users = sorted(p.stem for p in SRC.glob("*.py") if "splu" in identifiers(p))
    assert users == ["solvers"]


def test_solvers_build_no_matrix():
    # every matrix reaches the solvers built (and the elasticity block
    # factored) by schemes; the scheme's kind is not tested there
    used = identifiers(SRC / "solvers.py")
    assert "scheme_kind" not in used and "factorize_spd" not in used
    assert [name for name in used if name.startswith("assemble_")] == []


def test_scheme_is_read_once_per_kernel():
    # the residual and the Jacobian kernel test the scheme once each; the
    # others check it (the context, and the two frozen-scheme functions
    # that reject the implicit scheme) or pick the elasticity solve
    readers = set()
    for node in ast.parse((SRC / "schemes.py").read_text()).body:
        owner = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
        for fn in node.body if owner else [node]:
            if isinstance(fn, ast.FunctionDef) and any(
                isinstance(n, ast.Attribute) and n.attr == "scheme_kind"
                for n in ast.walk(fn)
            ):
                readers.add(owner + fn.name)
    assert readers == {
        "SchemeContext.__post_init__",
        "SchemeContext.elasticity",
        "semi_implicit_coupling_term",
        "_residual",
        "_jacobian_blocks",
        "step_potential",
    }
