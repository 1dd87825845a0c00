"""The package's export table: lazy loading, the public names, no cache,
and no definition that only tests reach."""

import ast
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import divdiff

# The public API, in the order of divdiff.__all__.
PUBLIC = [
    "AveragingProbeResult", "BoundaryTerm", "CascadeCheck", "CascadeResult", "ConstraintSystem",
    "DivdiffError", "DomainEvaluationError", "DuplicateKnotError", "EquispacedIdentityCheck",
    "FuncSpec", "GridFunction", "KnotValueList", "LimitTerm",
    "MinLipschitzResult", "NullspaceReport", "ParseError",
    "PiecewiseLinearFunc", "PoleError", "Polynomial", "PolynomialFunc", "Rational",
    "RationalFunc", "TelescopeCheck", "WalkthroughReport", "__version__",
    "averaging_probe", "averaging_sweep", "binomial", "build_constraint_system",
    "check_equispaced_identity", "decimal_string", "degree_reduced",
    "divided_difference_direct", "divided_difference_recursive", "finite_difference",
    "format_rational", "lagrange_equispaced",
    "leading_coefficient", "load_grid_function", "min_lipschitz_unit_norm",
    "newton_coefficients", "nullspace", "parse_funcspec", "parse_rational",
    "polynomial_cascade", "proof_walkthrough", "telescope_shift_identity",
]


def loaded_after(statement):
    """The divdiff modules a fresh interpreter holds after statement."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(divdiff.__file__)))
    code = (
        f"import json, sys\n{statement}\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'divdiff')))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_loads_no_submodule():
    assert loaded_after("import divdiff") == ["divdiff"]


def test_cli_loads_every_module():
    # The CLI imports its modules eagerly, so their import cost is paid
    # before the first command rather than inside it.
    modules = [m.name for m in pkgutil.iter_modules(divdiff.__path__) if m.name != "__main__"]
    assert len(modules) == 14
    assert loaded_after("import divdiff.cli") == sorted(
        ["divdiff", *(f"divdiff.{name}" for name in modules)]
    )


def test_public_names():
    assert divdiff.__all__ == PUBLIC
    namespace = {}
    exec("from divdiff import *", namespace)
    assert set(PUBLIC) <= set(namespace)
    for name, module in divdiff._MODULE_OF.items():
        defining = sys.modules[f"divdiff.{module}"]
        assert getattr(divdiff, name) is getattr(defining, name) is namespace[name]


def test_rebound_name_is_not_cached(monkeypatch):
    import divdiff.probes

    divdiff.averaging_probe  # a first access caches nothing
    sentinel = object()
    monkeypatch.setattr(divdiff.probes, "averaging_probe", sentinel)
    assert divdiff.averaging_probe is sentinel


def test_unknown_name_and_dir():
    with pytest.raises(AttributeError, match="no_such_name"):
        divdiff.no_such_name
    assert set(divdiff.__all__) <= set(dir(divdiff))


# Definitions the package never names, kept on purpose.
UNNAMED_ON_PURPOSE = {
    "error": "_Parser.error overrides argparse, which calls it",
    "residuals": "ConstraintSystem.residuals checks a minlip witness against the rows",
    "lipschitz_constant": "GridFunction.lipschitz_constant checks a witness's slope bound",
    "dense": "GridFunction.dense reads a witness on the full grid",
}


def test_no_definition_only_tests_reach():
    # A function, method or class that is not public and that no module
    # of the package names is reached from tests alone.  The match is by
    # name, so a definition sharing its name with a used one goes unseen.
    defined, named = {}, set()
    for path in sorted(Path(divdiff.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] = f"{path.name}:{node.lineno}"
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    unreached = {
        name: where for name, where in defined.items()
        if not (name.startswith("__") and name.endswith("__"))
        and name not in divdiff.__all__ and name not in named
    }
    assert unreached.keys() <= UNNAMED_ON_PURPOSE.keys(), unreached
