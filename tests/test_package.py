"""The package's export table: lazy loading, the public names, no cache."""

import json
import os
import pkgutil
import subprocess
import sys

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
    "finite_difference_via_integral", "format_rational", "lagrange_equispaced",
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
