"""Exact arithmetic for divided differences, equispaced interpolation,
and the linear constraint systems generated by vanishing differences.

Everything computes over rational numbers; no floating point enters any
verdict.  The CLI (``python -m divdiff`` or the ``divdiff`` script)
exposes each operation with JSON/CSV reports.

The public names are listed once, in ``_EXPORTS`` below, under the
module that defines them.  A name is looked up in that module on each
access (PEP 562): ``import divdiff`` loads no submodule, and a rebound
name in a submodule is what ``divdiff.<name>`` returns.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "cascade": ("CascadeCheck", "CascadeResult", "polynomial_cascade"),
    "constraints": ("ConstraintSystem", "NullspaceReport", "build_constraint_system", "nullspace"),
    "differences": (
        "EquispacedIdentityCheck", "KnotValueList", "check_equispaced_identity",
        "divided_difference_direct", "divided_difference_recursive", "finite_difference",
        "newton_coefficients",
    ),
    "errors": (
        "DivdiffError", "DomainEvaluationError", "DuplicateKnotError", "ParseError", "PoleError",
    ),
    "extremal": ("MinLipschitzResult", "min_lipschitz_unit_norm"),
    "funcs": (
        "FuncSpec", "GridFunction", "PiecewiseLinearFunc", "PolynomialFunc", "RationalFunc",
        "load_grid_function", "parse_funcspec",
    ),
    "interpolation": ("lagrange_equispaced", "leading_coefficient"),
    "poly": ("Polynomial",),
    "probes": (
        "AveragingProbeResult", "BoundaryTerm", "LimitTerm", "TelescopeCheck", "WalkthroughReport",
        "averaging_probe", "averaging_sweep", "proof_walkthrough", "telescope_shift_identity",
    ),
    "rational": ("decimal_string", "format_rational", "parse_rational"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_MODULE_OF, "__version__"])


def __getattr__(name: str) -> object:
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
