"""Exact arithmetic for divided differences, equispaced interpolation,
and the linear constraint systems generated by vanishing differences.

Everything computes over rational numbers; no floating point enters any
verdict.  The CLI (``python -m divdiff`` or the ``divdiff`` script)
exposes each operation with JSON/CSV reports.
"""

__version__ = "0.1.0"

from .cascade import (
    CascadeCheck,
    CascadeResult,
    NonzeroAtOrder,
    ZeroPolynomial,
    polynomial_cascade,
)
from .constraints import (
    ConstraintSystem,
    NullspaceReport,
    build_constraint_system,
    nullspace,
)
from .differences import (
    EquispacedIdentityCheck,
    FiniteDifferenceRequest,
    KnotValueList,
    check_equispaced_identity,
    divided_difference_direct,
    divided_difference_recursive,
    finite_difference,
    finite_difference_via_integral,
    newton_coefficients,
)
from .errors import (
    DivdiffError,
    DomainEvaluationError,
    DuplicateKnotError,
    ParseError,
    PoleError,
)
from .extremal import MinLipschitzResult, min_lipschitz_unit_norm
from .funcs import (
    FuncSpec,
    GridFunction,
    PiecewiseLinearFunc,
    PolynomialFunc,
    RationalFunc,
    load_grid_function,
    parse_funcspec,
)
from .interpolation import (
    EquispacedSample,
    degree_reduced,
    lagrange_equispaced,
    leading_coefficient,
)
from .poly import Polynomial, binomial
from .probes import (
    AveragingProbeResult,
    BoundaryTerm,
    TelescopeCheck,
    WalkthroughReport,
    averaging_probe,
    averaging_sweep,
    proof_walkthrough,
    telescope_shift_identity,
)
from .rational import Rational, decimal_string, format_rational, parse_rational

__all__ = [
    "AveragingProbeResult",
    "BoundaryTerm",
    "CascadeCheck",
    "CascadeResult",
    "ConstraintSystem",
    "DivdiffError",
    "DomainEvaluationError",
    "DuplicateKnotError",
    "EquispacedIdentityCheck",
    "EquispacedSample",
    "FiniteDifferenceRequest",
    "FuncSpec",
    "GridFunction",
    "KnotValueList",
    "MinLipschitzResult",
    "NonzeroAtOrder",
    "NullspaceReport",
    "ParseError",
    "PiecewiseLinearFunc",
    "PoleError",
    "Polynomial",
    "PolynomialFunc",
    "Rational",
    "RationalFunc",
    "TelescopeCheck",
    "WalkthroughReport",
    "ZeroPolynomial",
    "__version__",
    "averaging_probe",
    "averaging_sweep",
    "binomial",
    "build_constraint_system",
    "check_equispaced_identity",
    "decimal_string",
    "degree_reduced",
    "divided_difference_direct",
    "divided_difference_recursive",
    "finite_difference",
    "finite_difference_via_integral",
    "format_rational",
    "lagrange_equispaced",
    "leading_coefficient",
    "load_grid_function",
    "min_lipschitz_unit_norm",
    "newton_coefficients",
    "nullspace",
    "parse_funcspec",
    "parse_rational",
    "polynomial_cascade",
    "proof_walkthrough",
    "telescope_shift_identity",
]
