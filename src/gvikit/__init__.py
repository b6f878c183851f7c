"""Solvers and certification tools for variational inequalities on convex sets.

The package solves the general variational inequality: find x in K with
``<A(x), a(y) - a(x)> >= 0`` for all y in K.  When ``a`` is the identity
this is the classical Stampacchia problem, and any affine ``a(x) = Mx + c``
gives the plain problem for ``M^T A`` on K itself; otherwise the solver
inverts ``a`` numerically, solves the reduced problem on the declared image
set, and pulls the solution back.  Coincidence points (f(x) = g(x)) and
fixed points are obtained from the same pipeline with ``A = g - f`` and
``a = g``, and a brute-force grid oracle provides independent evidence at
desk scale.
"""

from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    EmptyGrid,
    EmptySet,
    InversionFailed,
    NonConvergence,
    SchemaError,
    ToolkitError,
    UnboundedSet,
    UnsupportedVariant,
)
from .geometry import (
    Ball,
    Box,
    ConvexSet,
    HPolytope,
    PolyhedralCone,
    Simplex,
    segment_distance,
    set_from_dict,
)
from .operators import (
    Affine,
    Compose,
    Constant,
    Difference,
    Identity,
    OperatorExpr,
    PointwiseNonlinear,
    PropertyReport,
    Rotation,
    SampleConfig,
    Scale,
    Sum,
    affine_nonexpansive,
    affine_range_inclusion,
    affine_relative_monotone,
    check_fiber_condition,
    check_g_nonexpansive,
    check_monotone_relative,
    check_ql,
    check_range_inclusion,
    fiber_factors,
    jacobian_fd,
    operator_from_dict,
)
from .vi import (
    SolveReport,
    SolverParams,
    natural_residual,
    solve_extragradient,
    solve_projection,
)
from .gvi import (
    GviProblem,
    GviSolveReport,
    InversionParams,
    ReducedOperator,
    certify,
    check_selection_independence,
    complementarity_check,
    gvi_gap,
    preimage_candidates,
    select_preimage,
    solve_gvi,
)
from .coincidence import (
    CoincidenceProblem,
    CoincidenceReport,
    find_coincidence,
    find_fixed_point,
)
from .oracle import brute_coincidence, brute_gap, brute_vi_solve, grid_points
from .schema import Problem, parse_problem, validate
from .demos import DEMOS, demo_names, get_demo

__version__ = "0.1.0"

__all__ = [
    "DEMOS",
    "Affine",
    "Ball",
    "Box",
    "CoincidenceProblem",
    "CoincidenceReport",
    "Compose",
    "Constant",
    "ConvexSet",
    "Difference",
    "DimensionMismatch",
    "DimensionTooLarge",
    "EmptyGrid",
    "EmptySet",
    "GviProblem",
    "GviSolveReport",
    "HPolytope",
    "Identity",
    "InversionFailed",
    "InversionParams",
    "NonConvergence",
    "OperatorExpr",
    "PointwiseNonlinear",
    "PolyhedralCone",
    "Problem",
    "PropertyReport",
    "ReducedOperator",
    "Rotation",
    "SampleConfig",
    "Scale",
    "SchemaError",
    "Simplex",
    "SolveReport",
    "SolverParams",
    "Sum",
    "ToolkitError",
    "UnboundedSet",
    "UnsupportedVariant",
    "affine_nonexpansive",
    "affine_range_inclusion",
    "affine_relative_monotone",
    "brute_coincidence",
    "brute_gap",
    "brute_vi_solve",
    "certify",
    "check_fiber_condition",
    "check_g_nonexpansive",
    "check_monotone_relative",
    "check_ql",
    "check_range_inclusion",
    "check_selection_independence",
    "complementarity_check",
    "demo_names",
    "fiber_factors",
    "find_coincidence",
    "find_fixed_point",
    "get_demo",
    "grid_points",
    "gvi_gap",
    "jacobian_fd",
    "natural_residual",
    "operator_from_dict",
    "parse_problem",
    "preimage_candidates",
    "segment_distance",
    "select_preimage",
    "set_from_dict",
    "solve_extragradient",
    "solve_gvi",
    "solve_projection",
    "validate",
]
