"""Graded operator-series flows: q-graded arithmetic, time-ordered
exponentials, bracket flows with conserved traces, induced operator flows,
index monoids, and a non-regular interval-diffeomorphism model.
"""

from __future__ import annotations

from qlax.algebra import (
    CIRCLE_DIFFOP,
    COMPLEX,
    MATRIX,
    REAL,
    AlgebraDescriptor,
    AlgebraElement,
    AlgebraError,
    CapabilityError,
    DomainError,
    ShapeMismatchError,
    WindowOverflowError,
    commutator,
    diffop_descriptor,
    diffop_element,
    matrix_descriptor,
    matrix_element,
)
from qlax.series import GradedSeries
from qlax.monoids import (
    CIRCLE,
    CLOSED,
    GR1_ELEMENTS,
    LEFT_OPEN,
    NEUTRAL_INDEX,
    OPEN,
    RIGHT_OPEN,
    IndexMonoid,
    IndexedSeries,
    OneManifold,
    closure,
    composition_table,
    generated_monoid,
    glue,
    gr1_monoid,
    is_stable,
    natural_monoid,
)
from qlax.timeorder import (
    FlowSample,
    OperatorPath,
    left_log_derivative_residual,
    time_ordered_exp,
)
from qlax.lax import (
    LaxFlowResult,
    LaxProblem,
    PRESET_NAMES,
    TraceDriftTable,
    conserved_trace_tables,
    flow_difference,
    integrate_directly,
    lax_residual,
    oracle_error,
    oracle_integrate,
    preset_problem,
    solve_lax,
)
from qlax.symmetry import (
    ad_operator,
    ad_path,
    check_ad_exp_ad,
    equivariance_gap,
    identity_operator,
    operator_descriptor,
    solve_symmetry,
    symmetry_residual_full,
)
from qlax.nonregular import (
    AppendixModel,
    BoundsReport,
    ModelError,
    NonregularityReport,
    VelocityReport,
    c_path,
    default_model,
    demonstrate_nonregularity,
    phi,
    velocity_at_zero,
    verify_diffeo_bounds,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraDescriptor", "AlgebraElement", "AlgebraError", "CapabilityError",
    "DomainError", "ShapeMismatchError", "WindowOverflowError",
    "MATRIX", "CIRCLE_DIFFOP", "REAL", "COMPLEX",
    "matrix_descriptor", "diffop_descriptor", "matrix_element", "diffop_element",
    "commutator",
    "GradedSeries",
    "OneManifold", "glue", "IndexMonoid", "IndexedSeries",
    "CIRCLE", "CLOSED", "OPEN", "LEFT_OPEN", "RIGHT_OPEN", "GR1_ELEMENTS",
    "NEUTRAL_INDEX", "natural_monoid", "gr1_monoid", "closure",
    "generated_monoid", "is_stable", "composition_table",
    "OperatorPath", "FlowSample",
    "time_ordered_exp", "left_log_derivative_residual",
    "LaxProblem", "LaxFlowResult", "solve_lax", "integrate_directly",
    "flow_difference", "lax_residual", "TraceDriftTable", "conserved_trace_tables",
    "oracle_error", "oracle_integrate", "preset_problem", "PRESET_NAMES",
    "ad_operator", "ad_path", "operator_descriptor",
    "identity_operator", "solve_symmetry", "symmetry_residual_full", "check_ad_exp_ad",
    "equivariance_gap",
    "AppendixModel", "ModelError", "default_model", "phi", "c_path",
    "BoundsReport", "verify_diffeo_bounds", "VelocityReport",
    "velocity_at_zero", "NonregularityReport", "demonstrate_nonregularity",
    "__version__",
]
