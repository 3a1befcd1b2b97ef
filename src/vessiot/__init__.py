"""Exact symbolic engine for infinitesimal Lie equations, their structure
constants, and necessary obstructions to equivalence problems."""

from .curvature import (
    Connection2D,
    CurvatureData,
    Metric2D,
    christoffel,
    metric_constants,
    riemann,
)
from .forms import DifferentialForm, exterior_derivative, one_form, two_form_cyclic, wedge
from .jetcalc import (
    DimensionTable,
    JetVariable,
    LinearJetEquation,
    check_cc_identity,
    dim_table,
    formal_derivative,
    parse_cc_spec,
    prolong,
    symbol_dimension,
)
from .lieops import (
    GeometricSection,
    ObjectKind,
    labeled_medolaghi,
    load_section,
    medolaghi_equations,
    nondegeneracy,
    parse_section_text,
    same_equations,
    section,
)
from .reports import EquivalenceVerdict, StructureReport
from .structure import (
    affine_constant_1d,
    contact_constants,
    equivalence_gate,
    isometry_constant_1d,
    product_constants,
    projective_residual_1d,
    scaling_law,
    solve_intermediate_product,
)
from .symexpr import Context, Expression, parse, parse_in

__all__ = [
    "Connection2D",
    "Context",
    "CurvatureData",
    "DifferentialForm",
    "DimensionTable",
    "EquivalenceVerdict",
    "Expression",
    "GeometricSection",
    "JetVariable",
    "LinearJetEquation",
    "Metric2D",
    "ObjectKind",
    "StructureReport",
    "affine_constant_1d",
    "check_cc_identity",
    "christoffel",
    "contact_constants",
    "dim_table",
    "equivalence_gate",
    "exterior_derivative",
    "formal_derivative",
    "isometry_constant_1d",
    "labeled_medolaghi",
    "load_section",
    "medolaghi_equations",
    "metric_constants",
    "nondegeneracy",
    "one_form",
    "parse",
    "parse_cc_spec",
    "parse_in",
    "parse_section_text",
    "product_constants",
    "projective_residual_1d",
    "prolong",
    "riemann",
    "same_equations",
    "scaling_law",
    "section",
    "solve_intermediate_product",
    "symbol_dimension",
    "two_form_cyclic",
    "wedge",
]

__version__ = "0.1.0"
