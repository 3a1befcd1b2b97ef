"""Exact symbolic engine for infinitesimal Lie equations, their structure
constants, and necessary obstructions to equivalence problems.

Importing the package loads none of its modules: each submodule, and each
public name below, is imported on first access (PEP 562), so a process loads
only what it uses.
"""

from importlib import import_module

_EXPORTS = {
    "curvature": (
        "Connection2D", "CurvatureData", "Metric2D", "christoffel", "metric_constants", "riemann",
    ),
    "forms": ("DifferentialForm", "exterior_derivative", "one_form", "two_form_cyclic", "wedge"),
    "jetcalc": (
        "JetVariable", "LinearJetEquation", "check_cc_identity", "decode_jet", "dim_table",
        "formal_derivative", "parse_cc_spec", "prolong", "symbol_dimension",
    ),
    "lieops": (
        "GeometricSection", "ObjectKind", "labeled_medolaghi", "load_section",
        "medolaghi_equations", "nondegeneracy", "parse_section_text", "same_equations", "section",
    ),
    "reports": ("EquivalenceVerdict", "StructureReport"),
    "structure": (
        "affine_constant_1d", "contact_constants", "equivalence_gate", "isometry_constant_1d",
        "product_constants", "projective_residual_1d", "scaling_law",
        "solve_intermediate_product",
    ),
    "symexpr": ("Context", "Expression", "parse", "parse_in"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli", "errors", "linalg")

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
