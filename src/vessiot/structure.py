"""The structure-equation engine.

Computes the structure constants of catalog sections, verifies the Jacobi
conditions, applies the scaling laws induced by section rescaling, and
decides necessary obstructions to equivalence problems.  Non-constancy of a
would-be constant is a first-class outcome (a non-integrable report), not an
error.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence, Tuple, Union

from . import curvature
from .errors import (
    DegenerateSection,
    DegeneratePair,
    KindMismatch,
    NotAPerfectSquare,
    NotIntegrable,
    NotProportional,
    ZeroScale,
)
from .forms import DifferentialForm, exterior_derivative, wedge
from .lieops import GeometricSection, ObjectKind, nondegeneracy
from .linalg import solve_square
from .reports import NECESSARY_PASS, OBSTRUCTED, EquivalenceVerdict, StructureReport
from .symexpr import Context, Expression

ScaleLike = Union[Expression, Fraction, int, str]


# ----------------------------------------------------------------------
# one-dimensional structures
# ----------------------------------------------------------------------


def affine_constant_1d(alpha: Expression, gamma: Expression) -> StructureReport:
    """Constant of the affine structure (alpha, gamma): d_x alpha - gamma*alpha = c*alpha^2."""
    if alpha.is_zero():
        raise DegenerateSection("alpha is identically zero")
    c = (alpha.diff(1) - gamma * alpha) / (alpha * alpha)
    return _single_constant_report("AFFINE_1D", "c", c)


def isometry_constant_1d(
    omega: Expression, gamma: Expression, sigma: Optional[Expression] = None
) -> StructureReport:
    """Constant of the 1D isometry structure: d_x omega - 2*omega*gamma = c' * omega^(3/2).

    omega must be the square of a rational expression; the caller may supply
    sigma with omega = sigma^2, otherwise the positive square root is
    detected.  With omega = alpha^2 the constant is twice the affine one.
    """
    if omega.is_zero():
        raise DegenerateSection("omega is identically zero")
    if sigma is None:
        sigma = omega.sqrt()
        if sigma is None:
            raise NotAPerfectSquare("omega is not the square of a rational expression")
    elif not (sigma * sigma - omega).is_zero():
        raise NotAPerfectSquare("supplied sigma does not satisfy sigma^2 = omega")
    c = (omega.diff(1) - _two(omega.context) * omega * gamma) / (sigma**3)
    return _single_constant_report("ISOMETRY_1D", "c_prime", c)


def projective_residual_1d(gamma: Expression, nu: Expression) -> Expression:
    """Residual of d_x gamma - gamma^2/2 - nu; zero iff (gamma, nu) is projective."""
    half = gamma.context.rational("1/2")
    return gamma.diff(1) - half * gamma * gamma - nu


def _two(ctx: Context) -> Expression:
    return ctx.rational(2)


def _single_constant_report(kind: str, name: str, value: Expression) -> StructureReport:
    if value.is_constant():
        return StructureReport(kind=kind, constants={name: value}, integrable=True)
    return StructureReport(kind=kind, constants={}, integrable=False, residual=value)


# ----------------------------------------------------------------------
# product structure (n = 2)
# ----------------------------------------------------------------------


def solve_intermediate_product(
    sec: GeometricSection,
) -> Tuple[Expression, Expression, Expression, Expression, Expression, Expression]:
    """Unique solution (w4..w9) of the six first-derivative relations

        d1 w1 = w5 - w1*w4      d2 w1 = w6 - w1*w5
        d1 w2 = w9 - w2*w8      d2 w2 = w8 - w2*w7
        d1 w3 = w3*(w4 + w8)    d2 w3 = w3*(w5 + w7)

    The 6x6 system is solvable exactly because the witness w3*(1 - w1*w2)
    does not vanish identically.
    """
    if sec.kind is not ObjectKind.PRODUCT_TRIPLE_2D:
        raise KindMismatch("solve_intermediate_product needs a PRODUCT_TRIPLE_2D section")
    if nondegeneracy(sec).is_zero():
        raise DegenerateSection("w3*(1 - w1*w2) is identically zero")
    w1, w2, w3 = sec.components
    ctx = sec.context
    one, zero = ctx.one(), ctx.zero()
    # unknown order: w4, w5, w6, w7, w8, w9
    matrix = [
        [w1, -one, zero, zero, zero, zero],
        [zero, w1, -one, zero, zero, zero],
        [zero, zero, zero, zero, w2, -one],
        [zero, zero, zero, w2, -one, zero],
        [w3, zero, zero, zero, w3, zero],
        [zero, w3, zero, w3, zero, zero],
    ]
    rhs = [
        -w1.diff(1),
        -w1.diff(2),
        -w2.diff(1),
        -w2.diff(2),
        w3.diff(1),
        w3.diff(2),
    ]
    return tuple(solve_square(matrix, rhs))


def product_constants(sec: GeometricSection) -> StructureReport:
    """Structure constants of a product-triple section.

    c' and c'' are the quotients of d2 w4 - d1 w5 and d1 w7 - d2 w8 by the
    witness w3*(1 - w1*w2); the Jacobi condition forces c' = c'' whenever
    both are constant, and the single constant c is reported.
    """
    w4, w5, _w6, w7, w8, _w9 = solve_intermediate_product(sec)
    witness = nondegeneracy(sec)
    c_prime = (w4.diff(2) - w5.diff(1)) / witness
    c_second = (w7.diff(1) - w8.diff(2)) / witness
    jacobi = c_prime - c_second
    if c_prime.is_constant() and c_second.is_constant():
        if not jacobi.is_zero():
            raise RuntimeError("Jacobi identity c' = c'' violated")
        return StructureReport(
            kind=ObjectKind.PRODUCT_TRIPLE_2D.value,
            constants={"c": c_prime},
            jacobi_residuals=[jacobi],
            integrable=True,
        )
    residual = c_prime if not c_prime.is_constant() else c_second
    return StructureReport(
        kind=ObjectKind.PRODUCT_TRIPLE_2D.value,
        constants={},
        jacobi_residuals=[jacobi],
        integrable=False,
        residual=residual,
    )


# ----------------------------------------------------------------------
# scaling law and the equivalence gate
# ----------------------------------------------------------------------

_SCALED_CONSTANT = {
    ObjectKind.PRODUCT_TRIPLE_2D.value: "c",
    ObjectKind.METRIC_2D.value: "c1",
}


def scaling_law(report: StructureReport, a: ScaleLike) -> StructureReport:
    """Report for the rescaled section: the scalable constant is divided by a.

    Covers the two kinds whose sections admit a one-parameter rescaling with
    unchanged Lie equations (w3 -> a*w3 for the product triple, w -> a*w for
    a metric).
    """
    name = _SCALED_CONSTANT.get(report.kind)
    if name is None:
        raise KindMismatch(f"no scaling law for kind {report.kind}")
    if not report.integrable:
        raise NotIntegrable("scaling law applies to integrable reports")
    value = report.constants[name]
    factor = _as_scale(value.context, a)
    if factor.is_zero():
        raise ZeroScale("scale parameter must be nonzero")
    context = factor.context
    constants = {k: v.in_context(context) for k, v in report.constants.items()}
    constants[name] = constants[name] / factor
    return StructureReport(
        kind=report.kind,
        constants=constants,
        jacobi_residuals=[r.in_context(context) for r in report.jacobi_residuals],
        integrable=True,
    )


def _as_scale(ctx: Context, a: ScaleLike) -> Expression:
    if isinstance(a, Expression):
        return a
    if isinstance(a, str) and not a.lstrip("+-").replace("/", "").isdigit():
        if a not in ctx.params:
            ctx = Context(ctx.n, ctx.params + (a,))
        return ctx.parameter(a)
    return ctx.rational(Fraction(a))


def equivalence_gate(
    left: GeometricSection,
    right: GeometricSection,
    sample_point: Optional[Sequence[Fraction]] = None,
) -> EquivalenceVerdict:
    """Necessary-condition gate for the equivalence problem between two sections.

    Obstructions detected: a structure constant that is zero on exactly one
    side (no rescaling can match them), and, for metrics, opposite
    determinant signs at a sample point (pullback multiplies det by a
    square).  Passing the gate never claims the problem is solvable.
    """
    if left.kind is not right.kind or left.n != right.n:
        raise KindMismatch(
            f"cannot compare {left.kind.value} with {right.kind.value}"
        )
    if left.kind is ObjectKind.PRODUCT_TRIPLE_2D:
        return _gate_product(left, right)
    if left.kind is ObjectKind.METRIC_2D:
        return _gate_metric(left, right, sample_point)
    raise KindMismatch(
        f"equivalence gate supports METRIC_2D and PRODUCT_TRIPLE_2D, not {left.kind.value}"
    )


def _gate_product(left: GeometricSection, right: GeometricSection) -> EquivalenceVerdict:
    cl = _require_constant(product_constants(left), "c", "left")
    cr = _require_constant(product_constants(right), "c", "right")
    reasons = []
    if cl.is_zero() != cr.is_zero():
        zero_side = "left" if cl.is_zero() else "right"
        reasons.append(
            f"constant c is 0 on the {zero_side} side only ({cl} vs {cr}):"
            " c rescales as c/a, so 0 = a*c is impossible for a != 0"
        )
    status = OBSTRUCTED if reasons else NECESSARY_PASS
    return EquivalenceVerdict(status=status, reasons=reasons)


def _gate_metric(
    left: GeometricSection,
    right: GeometricSection,
    sample_point: Optional[Sequence[Fraction]],
) -> EquivalenceVerdict:
    ml = curvature.Metric2D.from_section(left)
    mr = curvature.Metric2D.from_section(right)
    cl = _require_constant(curvature.metric_constants(ml), "c1", "left")
    cr = _require_constant(curvature.metric_constants(mr), "c1", "right")
    ctx = ml.context
    point = (
        tuple(Fraction(v) for v in sample_point)
        if sample_point is not None
        else ctx.default_point()[: ctx.n]
    )
    full_left = _full_point(ml.context, point)
    full_right = _full_point(mr.context, point)
    det_l = ml.det().evaluate(full_left)
    det_r = mr.det().evaluate(full_right)
    reasons = []
    if (det_l > 0) != (det_r > 0):
        reasons.append(
            f"determinant signs differ at sample point {_point_str(point)}:"
            f" det = {det_l} vs {det_r}, but pullback forces det(w)*Delta^2 = det(w_bar)"
        )
    if cl.is_zero() != cr.is_zero():
        zero_side = "left" if cl.is_zero() else "right"
        reasons.append(
            f"constant c1 is 0 on the {zero_side} side only ({cl} vs {cr}):"
            " c1 rescales as c1/a, so 0 = a*c1 is impossible for a != 0"
        )
    status = OBSTRUCTED if reasons else NECESSARY_PASS
    return EquivalenceVerdict(status=status, reasons=reasons, sample_point=point)


def _full_point(ctx: Context, point: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    point = tuple(Fraction(v) for v in point)
    if len(point) < ctx.nvars:
        point = point + ctx.default_point()[len(point):]
    return point


def _point_str(point: Sequence[Fraction]) -> str:
    return "(" + ", ".join(str(v) for v in point) + ")"


def _require_constant(report: StructureReport, name: str, side: str) -> Expression:
    if not report.integrable:
        raise NotIntegrable(
            f"{side} section is not integrable (non-constant structure function"
            f" {report.residual})"
        )
    return report.constants[name]


# ----------------------------------------------------------------------
# contact structure (n = 3)
# ----------------------------------------------------------------------


def contact_constants(alpha: DifferentialForm, beta: DifferentialForm) -> StructureReport:
    """Constants of the contact pair: d(alpha) = c' beta, d(beta) = c'' alpha^beta.

    The Jacobi condition c'*c'' = 0 follows from d(d(alpha)) = 0 once both
    proportionalities hold; its residual is reported.
    """
    if alpha.degree != 1 or beta.degree != 2 or alpha.context.n != 3:
        raise ValueError("need a 1-form and a 2-form on a 3-dimensional chart")
    volume = wedge(alpha, beta)
    if volume.is_zero():
        raise DegeneratePair("alpha^beta is identically zero")
    d_alpha = exterior_derivative(alpha)
    c_prime = _proportionality(d_alpha, beta, "d(alpha)", "beta")
    d_beta = exterior_derivative(beta)
    c_second = _proportionality(d_beta, volume, "d(beta)", "alpha^beta")
    if c_prime.is_constant() and c_second.is_constant():
        jacobi = c_prime * c_second
        return StructureReport(
            kind=ObjectKind.CONTACT_PAIR_3D.value,
            constants={"c_prime": c_prime, "c_second": c_second},
            jacobi_residuals=[jacobi],
            integrable=jacobi.is_zero(),
            residual=None if jacobi.is_zero() else jacobi,
        )
    residual = c_prime if not c_prime.is_constant() else c_second
    return StructureReport(
        kind=ObjectKind.CONTACT_PAIR_3D.value,
        constants={},
        jacobi_residuals=[c_prime * c_second],
        integrable=False,
        residual=residual,
    )


def _proportionality(
    numerator: DifferentialForm, reference: DifferentialForm, num_name: str, ref_name: str
) -> Expression:
    """The factor f with numerator = f * reference, from the first nonzero
    reference component, cross-checked against all components."""
    ctx = reference.context
    factor = None
    for idx in sorted(reference.components):
        factor = numerator.coefficient(idx) / reference.components[idx]
        break
    if factor is None:
        raise DegeneratePair(f"{ref_name} is identically zero")
    if not (numerator - reference.scaled(factor)).is_zero():
        raise NotProportional(f"{num_name} is not a multiple of {ref_name}")
    return factor


def contact_pair_forms(sec: GeometricSection) -> Tuple[DifferentialForm, DifferentialForm]:
    """The (alpha, beta) forms of a CONTACT_PAIR_3D section."""
    from .forms import one_form, two_form_cyclic

    if sec.kind is not ObjectKind.CONTACT_PAIR_3D:
        raise KindMismatch("expected a CONTACT_PAIR_3D section")
    a1, a2, a3, b23, b31, b12 = sec.components
    return one_form(sec.context, [a1, a2, a3]), two_form_cyclic(sec.context, b23, b31, b12)
