"""The structure-equation engine.

Computes the structure constants of catalog sections, verifies the Jacobi
conditions, applies the scaling laws induced by section rescaling, and
decides necessary obstructions to equivalence problems.  Non-constancy of a
would-be constant is a first-class outcome (a non-integrable report), not an
error.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import (
    DegenerateSection,
    DegeneratePair,
    InputFormatError,
    KindMismatch,
    NotAPerfectSquare,
    NotIntegrable,
    NotProportional,
    SingularPoint,
    ZeroScale,
)
from .forms import DifferentialForm, exterior_derivative, wedge
from .lieops import GeometricSection, ObjectKind, nondegeneracy
from .linalg import solve_square
from .reports import EquivalenceVerdict, StructureReport
from .symexpr import Context, Expression, cancel_bases, common_denominator, curl_numerator

ScaleLike = Union[Expression, Fraction, int, str]


# ----------------------------------------------------------------------
# one-dimensional structures
# ----------------------------------------------------------------------


def affine_constant_1d(alpha: Expression, gamma: Expression) -> StructureReport:
    """Constant of the affine structure (alpha, gamma): d_x alpha - gamma*alpha = c*alpha^2."""
    if alpha.is_zero():
        raise DegenerateSection("alpha is identically zero")
    c = (alpha.diff(1) - gamma * alpha) / (alpha * alpha)
    return StructureReport.of("AFFINE_1D", {"c": c})


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
    c = (omega.diff(1) - omega.context.rational(2) * omega * gamma) / (sigma**3)
    return StructureReport.of("ISOMETRY_1D", {"c_prime": c})


def projective_residual_1d(gamma: Expression, nu: Expression) -> Expression:
    """Residual of d_x gamma - gamma^2/2 - nu; zero iff (gamma, nu) is projective."""
    half = gamma.context.rational("1/2")
    return gamma.diff(1) - half * gamma * gamma - nu


# ----------------------------------------------------------------------
# product structure (n = 2)
# ----------------------------------------------------------------------


def _product_system(sec: GeometricSection):
    """(witness, w4, w5, w7, w8) of a product-triple section: its witness, the
    solution (w4, w7) of the 2x2 system of ``solve_intermediate_product``, and
    w5, w8 from it."""
    if sec.kind is not ObjectKind.PRODUCT_TRIPLE_2D:
        raise KindMismatch("solve_intermediate_product needs a PRODUCT_TRIPLE_2D section")
    witness = nondegeneracy(sec)
    if witness.is_zero():
        raise DegenerateSection("w3*(1 - w1*w2) is identically zero")
    w1, w2, w3 = sec.components
    one = sec.context.one()
    d1w1, d2w2 = w1.diff(1), w2.diff(2)
    rhs = [w3.diff(1) / w3 - d2w2, w3.diff(2) / w3 - d1w1]
    w4, w7 = solve_square([[one, w2], [w1, one]], rhs)
    return witness, w4, d1w1 + w1 * w4, w7, d2w2 + w2 * w7


def solve_intermediate_product(
    sec: GeometricSection,
) -> Tuple[Expression, Expression, Expression, Expression, Expression, Expression]:
    """Unique solution (w4..w9) of the six first-derivative relations

        d1 w1 = w5 - w1*w4      d2 w1 = w6 - w1*w5
        d1 w2 = w9 - w2*w8      d2 w2 = w8 - w2*w7
        d1 w3 = w3*(w4 + w8)    d2 w3 = w3*(w5 + w7)

    w5, w6, w8 and w9 each enter one relation with coefficient -1 and are
    eliminated; the remaining 2x2 system in (w4, w7),

        [[1, w2], [w1, 1]] (w4, w7) = (d1 w3/w3 - d2 w2, d2 w3/w3 - d1 w1),

    has determinant 1 - w1*w2, nonzero because the witness w3*(1 - w1*w2)
    does not vanish identically.
    """
    _, w4, w5, w7, w8 = _product_system(sec)
    w1, w2, _ = sec.components
    return w4, w5, w1.diff(2) + w1 * w5, w7, w8, w2.diff(1) + w2 * w8


def product_constants(sec: GeometricSection) -> StructureReport:
    """Structure constants of a product-triple section.

    c' and c'' are the quotients of d2 w4 - d1 w5 and d1 w7 - d2 w8 by the
    witness w3*(1 - w1*w2); the Jacobi condition forces c' = c'' whenever
    both are constant (``StructureReport.of`` raises otherwise), and the
    single constant c is reported.  Only w4, w5, w7 and w8 are formed.
    c' = c'' holds identically, and the lcm of (w7, w8) is usually the lcm
    of (w4, w5): then c'' is formed from the cleared data of c' (``_curl``),
    and when its own curl numerator equals that of c', c'' is the reduced c':
    one reduction, not two.  When the lcms differ, c'' is formed in full.
    The residual c' - c'' is formed either way, so a wrong solve shows.
    """
    witness, w4, w5, w7, w8 = _product_system(sec)
    cleared: dict = {}
    first = _curl(w4, 2, w5, 1, witness, cleared)
    second = _curl(w7, 1, w8, 2, witness, cleared)
    c_prime = Expression(witness.context, *first)
    c_second = c_prime if second == first else Expression(witness.context, *second)
    return StructureReport.of(
        ObjectKind.PRODUCT_TRIPLE_2D.value,
        {"c_prime": c_prime, "c_second": c_second},
        jacobi=[c_prime - c_second],
        shown={"c": c_prime},
    )


def _curl(a: Expression, i: int, b: Expression, j: int, witness: Expression,
          cleared: dict) -> tuple:
    """(d_i a - d_j b) / witness as an unreduced (numerator, denominator) pair
    of kernel polynomials.

    Over the common denominator e of a and b (one gcd), a = F/e and b = G/e,
    so e^2 (d_i a - d_j b) is the polynomial ``curl_numerator`` n of F and G:
    no gcd, and only the quotient by e^2 * witness is left to reduce.  The
    factor e^2 shares with a factored denominator of the witness is divided
    out first (``cancel_bases``): wd is what stays of the witness's
    denominator and e1, e2 of the two factors e, and the pair is
    (n * wd, e1 * e2 * witness.num).  The reduction's gcd is then usually 1,
    which GCDHEU settles without verifying divisions.

    ``cleared`` maps each lcm e already met over this witness to (d e, n, the
    pair, wd).  A curl over such an e forms only its own n'' from them: the
    pair itself when n'' = n (wd is nonzero, so the quotients are then
    equal), else (n'' * wd, the same denominator).  Any other e runs in full
    and joins the map.
    """
    e, (f, g) = common_denominator((a, b))
    known = cleared.get(e)
    if known is not None:
        de, n, pair, wd = known
        numerator = curl_numerator(e, de, f, i - 1, g, j - 1)
        return pair if numerator == n else (numerator * wd, pair[1])
    de = (e.diff(0), e.diff(1))
    numerator = curl_numerator(e, de, f, i - 1, g, j - 1)
    wd, e1, e2 = cancel_bases(witness, e, e)
    pair = numerator * wd, e1 * e2 * witness.num
    cleared[e] = de, numerator, pair, wd
    return pair


# ----------------------------------------------------------------------
# scaling law and the equivalence gate
# ----------------------------------------------------------------------


def scaling_law(report: StructureReport, a: ScaleLike) -> StructureReport:
    """Report for the rescaled section: the scalable constant is divided by a.

    Covers the kinds whose sections admit a one-parameter rescaling with
    unchanged Lie equations (w3 -> a*w3 for the product triple, w -> a*w for
    a metric).
    """
    kind = ObjectKind.__members__.get(report.kind)
    name = kind and kind.spec.scaled_constant
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
    jacobi = [r.in_context(context) for r in report.jacobi_residuals]
    return StructureReport(report.kind, constants, jacobi)


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

    Obstructions detected: for metrics, determinants of fixed, opposite sign
    (``Expression.fixed_sign``; pullback multiplies det by a square, but at the
    image point, so a determinant that may change sign decides nothing), and
    a rescaling constant that is zero on exactly one side (no rescaling can
    match them).  Passing the gate never claims the problem is solvable.
    """
    if left.kind is not right.kind:
        raise KindMismatch(
            f"cannot compare {left.kind.value} with {right.kind.value}"
        )
    spec = left.kind.spec
    name = spec.scaled_constant
    if name is None:
        raise KindMismatch(
            f"equivalence gate supports METRIC_2D and PRODUCT_TRIPLE_2D, not {left.kind.value}"
        )
    if sample_point is not None and len(sample_point) != left.n:
        raise InputFormatError(
            f"sample point needs {left.n} coordinates, got {len(sample_point)}"
        )
    cl = _require_constant(structure_report(left, {})[0], name, "left")
    cr = _require_constant(structure_report(right, {})[0], name, "right")
    reasons = []
    point = None
    if spec.sign_test:
        point = left.context.complete_point(sample_point)[: left.n]
        wl, wr = nondegeneracy(left), nondegeneracy(right)
        sign_l, sign_r = wl.fixed_sign(), wr.fixed_sign()
        if sign_l * sign_r < 0:
            det_l = _nonzero_value(wl, left.context.complete_point(point))
            det_r = _nonzero_value(wr, right.context.complete_point(point))
            if det_l is None or det_r is None:
                # the point shows no sign, so the reason quotes the certificates
                signs = f"{_SIGN_WORDS[sign_l]} vs {_SIGN_WORDS[sign_r]}"
                where = f": det is {signs} wherever defined and nonzero"
            else:
                where = f" at sample point {_point_str(point)}: det = {det_l} vs {det_r}"
            reasons.append(
                f"determinant signs differ{where},"
                " but pullback forces det(w)*Delta^2 = det(w_bar)"
            )
    if cl.is_zero() != cr.is_zero():
        zero_side = "left" if cl.is_zero() else "right"
        reasons.append(
            f"constant {name} is 0 on the {zero_side} side only ({cl} vs {cr}):"
            f" {name} rescales as {name}/a, so 0 = a*{name} is impossible for a != 0"
        )
    return EquivalenceVerdict(reasons=reasons, sample_point=point)


_SIGN_WORDS = {1: "positive", -1: "negative"}


def _nonzero_value(expr: Expression, point: Sequence[Fraction]) -> Optional[Fraction]:
    """The value at the point; None at a pole or a zero."""
    try:
        return expr.evaluate(point) or None
    except SingularPoint:
        return None


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
    proportionalities hold; its residual is reported, and a nonzero one with
    both constant is an engine fault (``StructureReport.of``).
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
    return StructureReport.of(
        ObjectKind.CONTACT_PAIR_3D.value,
        {"c_prime": c_prime, "c_second": c_second},
        jacobi=[c_prime * c_second],
    )


def _proportionality(
    numerator: DifferentialForm, reference: DifferentialForm, num_name: str, ref_name: str
) -> Expression:
    """The factor f with numerator = f * reference, from the first nonzero
    reference component, cross-checked against all components."""
    if not reference.components:
        raise DegeneratePair(f"{ref_name} is identically zero")
    idx = min(reference.components)
    factor = numerator.coefficient(idx) / reference.components[idx]
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


# ----------------------------------------------------------------------
# the compute pipeline of each kind
# ----------------------------------------------------------------------
#
# Each builder maps (section, extra expressions of the section file) to the
# structure report and the residual lines of ``vessiot compute``.  Engine
# functions are looked up by name at call time, so that wrappers installed on
# this module or on ``curvature`` see every call.  ``curvature`` is imported by
# the two builders that use it, so the other kinds never load it.


def _product_report(sec, extras):
    report = product_constants(sec)
    return report, [str(r) for r in report.jacobi_residuals]


def _metric_report(sec, extras):
    from . import curvature

    return curvature.metric_constants(curvature.Metric2D.from_section(sec)), []


def _affine_1d_report(sec, extras):
    gamma = extras.get("gamma", sec.context.zero())
    return affine_constant_1d(sec.components[0], gamma), []


def _projective_1d_report(sec, extras):
    nu = extras.get("nu", sec.context.zero())
    return _residual_report("PROJECTIVE_1D", projective_residual_1d(sec.components[0], nu)), []


def _affine_2d_report(sec, extras):
    # local affine coordinates exist iff every Riemann component vanishes
    from . import curvature

    data = curvature.riemann(curvature.Connection2D.from_section(sec))
    first = next((c for _, c in sorted(data.riemann.items()) if not c.is_zero()), None)
    return _residual_report("AFFINE_2D", first), data.residual_lines()


def _contact_report(sec, extras):
    report = contact_constants(*contact_pair_forms(sec))
    return report, [str(r) for r in report.jacobi_residuals]


def _residual_report(kind: str, residual: Optional[Expression]) -> StructureReport:
    """A constant-free report, integrable iff the residual vanishes."""
    return StructureReport(
        kind, {}, residual=None if residual is None or residual.is_zero() else residual
    )


_BUILDERS = {
    ObjectKind.ONE_FORM_1D: _affine_1d_report,
    ObjectKind.CHRISTOFFEL_1D: _projective_1d_report,
    ObjectKind.METRIC_2D: _metric_report,
    ObjectKind.PRODUCT_TRIPLE_2D: _product_report,
    ObjectKind.CHRISTOFFEL_2D: _affine_2d_report,
    ObjectKind.CONTACT_PAIR_3D: _contact_report,
}


def structure_report(
    sec: GeometricSection, extras: Dict[str, Expression]
) -> Tuple[StructureReport, List[str]]:
    """The structure report of a section and its residual lines, by kind."""
    return _BUILDERS[sec.kind](sec, extras)
