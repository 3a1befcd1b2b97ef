"""Acceptance battery: one test per criterion, printing one PASS/FAIL line each.

Every check is exact symbolic equality unless a tolerance is stated inline
(criterion 9 uses a finite-difference oracle at relative tolerance 1e-6).
"""

import random
from fractions import Fraction

from helpers import constant_c_product_section, random_metric, random_nonzero_rational
from vessiot.curvature import Metric2D, christoffel, metric_constants, riemann
from vessiot.forms import exterior_derivative, one_form, two_form_cyclic
from vessiot.jetcalc import (
    check_cc_identity,
    dim_table,
    lambda_dim,
    parse_cc_spec,
    symbol_dimension,
)
from vessiot.lieops import ObjectKind, labeled_medolaghi, medolaghi_equations, section
from vessiot.structure import (
    affine_constant_1d,
    contact_constants,
    equivalence_gate,
    isometry_constant_1d,
    product_constants,
)
from vessiot.symexpr import Context, parse_in

CTX1 = Context(1)
CTX2 = Context(2)
CTX3 = Context(3)


def _verdict(number: int, label: str, ok: bool) -> None:
    print(f"acceptance {number:02d} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


def flat_product():
    return section(ObjectKind.PRODUCT_TRIPLE_2D, [CTX2.zero(), CTX2.zero(), CTX2.one()])


def projective_product():
    w3 = parse_in("1/(x2 - x1)^2", CTX2)
    return section(ObjectKind.PRODUCT_TRIPLE_2D, [CTX2.zero(), CTX2.zero(), w3])


def euclidean_metric():
    return section(ObjectKind.METRIC_2D, [CTX2.one(), CTX2.one(), CTX2.zero()])


def indefinite_metric():
    return section(ObjectKind.METRIC_2D, [CTX2.zero(), CTX2.zero(), CTX2.one()])


def test_criterion_01_affine_constants():
    translation = affine_constant_1d(CTX1.one(), CTX1.zero())
    dilatation = affine_constant_1d(parse_in("1/x1", CTX1), CTX1.zero())
    ok = (
        translation.integrable
        and translation.constants["c"] == CTX1.zero()
        and dilatation.integrable
        and dilatation.constants["c"] == CTX1.rational(-1)
    )
    _verdict(1, "1D affine constants c=0 and c=-1", ok)


def test_criterion_02_isometry_doubles_affine():
    alpha = parse_in("1/x1", CTX1)
    affine = affine_constant_1d(alpha, CTX1.zero())
    isometry = isometry_constant_1d(alpha * alpha, CTX1.zero())
    ok = isometry.constants["c_prime"] == CTX1.rational(2) * affine.constants["c"]
    _verdict(2, "1D isometry constant equals 2c", ok)


def test_criterion_03_product_constants():
    flat = product_constants(flat_product())
    projective = product_constants(projective_product())
    ok = (
        flat.integrable
        and flat.constants["c"].is_zero()
        and projective.integrable
        and projective.constants["c"] == CTX2.rational(-2)
    )
    _verdict(3, "product constants c=0 and c=-2", ok)


def test_criterion_04_jacobi_condition():
    ok = True
    for sec in (flat_product(), projective_product()):
        report = product_constants(sec)
        ok = ok and report.integrable and all(r.is_zero() for r in report.jacobi_residuals)
    rng = random.Random(2024)
    for _ in range(20):
        sec, expected = constant_c_product_section(rng)
        report = product_constants(sec)
        ok = (
            ok
            and report.integrable
            and report.constants["c"] == expected
            and all(r.is_zero() for r in report.jacobi_residuals)
        )
    warped = section(
        ObjectKind.PRODUCT_TRIPLE_2D,
        [CTX2.zero(), CTX2.zero(), parse_in("1/(x2 - x1)^3", CTX2)],
    )
    report = product_constants(warped)
    ok = ok and not report.integrable and report.residual is not None
    ok = ok and not report.residual.is_zero()
    _verdict(4, "Jacobi c'=c'' on 22 sections, non-constant flagged", ok)


def test_criterion_05_scaling_law():
    rng = random.Random(2025)
    base = projective_product()
    c_base = product_constants(base).constants["c"]
    ok = True
    for _ in range(5):
        a = random_nonzero_rational(rng)
        scaled = section(
            ObjectKind.PRODUCT_TRIPLE_2D,
            [CTX2.zero(), CTX2.zero(), base.components[2] * CTX2.rational(a)],
        )
        c_scaled = product_constants(scaled).constants["c"]
        ok = ok and c_scaled * CTX2.rational(a) == c_base
    _verdict(5, "scaling law c(a*w3)*a = c(w3) for 5 random a", ok)


def test_criterion_06_product_equivalence_obstruction():
    verdict = equivalence_gate(flat_product(), projective_product())
    _verdict(6, "product equivalence gate obstructed", verdict.obstructed)


def test_criterion_07_dimension_diagram():
    table = dim_table(2, f1=3)
    ok = (
        table["dim_S2Tstar_F1"] == 9
        and table["dim_S3Tstar_T"] == 8
        and table["dim_F2"] == 1
    )
    g1_killing = symbol_dimension(medolaghi_equations(euclidean_metric()), 1)
    g1_product = symbol_dimension(medolaghi_equations(flat_product()), 1)
    ok = ok and g1_killing == 1 and g1_product == 1
    ok = ok and lambda_dim(2, 2) * g1_killing == table["dim_F2"]
    _verdict(7, "dim F2 = 9 - 8 = 1 = dim(Lambda2 x g1)", ok)


def test_criterion_08_cc_identities():
    product_system = labeled_medolaghi(flat_product())
    killing_system = labeled_medolaghi(euclidean_metric())
    ok = check_cc_identity(
        product_system, parse_cc_spec("d11O1,+d22O2,-d12O3", 2)
    ).is_zero()
    ok = ok and check_cc_identity(
        killing_system, parse_cc_spec("d11O22,+d22O11,-2d12O12", 2)
    ).is_zero()
    ok = ok and not check_cc_identity(
        product_system, parse_cc_spec("d11O1,+d22O2,+d12O3", 2)
    ).is_zero()
    _verdict(8, "second-order CC identities, sign flip breaks", ok)


def test_criterion_09_curvature_chain():
    flat = metric_constants(Metric2D(CTX2.one(), CTX2.one(), CTX2.zero()))
    ok = flat.constants["c1"].is_zero() and flat.constants["c2"].is_zero()
    euclid_conn = christoffel(Metric2D(CTX2.one(), CTX2.one(), CTX2.zero()))
    ok = ok and all(v.is_zero() for v in euclid_conn.components.values())

    hp = parse_in("1/x2^2", CTX2)
    metric = Metric2D(hp, hp, CTX2.zero())
    report = metric_constants(metric)
    ok = ok and report.constants["c1"] == CTX2.rational(-1)
    ok = ok and report.constants["c2"].is_zero()

    # finite-difference oracle at (2, 3), step 1e-4, relative tolerance 1e-6
    conn = christoffel(metric)
    data = riemann(conn)
    point = (Fraction(2), Fraction(3))
    step = Fraction(1, 10_000)

    def d_gamma(k, i, j, direction):
        fwd, bwd = list(point), list(point)
        fwd[direction - 1] += step
        bwd[direction - 1] -= step
        return (
            conn.gamma(k, i, j).evaluate(fwd) - conn.gamma(k, i, j).evaluate(bwd)
        ) / (2 * step)

    numeric = d_gamma(2, 1, 1, 2) - d_gamma(2, 1, 2, 1)
    for r in (1, 2):
        numeric += conn.gamma(r, 1, 1).evaluate(point) * conn.gamma(2, r, 2).evaluate(point)
        numeric -= conn.gamma(r, 1, 2).evaluate(point) * conn.gamma(2, r, 1).evaluate(point)
    symbolic = data.ricci[(1, 1)].evaluate(point)
    ok = ok and symbolic != 0
    ok = ok and abs(numeric - symbolic) <= abs(symbolic) * Fraction(1, 10**6)
    _verdict(9, "curvature chain: euclidean flat, half-plane c1=-1, FD oracle", ok)


def test_criterion_10_levi_civita_phi_vanishes():
    rng = random.Random(2026)
    ok = True
    for _ in range(20):
        metric = random_metric(rng)
        data = riemann(christoffel(metric))
        ok = ok and data.phi_12.is_zero()
    _verdict(10, "phi = 0 for 20 random Levi-Civita pipelines (c2=0)", ok)


def test_criterion_11_metric_equivalence_obstruction():
    verdict = equivalence_gate(euclidean_metric(), indefinite_metric())
    ok = verdict.obstructed and any(
        "determinant signs differ" in reason for reason in verdict.reasons
    )
    _verdict(11, "determinant-sign obstruction between metrics", ok)


def test_criterion_12_contact_constants():
    alpha = one_form(CTX3, [CTX3.one(), -parse_in("x3", CTX3), CTX3.zero()])
    beta = two_form_cyclic(CTX3, CTX3.one(), CTX3.zero(), CTX3.zero())
    report = contact_constants(alpha, beta)
    ok = (
        report.integrable
        and report.constants["c_prime"] == CTX3.one()
        and report.constants["c_second"].is_zero()
        and all(r.is_zero() for r in report.jacobi_residuals)
    )
    rng = random.Random(2027)
    from helpers import random_expression

    for _ in range(5):
        coeffs = [random_expression(CTX3, rng, depth=2) for _ in range(3)]
        form = one_form(CTX3, coeffs)
        ok = ok and exterior_derivative(exterior_derivative(form)).is_zero()
    _verdict(12, "contact constants (1, 0), c'c''=0, d^2=0", ok)
