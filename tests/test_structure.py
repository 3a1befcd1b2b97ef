import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import (
    constant_c_product_section,
    random_nonzero_rational,
    random_product_section,
)
import vessiot
from vessiot.errors import (
    DegeneratePair,
    DegenerateSection,
    InputFormatError,
    KindMismatch,
    NotAPerfectSquare,
    NotIntegrable,
    NotProportional,
    ZeroScale,
)
from vessiot.forms import one_form, two_form_cyclic
from vessiot.linalg import solve_square
from vessiot import structure, symexpr
from vessiot.lieops import ObjectKind, load_section, nondegeneracy, parse_section_text, section
from vessiot.reports import EquivalenceVerdict, StructureReport
from vessiot.structure import (
    affine_constant_1d,
    contact_constants,
    equivalence_gate,
    isometry_constant_1d,
    product_constants,
    projective_residual_1d,
    scaling_law,
    solve_intermediate_product,
)
from vessiot.symexpr import Context, Expression, parse_in

CTX1 = Context(1)
CTX2 = Context(2)
CTX3 = Context(3)


def flat_product():
    return section(ObjectKind.PRODUCT_TRIPLE_2D, [CTX2.zero(), CTX2.zero(), CTX2.one()])


def projective_product():
    w3 = parse_in("1/(x2 - x1)^2", CTX2)
    return section(ObjectKind.PRODUCT_TRIPLE_2D, [CTX2.zero(), CTX2.zero(), w3])


def euclidean_metric():
    return section(ObjectKind.METRIC_2D, [CTX2.one(), CTX2.one(), CTX2.zero()])


def indefinite_metric():
    return section(ObjectKind.METRIC_2D, [CTX2.zero(), CTX2.zero(), CTX2.one()])


def diagonal_metric(header):
    """METRIC_2D with the given w11 line (and headers), w22 = 1 and w12 = 0."""
    return parse_section_text(f"kind = METRIC_2D\n{header}\nw22 = 1\nw12 = 0")[0]


class TestAffine1D:
    def test_translation_subgroup(self):
        report = affine_constant_1d(CTX1.one(), CTX1.zero())
        assert report.integrable
        assert report.constants["c"] == CTX1.zero()

    def test_dilatation_subgroup(self):
        report = affine_constant_1d(parse_in("1/x1", CTX1), CTX1.zero())
        assert report.constants["c"] == CTX1.rational(-1)

    def test_constant_gamma_parameter(self):
        ctx = Context(1, ["g"])
        report = affine_constant_1d(ctx.one(), ctx.parameter("g"))
        assert report.constants["c"] == -ctx.parameter("g")

    def test_non_constant_quotient(self):
        report = affine_constant_1d(parse_in("x1", CTX1), CTX1.zero())
        assert not report.integrable
        assert report.residual is not None
        assert not report.residual.is_zero()

    def test_zero_alpha_rejected(self):
        with pytest.raises(DegenerateSection):
            affine_constant_1d(CTX1.zero(), CTX1.zero())


class TestIsometry1D:
    def test_flat(self):
        report = isometry_constant_1d(CTX1.one(), CTX1.zero())
        assert report.constants["c_prime"] == CTX1.zero()

    def test_reciprocal_square(self):
        omega = parse_in("1/x1^2", CTX1)
        report = isometry_constant_1d(omega, CTX1.zero())
        assert report.constants["c_prime"] == CTX1.rational(-2)

    def test_doubles_affine_constant(self):
        alpha = parse_in("1/x1", CTX1)
        affine = affine_constant_1d(alpha, CTX1.zero())
        isometry = isometry_constant_1d(alpha * alpha, CTX1.zero())
        assert isometry.constants["c_prime"] == CTX1.rational(2) * affine.constants["c"]

    def test_supplied_sigma(self):
        omega = parse_in("1/x1^2", CTX1)
        sigma = parse_in("1/x1", CTX1)
        report = isometry_constant_1d(omega, CTX1.zero(), sigma=sigma)
        assert report.constants["c_prime"] == CTX1.rational(-2)

    def test_supplied_negative_sigma_flips_sign(self):
        omega = parse_in("1/x1^2", CTX1)
        sigma = parse_in("-1/x1", CTX1)
        report = isometry_constant_1d(omega, CTX1.zero(), sigma=sigma)
        assert report.constants["c_prime"] == CTX1.rational(2)

    def test_non_constant_quotient(self):
        report = isometry_constant_1d(parse_in("x1^2", CTX1), CTX1.zero())
        assert not report.integrable
        assert report.residual == parse_in("2/x1^2", CTX1)

    def test_not_a_perfect_square(self):
        with pytest.raises(NotAPerfectSquare):
            isometry_constant_1d(parse_in("x1", CTX1), CTX1.zero())
        with pytest.raises(NotAPerfectSquare):
            isometry_constant_1d(
                parse_in("x1^2", CTX1), CTX1.zero(), sigma=parse_in("x1 + 1", CTX1)
            )


class TestProjective1D:
    def test_flat_pair(self):
        assert projective_residual_1d(CTX1.zero(), CTX1.zero()).is_zero()

    def test_nonzero_nu(self):
        assert projective_residual_1d(CTX1.zero(), CTX1.one()) == CTX1.rational(-1)

    def test_matched_nu_vanishes(self):
        gamma = parse_in("-2/x1", CTX1)
        nu = gamma.diff(1) - CTX1.rational("1/2") * gamma * gamma
        assert projective_residual_1d(gamma, nu).is_zero()


class TestIntermediateProduct:
    def test_flat_solution_is_zero(self):
        assert all(w.is_zero() for w in solve_intermediate_product(flat_product()))

    def test_projective_solution(self):
        w4, w5, w6, w7, w8, w9 = solve_intermediate_product(projective_product())
        assert w4 == parse_in("2/(x2 - x1)", CTX2)
        assert w7 == parse_in("-2/(x2 - x1)", CTX2)
        assert all(w.is_zero() for w in (w5, w6, w8, w9))

    def test_defining_relations_hold(self):
        rng = random.Random(31)
        for _ in range(6):
            sec = random_product_section(rng)
            w1, w2, w3 = sec.components
            w4, w5, w6, w7, w8, w9 = solve_intermediate_product(sec)
            assert w1.diff(1) == w5 - w1 * w4
            assert w1.diff(2) == w6 - w1 * w5
            assert w2.diff(1) == w9 - w2 * w8
            assert w2.diff(2) == w8 - w2 * w7
            assert w3.diff(1) == w3 * (w4 + w8)
            assert w3.diff(2) == w3 * (w5 + w7)

    def test_rational_closed_formula_for_w4(self):
        rng = random.Random(37)
        for _ in range(10):
            sec = random_product_section(rng)
            w1, w2, w3 = sec.components
            w4 = solve_intermediate_product(sec)[0]
            residual = (
                w3 * w2.diff(2)
                - w3.diff(1)
                + w2 * w3.diff(2)
                - w2 * w3 * w1.diff(1)
                + w3 * (CTX2.one() - w1 * w2) * w4
            )
            assert residual.is_zero()

    def test_degenerate_rejected(self):
        bad = section(ObjectKind.PRODUCT_TRIPLE_2D, [CTX2.one(), CTX2.one(), CTX2.one()])
        with pytest.raises(DegenerateSection):
            solve_intermediate_product(bad)

    @pytest.mark.parametrize("components", [("x1", "0", "0"), ("x1", "1/x1", "x2")])
    def test_zero_witness_rejected(self, components):
        bad = section(ObjectKind.PRODUCT_TRIPLE_2D, [parse_in(c, CTX2) for c in components])
        with pytest.raises(DegenerateSection):
            solve_intermediate_product(bad)

    def test_matches_six_by_six_solve(self):
        # reference: the six relations as one 6x6 system in (w4, ..., w9)
        rng = random.Random(43)
        sections = [random_product_section(rng) for _ in range(8)]
        for sec in sections[:4]:
            w1, w2, w3 = sec.components
            # w1 = 0 or w2 = 0 changes the pivot order of the 6x6 elimination
            sections.append(section(ObjectKind.PRODUCT_TRIPLE_2D, [CTX2.zero(), w2, w3]))
            sections.append(section(ObjectKind.PRODUCT_TRIPLE_2D, [w1, CTX2.zero(), w3]))
        one, zero = CTX2.one(), CTX2.zero()
        for sec in sections:
            w1, w2, w3 = sec.components
            matrix = [
                [w1, -one, zero, zero, zero, zero],
                [zero, w1, -one, zero, zero, zero],
                [zero, zero, zero, zero, w2, -one],
                [zero, zero, zero, w2, -one, zero],
                [w3, zero, zero, zero, w3, zero],
                [zero, w3, zero, w3, zero, zero],
            ]
            rhs = [-w1.diff(1), -w1.diff(2), -w2.diff(1), -w2.diff(2), w3.diff(1), w3.diff(2)]
            assert list(solve_intermediate_product(sec)) == solve_square(matrix, rhs)


class TestProductConstants:
    def test_flat_constant_zero(self):
        report = product_constants(flat_product())
        assert report.integrable
        assert report.constants["c"].is_zero()

    def test_projective_constant(self):
        report = product_constants(projective_product())
        assert report.constants["c"] == CTX2.rational(-2)

    def test_constant_parameter_section(self):
        ctx = Context(2, ["a"])
        sec = section(
            ObjectKind.PRODUCT_TRIPLE_2D, [ctx.zero(), ctx.zero(), ctx.parameter("a")]
        )
        report = product_constants(sec)
        assert report.integrable
        assert report.constants["c"].is_zero()

    def test_jacobi_on_paper_sections(self):
        for sec in (flat_product(), projective_product()):
            report = product_constants(sec)
            assert all(r.is_zero() for r in report.jacobi_residuals)

    def test_jacobi_equality_on_constant_sections(self):
        rng = random.Random(41)
        for _ in range(20):
            sec, expected = constant_c_product_section(rng)
            report = product_constants(sec)
            assert report.integrable
            assert report.constants["c"] == expected
            assert all(r.is_zero() for r in report.jacobi_residuals)

    def test_two_quotients_agree_identically(self):
        # c' - c'' vanishes as an expression even off the constant locus
        rng = random.Random(43)
        for _ in range(8):
            sec = random_product_section(rng)
            report = product_constants(sec)
            assert all(r.is_zero() for r in report.jacobi_residuals)

    def test_non_constant_quotient_flagged(self):
        w3 = parse_in("1/(x2 - x1)^3", CTX2)
        sec = section(ObjectKind.PRODUCT_TRIPLE_2D, [CTX2.zero(), CTX2.zero(), w3])
        report = product_constants(sec)
        assert not report.integrable
        assert report.constants == {}
        assert report.residual is not None and not report.residual.is_zero()


SECTIONS = Path(__file__).resolve().parent.parent / "sections"


def chain_products():
    """The bundled product sections, seeded random ones (with a parameter and
    with w1 = 0 or w2 = 0 among them) and seeded constant-c ones."""
    secs = [
        load_section(path)[0]
        for path in sorted(SECTIONS.glob("product_*.section"))
    ]
    rng = random.Random(53)
    for _ in range(10):
        secs.append(random_product_section(rng))
    ctx = Context(2, ["a"])
    for _ in range(4):
        w1, w2, w3 = random_product_section(rng, ctx).components
        a = ctx.parameter("a")
        secs.append(section(ObjectKind.PRODUCT_TRIPLE_2D, [w1, w2, a * w3]))
        secs.append(section(ObjectKind.PRODUCT_TRIPLE_2D, [ctx.zero(), w2, w3]))
        secs.append(section(ObjectKind.PRODUCT_TRIPLE_2D, [w1, ctx.zero(), w3]))
    for _ in range(4):
        secs.append(constant_c_product_section(rng)[0])
    return secs


def lcms_coincide(sec) -> bool:
    """True when the lcm of (w7, w8) is that of (w4, w5): the second curl of
    ``product_constants`` then takes the cleared data of the first."""
    _, w4, w5, w7, w8 = structure._product_system(sec)
    return symexpr.common_denominator((w4, w5))[0] == symexpr.common_denominator((w7, w8))[0]


# Cancels of product_constants outside the 2x2 solve: the witness, d1 w1,
# d2 w2, the right-hand side, w5, w8, two curls (an lcm each, and one
# quotient for both when their unreduced pairs coincide) and the Jacobi
# residual.  Measured at most 11 on ``chain_products``; the route through
# w6, w9 and a second witness took 38 to 59 on the same kinds.
PRODUCT_CANCELS_OUTSIDE_SOLVE = 11


class TestProductChain:
    @pytest.mark.parametrize("index", range(len(chain_products())))
    def test_matches_quotient_rule_route(self, index):
        sec = chain_products()[index]
        w4, w5, _, w7, w8, _ = solve_intermediate_product(sec)
        witness = nondegeneracy(sec)
        c_prime = (w4.diff(2) - w5.diff(1)) / witness
        c_second = (w7.diff(1) - w8.diff(2)) / witness
        context = witness.context
        assert Expression(context, *structure._curl(w4, 2, w5, 1, witness, {})) == c_prime
        assert Expression(context, *structure._curl(w7, 1, w8, 2, witness, {})) == c_second
        report = product_constants(sec)
        assert report.jacobi_residuals == [c_prime - c_second]
        if c_prime.is_constant() and c_second.is_constant():
            assert report.integrable and report.constants == {"c": c_prime}
        else:
            assert report.residual == (c_second if c_prime.is_constant() else c_prime)

    def test_cancel_ceiling(self, monkeypatch):
        calls = []
        in_solve = []
        original_cancel, original_solve = symexpr._cancel, structure.solve_square

        def counting(a, b):
            calls.append(1)
            return original_cancel(a, b)

        def solve(matrix, rhs):
            before = len(calls)
            out = original_solve(matrix, rhs)
            in_solve.append(len(calls) - before)
            return out

        monkeypatch.setattr(symexpr, "_cancel", counting)
        monkeypatch.setattr(structure, "solve_square", solve)
        for sec in chain_products():
            calls.clear()
            in_solve.clear()
            product_constants(sec)
            assert len(calls) - sum(in_solve) <= PRODUCT_CANCELS_OUTSIDE_SOLVE

    @pytest.mark.parametrize("components", [
        ("0", "0", "3/(x2 - x1 + 2)^2"),
        ("x1 + 1", "2*x2 - x1", "-5/(x2 - x1 + 2)^2"),
        ("2*x1 - 2*x2 + 1", "1/(-x1 + x2 - 9)", "x1 - 2*x2 + 1"),
        ("x2", "1/(x1 + 2)", "1/(x1 - x2 + 3)^2"),
    ])
    def test_witness_bases_leave_the_reduction_no_common_factor(self, monkeypatch, components):
        # parsed, the witness's denominator is factored, and the linear bases
        # it shares with e^2 leave each curl pair before its one reduction
        text = "kind = PRODUCT_TRIPLE_2D\nn = 2\n" + "".join(
            f"w{k} = {w}\n" for k, w in enumerate(components, start=1))
        sec = parse_section_text(text)[0]
        witness, w4, w5, w7, w8 = structure._product_system(sec)
        assert witness.factors is not None
        gcds = []
        cancel = symexpr._cancel
        monkeypatch.setattr(symexpr, "_cancel", lambda a, b: gcds.append(cancel(a, b)[2]) or cancel(a, b))
        for args in ((w4, 2, w5, 1), (w7, 1, w8, 2)):
            pair = structure._curl(*args, witness, {})
            gcds.clear()
            reduced = Expression(witness.context, *pair)
            assert gcds == ([symexpr._pconst(1)] if pair[0].terms else [])
            i, j = args[1], args[3]
            assert reduced == (args[0].diff(i) - args[2].diff(j)) / witness

    def test_coinciding_curls_reduce_once(self, monkeypatch):
        # c' = c'' identically, and the unreduced pairs coincide on every
        # section but one with w2 = 0; a zero curl reduces with no cancel.
        # Where the two lcms coincide, c'' takes the cleared data of c', so
        # the witness's bases leave e^2 once per section, not once per curl
        pairs, quotients, cleared = [], [], []
        curl, cancel, bases = structure._curl, symexpr._cancel, structure.cancel_bases

        def recording_curl(*args):
            pairs.append(curl(*args))
            return pairs[-1]

        def recording_cancel(a, b):
            # a pair met twice is one quotient
            if any(a is num and b is den for num, den in pairs):
                quotients.append(1)
            return cancel(a, b)

        def recording_bases(*args):
            cleared.append(1)
            return bases(*args)

        monkeypatch.setattr(structure, "_curl", recording_curl)
        monkeypatch.setattr(symexpr, "_cancel", recording_cancel)
        monkeypatch.setattr(structure, "cancel_bases", recording_bases)
        coinciding = shared = 0
        for sec in chain_products():
            same_lcm = lcms_coincide(sec)
            shared += same_lcm
            pairs.clear()
            quotients.clear()
            cleared.clear()
            report = product_constants(sec)
            first, second = pairs
            coinciding += first == second
            assert first == second or sec.components[1].is_zero()
            reduced = [first] if first == second else pairs
            assert len(quotients) == sum(1 for num, _ in reduced if num.terms)
            assert len(cleared) == (1 if same_lcm else 2)
            assert all(r.is_zero() for r in report.jacobi_residuals)
        assert coinciding == len(chain_products()) - 1
        assert shared == len(chain_products()) - 1

    def test_wrong_solve_shows_in_the_jacobi_residual(self, monkeypatch):
        # w4 + x1 for w4 shifts c' by -d1(x1*w1)/witness and leaves c''; on
        # 7 of the 8 sections the lcm of (w4, w5) is that of (w7, w8), so c''
        # takes the cleared data of c'
        ctx = Context(2)
        x1 = ctx.coordinate(1)

        def wrong(matrix, rhs):
            w4, w7 = solve_square(matrix, rhs)
            return w4 + x1, w7

        monkeypatch.setattr(structure, "solve_square", wrong)
        rng = random.Random(7)
        shared = 0
        for _ in range(8):
            sec = random_product_section(rng, ctx)
            shared += lcms_coincide(sec)
            shift = -(x1 * sec.components[0]).diff(1) / nondegeneracy(sec)
            residual = product_constants(sec).jacobi_residuals[0]
            assert not residual.is_zero()
            assert residual == shift
        assert shared == 7

    def test_wrong_solve_shows_on_the_full_route(self, monkeypatch):
        # w7 + s for w7, s = 1/(x1 + 7), flows into w8 = d2 w2 + w2*w7: the
        # lcm of (w7, w8) is no longer that of (w4, w5), so c'' is formed in
        # full, shifted by (d1 s - d2(w2*s))/witness, and c' stays
        ctx = Context(2)
        s = ctx.one() / (ctx.coordinate(1) + ctx.rational(7))

        def wrong(matrix, rhs):
            w4, w7 = solve_square(matrix, rhs)
            return w4, w7 + s

        monkeypatch.setattr(structure, "solve_square", wrong)
        rng = random.Random(7)
        for _ in range(8):
            sec = random_product_section(rng, ctx)
            assert not lcms_coincide(sec)
            w2 = sec.components[1]
            shift = (s.diff(1) - (w2 * s).diff(2)) / nondegeneracy(sec)
            residual = product_constants(sec).jacobi_residuals[0]
            assert not residual.is_zero()
            assert residual == -shift

    def test_solves_through_the_module_name_once(self, monkeypatch):
        # perfbench/tracer.py times the solve by wrapping structure.solve_square
        calls = []
        original = structure.solve_square

        def counting(matrix, rhs):
            calls.append(len(matrix))
            return original(matrix, rhs)

        monkeypatch.setattr(structure, "solve_square", counting)
        for sec in (flat_product(), projective_product()):
            calls.clear()
            product_constants(sec)
            assert calls == [2]


class TestScalingLaw:
    def test_minus_two_scale(self):
        report = product_constants(projective_product())
        scaled = scaling_law(report, Fraction(-2))
        assert scaled.constants["c"] == CTX2.one()
        # oracle: recompute on the rescaled section
        w3 = parse_in("1/(x2 - x1)^2", CTX2) * CTX2.rational(-2)
        resec = section(ObjectKind.PRODUCT_TRIPLE_2D, [CTX2.zero(), CTX2.zero(), w3])
        assert product_constants(resec).constants["c"] == scaled.constants["c"]

    def test_zero_constant_fixed(self):
        report = product_constants(flat_product())
        assert scaling_law(report, Fraction(9, 7)).constants["c"].is_zero()

    def test_symbolic_parameter(self):
        report = product_constants(projective_product())
        scaled = scaling_law(report, "a")
        ctx = scaled.constants["c"].context
        assert scaled.constants["c"] == ctx.rational(-2) / ctx.parameter("a")

    def test_covariance_on_random_scales(self):
        rng = random.Random(47)
        base = product_constants(projective_product())
        for _ in range(5):
            a = random_nonzero_rational(rng)
            w3 = parse_in("1/(x2 - x1)^2", CTX2) * CTX2.rational(a)
            resec = section(ObjectKind.PRODUCT_TRIPLE_2D, [CTX2.zero(), CTX2.zero(), w3])
            assert (
                product_constants(resec).constants["c"]
                == scaling_law(base, a).constants["c"]
            )

    def test_zero_scale_rejected(self):
        with pytest.raises(ZeroScale):
            scaling_law(product_constants(flat_product()), 0)

    def test_metric_constant_scaling(self):
        from vessiot.curvature import Metric2D, metric_constants

        hp = parse_in("1/x2^2", CTX2)
        report = metric_constants(Metric2D(hp, hp, CTX2.zero()))
        scaled = scaling_law(report, Fraction(4))
        assert scaled.constants["c1"] == CTX2.rational("-1/4")
        recomputed = metric_constants(
            Metric2D(hp * CTX2.rational(4), hp * CTX2.rational(4), CTX2.zero())
        )
        assert recomputed.constants["c1"] == scaled.constants["c1"]

    def test_unsupported_kind(self):
        report = affine_constant_1d(CTX1.one(), CTX1.zero())
        with pytest.raises(KindMismatch):
            scaling_law(report, 2)


class TestEquivalenceGate:
    def test_product_obstruction(self):
        verdict = equivalence_gate(flat_product(), projective_product())
        assert verdict.obstructed
        assert any("impossible" in r for r in verdict.reasons)

    def test_metric_determinant_sign_obstruction(self):
        verdict = equivalence_gate(euclidean_metric(), indefinite_metric())
        assert verdict.obstructed
        assert any("determinant signs differ" in r for r in verdict.reasons)
        assert verdict.sample_point == (Fraction(2), Fraction(3))

    def test_self_comparison_passes(self):
        for sec in (flat_product(), projective_product(), euclidean_metric()):
            assert not equivalence_gate(sec, sec).obstructed

    def test_symmetry(self):
        pairs = [
            (flat_product(), projective_product()),
            (euclidean_metric(), indefinite_metric()),
        ]
        for left, right in pairs:
            assert (
                equivalence_gate(left, right).status
                == equivalence_gate(right, left).status
            )

    def test_metric_constant_zero_mismatch(self):
        hp = parse_in("1/x2^2", CTX2)
        curved = section(ObjectKind.METRIC_2D, [hp, hp, CTX2.zero()])
        verdict = equivalence_gate(euclidean_metric(), curved)
        assert verdict.obstructed
        assert any("c1" in r for r in verdict.reasons)

    def test_sample_point_override(self):
        verdict = equivalence_gate(
            euclidean_metric(),
            indefinite_metric(),
            sample_point=(Fraction(5), Fraction(-1)),
        )
        assert verdict.obstructed
        assert verdict.sample_point == (Fraction(5), Fraction(-1))

    def test_zero_determinant_never_obstructs(self):
        shifted = section(ObjectKind.METRIC_2D, [parse_in("x1 - 1", CTX2), CTX2.one(), CTX2.zero()])
        for point in ((Fraction(1), Fraction(3)), (Fraction(2), Fraction(3))):
            verdict = equivalence_gate(shifted, euclidean_metric(), sample_point=point)
            assert not verdict.obstructed
            assert verdict.sample_point == point
        verdict = equivalence_gate(
            shifted, indefinite_metric(), sample_point=(Fraction(1), Fraction(3))
        )
        assert not verdict.obstructed

    @pytest.mark.parametrize(
        "left, right",
        [
            ("w11 = x1", "w11 = -x1"),  # (x1, x2) -> (-x1, x2) maps one to the other
            ("w11 = x1^2", "w11 = x1^2 - 9"),
            ("params = a\nw11 = a", "w11 = -1"),
        ],
    )
    def test_sign_changing_determinant_never_obstructs(self, left, right):
        # pullback fixes sign det at the image point, not at a shared one
        for sample_point in (None, (Fraction(5), Fraction(7))):
            verdict = equivalence_gate(
                diagonal_metric(left), diagonal_metric(right), sample_point=sample_point
            )
            assert not verdict.obstructed

    def test_fixed_sign_determinants_obstruct(self):
        verdict = equivalence_gate(diagonal_metric("w11 = x1^2 + 1"), diagonal_metric("w11 = -1"))
        assert verdict.obstructed
        assert verdict.reasons == [
            "determinant signs differ at sample point (2, 3): det = 5 vs -1,"
            " but pullback forces det(w)*Delta^2 = det(w_bar)"
        ]
        assert verdict.sample_point == (Fraction(2), Fraction(3))

    @pytest.mark.parametrize(
        "left",
        [
            "w11 = x1^2",  # det = 0 at the point
            "w11 = 1/x1^2",  # det has a pole at the point
        ],
    )
    def test_fixed_sign_obstruction_where_the_point_shows_no_sign(self, left):
        verdict = equivalence_gate(
            diagonal_metric(left), diagonal_metric("w11 = -1"),
            sample_point=(Fraction(0), Fraction(3)),
        )
        assert verdict.obstructed
        assert verdict.reasons == [
            "determinant signs differ: det is positive vs negative wherever defined"
            " and nonzero, but pullback forces det(w)*Delta^2 = det(w_bar)"
        ]

    def test_sample_point_length_checked(self):
        for point in ((Fraction(1),), (Fraction(1), Fraction(2), Fraction(3))):
            for left, right in (
                (euclidean_metric(), indefinite_metric()),
                (flat_product(), projective_product()),
            ):
                with pytest.raises(InputFormatError):
                    equivalence_gate(left, right, sample_point=point)

    def test_not_integrable_rejected(self):
        w3 = parse_in("1/(x2 - x1)^3", CTX2)
        bad = section(ObjectKind.PRODUCT_TRIPLE_2D, [CTX2.zero(), CTX2.zero(), w3])
        with pytest.raises(NotIntegrable):
            equivalence_gate(bad, flat_product())

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatch):
            equivalence_gate(flat_product(), euclidean_metric())
        with pytest.raises(KindMismatch):
            equivalence_gate(
                section(ObjectKind.ONE_FORM_1D, [CTX1.one()]),
                section(ObjectKind.ONE_FORM_1D, [CTX1.one()]),
            )


class TestContactConstants:
    def test_standard_contact_pair(self):
        alpha = one_form(CTX3, [CTX3.one(), -parse_in("x3", CTX3), CTX3.zero()])
        beta = two_form_cyclic(CTX3, CTX3.one(), CTX3.zero(), CTX3.zero())
        report = contact_constants(alpha, beta)
        assert report.integrable
        assert report.constants["c_prime"] == CTX3.one()
        assert report.constants["c_second"] == CTX3.zero()
        assert all(r.is_zero() for r in report.jacobi_residuals)

    def test_closed_pair(self):
        alpha = one_form(CTX3, [CTX3.one(), CTX3.zero(), CTX3.zero()])
        beta = two_form_cyclic(CTX3, CTX3.one(), CTX3.zero(), CTX3.zero())
        report = contact_constants(alpha, beta)
        assert report.constants["c_prime"].is_zero()
        assert report.constants["c_second"].is_zero()

    def test_degenerate_pair(self):
        alpha = one_form(CTX3, [CTX3.one(), CTX3.zero(), CTX3.zero()])
        beta = two_form_cyclic(CTX3, CTX3.zero(), CTX3.zero(), CTX3.one())
        with pytest.raises(DegeneratePair):
            contact_constants(alpha, beta)

    def test_not_proportional(self):
        # d(alpha) = dx2^dx3 but beta has a dx1^dx2 leg of its own
        alpha = one_form(CTX3, [CTX3.one(), -parse_in("x3", CTX3), CTX3.zero()])
        beta = two_form_cyclic(CTX3, CTX3.one(), CTX3.zero(), parse_in("x1", CTX3))
        with pytest.raises(NotProportional):
            contact_constants(alpha, beta)

    def test_jacobi_product_vanishes_when_integrable(self):
        # rescaled contact pair: d(alpha) = 2*beta, d(beta) = 0
        two = CTX3.rational(2)
        alpha = one_form(CTX3, [two, -two * parse_in("x3", CTX3), CTX3.zero()])
        beta = two_form_cyclic(CTX3, CTX3.one(), CTX3.zero(), CTX3.zero())
        report = contact_constants(alpha, beta)
        assert report.constants["c_prime"] == two
        assert report.constants["c_second"].is_zero()
        assert (report.constants["c_prime"] * report.constants["c_second"]).is_zero()


class TestReportInvariants:
    @pytest.mark.parametrize(
        "fields",
        [
            (
                {"constants": {"c": parse_in("x1", CTX2)}},
                "structure constant c = x1 is not constant",
            ),
            (
                {"constants": {"c_prime": CTX2.one(), "c_second": parse_in("x2", CTX2)}},
                "structure constant c_second = x2 is not constant",
            ),
            (
                {"constants": {}, "jacobi_residuals": [CTX2.one()]},
                "an integrable report has a nonzero Jacobi residual",
            ),
        ],
    )
    def test_integrable_report_rejects(self, fields):
        kwargs, message = fields
        with pytest.raises(ValueError, match=f"^{message}$"):
            StructureReport(kind="PRODUCT_TRIPLE_2D", **kwargs)

    def test_verdict_rejects(self):
        # the status is read from the reasons, and no argument is positional
        with pytest.raises(TypeError):
            EquivalenceVerdict(["r"])
        passed = EquivalenceVerdict()
        assert (passed.status, passed.obstructed) == ("NecessaryConditionsPass", False)
        obstructed = EquivalenceVerdict(reasons=["r"])
        assert (obstructed.status, obstructed.obstructed) == ("Obstructed", True)

    def test_keyword_construction(self):
        report = StructureReport(kind="PRODUCT_TRIPLE_2D", constants={}, residual=CTX2.one())
        assert report.kind == "PRODUCT_TRIPLE_2D"
        assert (report.constants, report.integrable) == ({}, False)
        assert report.residual == CTX2.one()
        assert report.jacobi_residuals == []

    def test_default_lists_not_shared(self):
        first, second = (StructureReport("PRODUCT_TRIPLE_2D", {}) for _ in range(2))
        first.jacobi_residuals.append(CTX2.zero())
        assert second.jacobi_residuals == []
        first, second = (EquivalenceVerdict(reasons=None) for _ in range(2))
        first.reasons.append("why")
        assert second.reasons == []

    def test_enforced_under_python_O(self):
        # python -O strips assert statements; the invariants must not be asserts
        code = (
            "from vessiot.reports import StructureReport\n"
            "from vessiot.symexpr import parse\n"
            "try:\n"
            "    StructureReport(kind='PRODUCT_TRIPLE_2D', constants={'c': parse('x1', 2)})\n"
            "except ValueError:\n"
            "    print('rejected')\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(vessiot.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-O", "-c", code],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        assert out.stdout == "rejected\n"


# one non-integrable section of every kind the compute pipeline builds
NON_INTEGRABLE = {
    "ONE_FORM_1D": "alpha = x1\ngamma = 0",
    "CHRISTOFFEL_1D": "gamma = 0\nnu = x1",
    "METRIC_2D": "w11 = 1\nw22 = 1 + x1^2\nw12 = 0",
    "PRODUCT_TRIPLE_2D": "w1 = 0\nw2 = 0\nw3 = 1 + x1*x2",
    "CHRISTOFFEL_2D": "g1_11 = x2\ng1_12 = 0\ng1_22 = 0\ng2_11 = 0\ng2_12 = 0\ng2_22 = 0",
    # d(alpha) = beta/(x1^2 + 1), d(beta) = 2*x1/(x1^2 + 1) alpha^beta
    "CONTACT_PAIR_3D": "a1 = 1\na2 = -x3\na3 = 0\nb23 = x1^2 + 1\nb31 = 0\nb12 = 0",
}


class TestVerdictRule:
    """``StructureReport.of`` is the one rule from would-be constants and
    Jacobi residuals to a report."""

    @pytest.mark.parametrize("path", sorted(SECTIONS.glob("*.section")), ids=lambda p: p.name)
    def test_bundled_sections_integrable_iff_no_residual(self, path):
        report, _ = structure.structure_report(*load_section(path))
        assert report.integrable == (report.residual is None)

    @pytest.mark.parametrize("kind", sorted(NON_INTEGRABLE))
    def test_non_integrable_section_carries_its_residual(self, kind):
        report, _ = structure.structure_report(
            *parse_section_text(f"kind = {kind}\n{NON_INTEGRABLE[kind]}")
        )
        assert not report.integrable
        assert report.integrable == (report.residual is None)
        assert report.constants == {}

    def test_residual_is_c_prime_before_c_second(self):
        x1, x2 = parse_in("x1", CTX2), parse_in("x2", CTX2)
        report = StructureReport.of("PRODUCT_TRIPLE_2D", {"c_prime": x1, "c_second": x2})
        assert report.residual == x1
        report = StructureReport.of("PRODUCT_TRIPLE_2D", {"c_prime": CTX2.one(), "c_second": x2})
        assert report.residual == x2
        sec, _ = parse_section_text(
            f"kind = CONTACT_PAIR_3D\n{NON_INTEGRABLE['CONTACT_PAIR_3D']}"
        )
        report = contact_constants(*structure.contact_pair_forms(sec))
        assert report.residual == parse_in("1/(x1^2 + 1)", CTX3)

    def test_shown_constants_of_an_integrable_report(self):
        report = StructureReport.of(
            "PRODUCT_TRIPLE_2D", {"c_prime": CTX2.one(), "c_second": CTX2.one()},
            jacobi=[CTX2.zero()], shown={"c": CTX2.one()},
        )
        assert report.integrable and report.constants == {"c": CTX2.one()}

    def test_nonzero_jacobi_with_constant_functions_is_an_engine_fault(self):
        with pytest.raises(RuntimeError, match="^Jacobi identity violated"):
            StructureReport.of(
                "CONTACT_PAIR_3D", {"c_prime": CTX3.one(), "c_second": CTX3.one()},
                jacobi=[CTX3.one()],
            )
