import random
import time
from fractions import Fraction

import pytest

from helpers import (
    random_expression,
    random_expression_with_history,
    random_point,
    shared_factor_pair,
)
from vessiot import symexpr
from vessiot.curvature import Metric2D, christoffel, riemann
from vessiot.errors import (
    DivisionByZero,
    DivisionByZeroLiteral,
    ExprSyntaxError,
    InputTooLarge,
    SingularPoint,
    UnknownIdentifier,
)
from vessiot.symexpr import Context, _cancel, _is_unit_poly, _pconst, _Poly, parse, parse_in


class TestParse:
    def test_projective_denominator(self):
        e = parse("1/(x2 - x1)^2", 2)
        t = parse("x2 - x1", 2)
        assert e * t * t == Context(2).one()

    def test_zero_literal(self):
        assert parse("0", 2).is_zero()

    def test_polynomial_cancellation(self):
        # oracle: (x1 + 1)(x1 - 1) expands to x1^2 - 1
        expected = parse("x1 + 1", 1)
        assert (expected * parse("x1 - 1", 1)) == parse("x1^2 - 1", 1)
        assert parse("(x1^2 - 1)/(x1 - 1)", 1) == expected

    def test_precedence_and_unary_minus(self):
        assert parse("-x1^2", 1) == -(parse("x1", 1) ** 2)
        assert parse("2*x1/x1", 1) == parse("2", 1)
        assert parse("1 - 2 - 3", 1) == parse("-4", 1)
        assert parse("x1^-1", 1) == parse("1/x1", 1)
        assert parse("x1^(-2)", 1) == parse("1/x1^2", 1)

    def test_parameters(self):
        e = parse("a*x1 + a^2", 1, ["a"])
        assert not e.is_zero()
        assert e.is_constant() is False

    def test_syntax_error_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("x1 + ", 2)
        assert err.value.position == 5

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifier):
            parse("x3", 2)
        with pytest.raises(UnknownIdentifier):
            parse("b + 1", 2, ["a"])

    def test_division_by_zero_literal(self):
        with pytest.raises(DivisionByZeroLiteral):
            parse("1/0", 2)
        with pytest.raises(DivisionByZeroLiteral):
            parse("x1/(x2 - x2)", 2)

    def test_bad_character(self):
        with pytest.raises(ExprSyntaxError):
            parse("x1 ? 2", 2)

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse("2x1", 2)

    def test_deep_parentheses_rejected(self):
        assert parse("(" * 100 + "x1" + ")" * 100, 2) == parse("x1", 2)
        assert parse("x1^" + "(" * 100 + "2" + ")" * 100, 2) == parse("x1^2", 2)
        for depth in (101, 3000):
            with pytest.raises(ExprSyntaxError, match="nesting"):
                parse("(" * depth + "1" + ")" * depth, 2)
        with pytest.raises(ExprSyntaxError, match="nesting"):
            parse("x1^" + "(" * 3000 + "2" + ")" * 3000, 2)

    def test_long_unary_minus_chain_rejected(self):
        assert parse("- " * 100 + "1", 2) == parse("1", 2)
        with pytest.raises(ExprSyntaxError, match="nesting"):
            parse("- " * 3000 + "1", 2)
        with pytest.raises(ExprSyntaxError, match="nesting"):
            parse("-(" * 51 + "1" + ")" * 51, 2)


    def test_input_budget(self):
        assert parse("10^1000", 1) == parse("10", 1) ** 1000
        assert parse("9" * 1000, 1) == parse("10^1000 - 1", 1)
        assert parse("(x1 + 1)^50 * (x1 - 1)^-50", 1) == parse("((x1 + 1)/(x1 - 1))^50", 1)
        for text, match in [
            ("2^1001", "exponent"),
            ("x1^-1001", "exponent"),
            ("1" * 1001, "literal"),
            ("1" * 10_000 + "*x1", "literal"),
        ]:
            with pytest.raises(ExprSyntaxError, match=match):
                parse(text, 1)
        # the expanded degree is checked before any multiplication
        for text in ("(x1 + x2 + 1)^101", "(x1^2 + 1)^51", "((x1 + 1)^10)^11", "1/x1^101"):
            with pytest.raises(InputTooLarge):
                parse(text, 2)

    def test_power_squares_only_while_bits_remain(self, monkeypatch):
        base = parse("x1 + x2 + 1", 2).num
        squarings = []
        original = _Poly.__mul__

        def counting(a, b):
            if a is b:
                squarings.append(len(a.terms))
            return original(a, b)

        monkeypatch.setattr(_Poly, "__mul__", counting)
        expected = base
        for k in range(1, 20):
            squarings.clear()
            assert base.pow(k) == expected
            assert len(squarings) == k.bit_length() - 1
            expected = original(expected, base)

    def test_power_term_budget(self):
        # the unused last squaring made this ^8 take seconds
        start = time.perf_counter()
        assert len(parse("(x1+x2+x3+x4+x5+x6+1)^8", 6).num.terms) == 3003
        assert time.perf_counter() - start < 1.0
        # bounded before anything expands: C(18, 12) = 18,564 and C(26, 20) = 230,230
        for k in (12, 20):
            start = time.perf_counter()
            with pytest.raises(InputTooLarge, match="terms"):
                parse(f"(x1+x2+x3+x4+x5+x6+1)^{k}", 6)
            assert time.perf_counter() - start < 1.0
        # few base terms bound the result even in many slots
        assert len(parse("(x1*x2*x3 + x4*x5*x6)^30", 6).num.terms) == 31

    def test_product_pair_budget(self, monkeypatch):
        dense = _Poly({(i, 0): 1 for i in range(1500)})
        start = time.perf_counter()
        with pytest.raises(InputTooLarge, match="1500 by 1500 terms"):
            dense * dense
        assert time.perf_counter() - start < 0.1
        # the budget counts term pairs of the general product, at the limit and past it
        monkeypatch.setattr(symexpr, "MAX_MUL_PAIRS", 100)
        ten = _Poly({(i, 0): 1 for i in range(10)})
        eleven = _Poly({(0, j): 1 for j in range(11)})
        assert len((ten * ten).terms) == 19
        with pytest.raises(InputTooLarge, match="term pairs"):
            ten * eleven
        # a single-term factor scales or shifts and never counts
        assert len((dense * _Poly({(1, 1): 3})).terms) == 1500

    def test_coefficient_budget(self):
        # a coefficient may reach 10^1000 in magnitude, in the numerator or the denominator
        at_limit = parse("x1/10^1000 - 1", 1)
        assert at_limit.num == _Poly({(1,): 1, (0,): -(10**1000)})
        assert at_limit.den == _Poly({(0,): 10**1000})
        assert parse("10^500 * 10^500 * x1", 1) == parse("10^1000 * x1", 1)
        # every step of the parse is held to it, so no later step runs on a
        # value past it: a sum, a product, a quotient, a power, a chain of powers
        for text in (
            "10^1000 + 1", "x1 / (10^1000 + 1)", "1/10^600 + 1/(10^600 - 1)", "11^1000",
            "10^600 * 10^600", "(10^999 * x1 + 1)^2", "10^1000^1000^1000",
            "(" + "*".join(["10^1000"] * 100) + ")^1000",
        ):
            with pytest.raises(InputTooLarge, match="coefficient"):
                parse(text, 1)


class TestArithmetic:
    def test_additive_inverse(self):
        x1 = parse("x1", 2)
        assert (x1 + (-x1)).is_zero()

    def test_multiplicative_inverse(self):
        assert parse("1/x1", 2) * parse("x1", 2) == Context(2).one()

    def test_hand_normalization(self):
        # 1/(x2-x1) - (1/(x2-x1)^2)*(x2-x1) = 0
        a = parse("1/(x2 - x1)", 2)
        b = parse("1/(x2 - x1)^2", 2)
        t = parse("x2 - x1", 2)
        assert (a - b * t).is_zero()

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            parse("x1", 1) / parse("x1 - x1", 1)

    def test_context_mismatch(self):
        with pytest.raises(ValueError):
            parse("x1", 1) + parse("x1", 2)


class TestDiff:
    def test_quotient_rule(self):
        # d/dx2 of (x2 - x1)^-2 is -2 (x2 - x1)^-3
        e = parse("1/(x2 - x1)^2", 2)
        assert e.diff(2) == parse("-2/(x2 - x1)^3", 2)

    def test_parameter_only_expression(self):
        e = parse("a^2/(a + 3)", 1, ["a"])
        assert e.diff(1).is_zero()
        assert e.is_constant()

    def test_monomial(self):
        assert parse("x1*x2", 2).diff(1) == parse("x2", 2)

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            parse("x1", 2).diff(3)


class TestIsConstant:
    def test_coordinate_not_constant(self):
        assert not parse("x1", 2).is_constant()

    def test_parameter_alone(self):
        assert parse("a", 2, ["a"]).is_constant()

    def test_constant_quotient_of_nonconstants(self):
        e = parse("(2*x1 + 2*x2)/(x1 + x2)", 2)
        assert e.is_constant()
        assert e.constant_value() == 2


class TestFixedSign:
    @pytest.mark.parametrize(
        "text, sign",
        [
            ("-2", -1),
            ("x1^2 + 1", 1),
            ("-x1^2*x2^4 - 3", -1),
            ("a^2", 1),
            ("-(x1^2 + 1)/(x2^2 + a^4)", -1),
            ("x1", 0),
            ("x1^2 - 9", 0),
            ("a", 0),  # a parameter has no known sign
            ("x1^2/(x2^2 - 1)", 0),
            ("0", 0),
        ],
    )
    def test_certificate(self, text, sign):
        assert parse(text, 2, ["a"]).fixed_sign() == sign


class TestProperties:
    def test_field_and_derivation_laws(self):
        rng = random.Random(7)
        ctx = Context(2, ["a"])
        for _ in range(30):
            e = random_expression(ctx, rng)
            f = random_expression(ctx, rng)
            assert (e - e).is_zero()
            if not f.is_zero():
                assert (e * f) / f == e
            for i in (1, 2):
                lhs = (e * f).diff(i)
                rhs = e.diff(i) * f + e * f.diff(i)
                assert lhs == rhs
            assert e.diff(1).diff(2) == e.diff(2).diff(1)

    def test_parse_print_round_trip(self):
        rng = random.Random(11)
        ctx = Context(2, ["a"])
        for _ in range(40):
            e = random_expression(ctx, rng)
            assert parse_in(str(e), ctx) == e

    def test_print_parse_idempotent(self):
        ctx = Context(2)
        e = parse_in("(x1 + x2)^3/(x1 - x2)", ctx)
        once = str(e)
        assert str(parse_in(once, ctx)) == once

    def test_evaluation_consistency(self):
        rng = random.Random(13)
        ctx = Context(2, ["a"])
        checked = 0
        while checked < 20:
            e, history = random_expression_with_history(ctx, rng)
            point = random_point(ctx, rng)
            try:
                direct = history(point)
                normalized = e.evaluate(point)
            except (ZeroDivisionError, SingularPoint):
                continue
            assert normalized == direct
            checked += 1

    def test_equal_expressions_identical_form(self):
        ctx = Context(2)
        a = parse_in("(x1 + x2)*(x1 - x2)", ctx)
        b = parse_in("x1^2 - x2^2", ctx)
        assert a == b
        assert str(a) == str(b)

    def test_evaluate_singular_point(self):
        e = parse("1/(x1 - 1)", 1)
        with pytest.raises(SingularPoint):
            e.evaluate([Fraction(1)])


class TestCancelCost:
    """_cancel takes its quotients from the gcd's own construction."""

    @pytest.fixture
    def divisions(self, monkeypatch):
        """(divisor, made inside the heuristic gcd) for each exact division."""
        calls, depth = [], [0]
        divexact, heuristic = _Poly.divexact, symexpr._heu_gcd

        def counted_divexact(p, q):
            calls.append((q, depth[0] > 0))
            return divexact(p, q)

        def tracked_heuristic(f, g):
            depth[0] += 1
            try:
                return heuristic(f, g)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(_Poly, "divexact", counted_divexact)
        monkeypatch.setattr(symexpr, "_heu_gcd", tracked_heuristic)
        return calls

    def test_coprime_pair_divides_nothing(self, divisions):
        a, b = parse("x1^2 + x2 + 1", 2).num, parse("3*x1 - x2^2 + 3", 2).num
        qa, qb, g = _cancel(a, b)
        assert (qa, qb) == (a, b) and _is_unit_poly(g)
        assert divisions == []

    def test_shared_factor_divides_only_to_verify(self, divisions):
        f = parse("x1 + 2*x2 + 1", 2)
        a, b = (f * parse("x1 - x2", 2)).num, (f * parse("6*x1^2 + 3", 2)).num
        qa, qb, g = _cancel(a, b)
        assert g == f.num and qa * g == a and qb * g == b
        # the heuristic checks its candidate against both operands, and those
        # quotients are the result: no division after it
        assert divisions[-2:] == [(g, True), (g, True)]
        assert all(inside for _, inside in divisions)

    def test_never_divides_by_one(self, divisions):
        rng = random.Random(17)
        ctx = Context(2, ["a"])
        for _ in range(30):
            e, f = random_expression(ctx, rng), random_expression(ctx, rng)
            e + f, e * f, e.diff(1)
            if not f.is_zero():
                e / f
        # shared factors, so that gcds are not 1
        for text in ("(x1^2 - x2^2)/(x1 - x2)", "(x1 + x2)^2/(a*x1^2 - a*x2^2)"):
            parse_in(text, ctx)
        w = [parse_in(t, ctx) for t in ("x1^2 + a*x2 + 1", "x2^2 - x1 + 2", "x1*x2 + 3")]
        riemann(christoffel(Metric2D(*w)))
        riemann(christoffel(Metric2D(*(c / w[2] for c in w))))
        assert divisions and not any(_is_unit_poly(q) for q, _ in divisions)


class TestGiveUp:
    """A gcd the heuristic cannot settle raises InputTooLarge at once."""

    @pytest.fixture(autouse=True)
    def gives_up(self, monkeypatch):
        monkeypatch.setattr(symexpr, "_heu_gcd", lambda f, g: None)

    def test_shared_factor_pair_raises_at_once(self):
        # pseudo-remainder sequences once ran on this pair for minutes
        a, b = shared_factor_pair(random.Random(3))
        start = time.perf_counter()
        with pytest.raises(InputTooLarge, match="gcd of 19 and 15 terms"):
            _cancel(a, b)
        assert time.perf_counter() - start < 1.0

    def test_monomial_and_equal_primitive_pairs_need_no_heuristic(self):
        f = parse("x1^2*x2 + 3*x1", 2).num
        assert _cancel(f, parse("6*x1^3", 2).num) == (
            parse("x1*x2 + 3", 2).num, parse("6*x1^2", 2).num, parse("x1", 2).num
        )
        three, minus_two = _pconst(2, 3), _pconst(2, -2)
        assert _cancel(f * three, f * minus_two) == (three, minus_two, f)
        assert parse("(x1 + x2)/(2*x1 + 2*x2)", 2) == parse("1/2", 2)


class TestCompletePoint:
    def test_padding(self):
        ctx = Context(2, ["a"])
        assert ctx.complete_point() == ctx.default_point() == (2, 3, 4)
        assert ctx.complete_point([5]) == (5, 3, 4)
        assert ctx.complete_point(["1/2", 7, 0]) == (Fraction(1, 2), 7, 0)
        assert all(type(v) is Fraction for v in ctx.complete_point([1]))

    def test_long_point_kept_for_evaluate_to_refuse(self):
        ctx = Context(1)
        point = ctx.complete_point([1, 2])
        assert point == (1, 2)
        with pytest.raises(ValueError):
            ctx.coordinate(1).evaluate(point)


class TestSqrt:
    def test_reciprocal_square(self):
        assert parse("1/x1^2", 1).sqrt() == parse("1/x1", 1)

    def test_not_a_square(self):
        assert parse("2*x1^2", 1).sqrt() is None
        assert parse("x1", 1).sqrt() is None

    def test_coefficient_beyond_float_range(self):
        assert parse("10^400*x1^2", 1).sqrt() == parse("10^200*x1", 1)

    def test_square_round_trip(self):
        rng = random.Random(3)
        ctx = Context(2)
        for _ in range(10):
            e = random_expression(ctx, rng, depth=2)
            if e.is_zero():
                continue
            root = (e * e).sqrt()
            assert root is not None
            assert root * root == e * e
