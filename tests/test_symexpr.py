import random
from fractions import Fraction

import pytest

from helpers import random_expression, random_expression_with_history, random_point
from vessiot.errors import (
    DivisionByZero,
    DivisionByZeroLiteral,
    ExprSyntaxError,
    SingularPoint,
    UnknownIdentifier,
)
from vessiot.symexpr import Context, parse, parse_in


class TestParse:
    def test_projective_denominator(self):
        e = parse("1/(x2 - x1)^2", 2)
        t = parse("x2 - x1", 2)
        assert (e * t * t).is_one()

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


class TestArithmetic:
    def test_additive_inverse(self):
        x1 = parse("x1", 2)
        assert (x1 + (-x1)).is_zero()

    def test_multiplicative_inverse(self):
        assert (parse("1/x1", 2) * parse("x1", 2)).is_one()

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
