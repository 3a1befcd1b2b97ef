import random
import time
from fractions import Fraction
from operator import add

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from helpers import (
    packed,
    random_expression,
    random_expression_with_history,
    random_point,
    shared_factor_pair,
)
from vessiot import cli, symexpr
from vessiot.curvature import Metric2D, christoffel, riemann
from vessiot.errors import (
    DivisionByZero,
    DivisionByZeroLiteral,
    ExprSyntaxError,
    InputTooLarge,
    SingularPoint,
    UnknownIdentifier,
    VessiotError,
)
from vessiot.symexpr import (
    MAX_TOTAL_DEGREE,
    Context,
    Expression,
    _cancel,
    _eval_at,
    _interp,
    _is_unit_poly,
    _pack,
    _pconst,
    _Poly,
    _unpack,
    parse,
    parse_in,
)

# derandomized, and no shrinking: a failing example reports at once
LAYOUT = settings(
    max_examples=60, derandomize=True, database=None, deadline=None,
    phases=(Phase.explicit, Phase.generate),
)


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

    def test_single_term_power_checks_degree_only(self, monkeypatch):
        # one term has one term in every power: no term-count budget is formed,
        # and the degree check, which comes first, keeps its message
        def no_budget(self):
            raise AssertionError("term-count budget formed for a single term")

        monkeypatch.setattr(_Poly, "used_slots", no_budget)
        assert str(parse("x1^100", 2)) == "x1^100"
        assert parse("-2*x1*x2^3", 2).num.pow(3) == parse("-8*x1^3*x2^9", 2).num
        degree = r"^power of total degree 101 exceeds the limit of 100$"
        with pytest.raises(InputTooLarge, match=degree):
            parse("x1^101", 2)

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
        dense = packed({(i, 0): 1 for i in range(1500)})
        start = time.perf_counter()
        with pytest.raises(InputTooLarge, match="1500 by 1500 terms"):
            dense * dense
        assert time.perf_counter() - start < 0.1
        # the budget counts term pairs of the general product, at the limit and past it
        monkeypatch.setattr(symexpr, "MAX_MUL_PAIRS", 100)
        ten = packed({(i, 0): 1 for i in range(10)})
        eleven = packed({(0, j): 1 for j in range(11)})
        assert len((ten * ten).terms) == 19
        with pytest.raises(InputTooLarge, match="term pairs"):
            ten * eleven
        # a single-term factor scales or shifts and never counts
        assert len((dense * packed({(1, 1): 3})).terms) == 1500

    def test_coefficient_budget(self):
        # a coefficient may reach 10^1000 in magnitude, in the numerator or the denominator
        at_limit = parse("x1/10^1000 - 1", 1)
        assert at_limit.num == packed({(1,): 1, (0,): -(10**1000)})
        assert at_limit.den == packed({(0,): 10**1000})
        assert parse("10^500 * 10^500 * x1", 1) == parse("10^1000 * x1", 1)
        # a sum is held to it by its value, not by its partial sums; in the
        # last, the polynomial part 10^1000 + 1 alone is past it
        for text in ("10^1000 + 1 - 1", "10^1000 + 10^1000 - 10^1000", "10^1000 + 1 - 1/1"):
            assert parse(text, 1) == parse("10^1000", 1)
        # every product, quotient and power of the parse is held to it, and
        # the value of every sum, so no later step runs on a value past it
        for text in (
            "10^1000 + 1", "x1 / (10^1000 + 1)", "1/10^600 + 1/(10^600 - 1)", "11^1000",
            # each partial sum of Expression operands: their denominators multiply
            "x1 - x1/3*10^1000 - x1/3 + 1",
            "10^600 * 10^600", "(10^999 * x1 + 1)^2", "10^1000^1000^1000",
            "(" + "*".join(["10^1000"] * 100) + ")^1000",
        ):
            with pytest.raises(InputTooLarge, match="coefficient"):
                parse(text, 1)


COEFFICIENT = "coefficient beyond 10^1000 in magnitude"

# (text with a {d} mark, exception, message with {at}, position in the
# polynomial text).  The polynomial text drops the mark; the Expression text
# puts "/1" there, so the operand before it, and every step after it that
# meets it, runs on Expression operands.
ERROR_CONTRACT = [
    pytest.param("x1{d} + " + "1" * 1001, ExprSyntaxError,
                 "integer literal longer than 1000 digits (at position {at})", 5, id="literal"),
    pytest.param("(x1{d})^1001", ExprSyntaxError,
                 "exponent beyond +-1000 (at position {at})", 4, id="exponent"),
    pytest.param("(x1{d})^-1001", ExprSyntaxError,
                 "exponent beyond +-1000 (at position {at})", 4, id="negative-exponent"),
    pytest.param("(x1 + x2 + 1{d})^101", InputTooLarge,
                 "power of total degree 101 exceeds the limit of 100", None, id="power-degree"),
    pytest.param("(x1 + x2 + x3 + x4 + x5 + x6 + 1{d})^12", InputTooLarge,
                 "power of up to 18564 terms exceeds the limit of 10000", None, id="power-terms"),
    pytest.param("10^1000{d} + 1", InputTooLarge, COEFFICIENT, None, id="coefficient-sum"),
    pytest.param("10^600{d} * 10^600", InputTooLarge, COEFFICIENT, None, id="coefficient-product"),
    pytest.param("(11{d})^1000", InputTooLarge, COEFFICIENT, None, id="coefficient-power"),
    pytest.param("x1{d} + " + "(" * 101 + "1" + ")" * 101, ExprSyntaxError,
                 "nesting deeper than 100 levels (at position {at})", 105, id="nesting"),
    pytest.param("x1/(x2{d} - x2)", DivisionByZeroLiteral,
                 "denominator is zero (at position {at})", 2, id="zero-denominator"),
    pytest.param("(0{d})^-1", DivisionByZeroLiteral,
                 "zero raised to a negative power (at position {at})", 3, id="zero-negative-power"),
    pytest.param("x1{d} + b", UnknownIdentifier,
                 "unknown identifier 'b' (at position {at})", 5, id="unknown-identifier"),
    pytest.param("x1{d} + 1 )", ExprSyntaxError,
                 "unexpected trailing input ')' (at position {at})", 7, id="trailing-input"),
]


class TestParseErrorContract:
    """Every refusal reads the same whether the failing step runs on kernel
    polynomials or on Expressions."""

    @pytest.mark.parametrize("route", ["polynomial", "expression"])
    @pytest.mark.parametrize("template, error, message, at", ERROR_CONTRACT)
    def test_same_error_on_both_routes(self, template, error, message, at, route):
        mark = "/1" if route == "expression" else ""
        text = template.format(d=mark)
        if at is not None and template.index("{d}") <= at:
            at += len(mark)
        with pytest.raises(VessiotError) as err:
            parse(text, 6)
        assert type(err.value) is error
        assert str(err.value) == message.format(at=at)

    def test_random_token_strings_fail_cleanly(self):
        # a value, or a VessiotError whose message stays short
        rng = random.Random(18)
        tokens = ["x1", "x2", "a", "b", "0", "7", "10^999", "9" * 1001, "^2", "^101", "^1001",
                  "^-1", "^0", " + ", " - ", "*", "/", "(", ")", "-", "?"]
        ctx = Context(2, ["a"])
        outcomes = set()
        for _ in range(5000):
            text = "".join(rng.choice(tokens) for _ in range(rng.randint(1, 12)))
            try:
                parse_in(text, ctx)
                outcomes.add("value")
            except VessiotError as exc:
                outcomes.add(type(exc).__name__)
                assert len(str(exc).encode()) < 300, text
        assert outcomes == {"value", "ExprSyntaxError", "UnknownIdentifier", "InputTooLarge",
                            "DivisionByZeroLiteral"}


class TestParseCost:
    """A polynomial subtree parses on kernel polynomials: no gcd, and one
    content step at the end."""

    DENSE_D3 = "-x1^3 + x1^2*x2 - x1*x2^2 + x2^3 - x1^2 + x1*x2 + x2^2 + x1 - x2 + 7"

    @pytest.fixture
    def steps(self, monkeypatch):
        """("cancel" or "fill", whether it ran inside a division) for each
        cancel and content step, in order."""
        calls, dividing = [], [0]
        cancel, fill, truediv = symexpr._cancel, symexpr._fill, Expression.__truediv__

        def counted_cancel(a, b):
            calls.append(("cancel", dividing[0] > 0))
            return cancel(a, b)

        def counted_fill(*args):
            calls.append(("fill", dividing[0] > 0))
            return fill(*args)

        def tracked_truediv(a, b):
            dividing[0] += 1
            try:
                return truediv(a, b)
            finally:
                dividing[0] -= 1

        monkeypatch.setattr(symexpr, "_cancel", counted_cancel)
        monkeypatch.setattr(symexpr, "_fill", counted_fill)
        monkeypatch.setattr(Expression, "__truediv__", tracked_truediv)
        return calls

    def test_polynomial_text_fills_once(self, steps):
        e = parse(self.DENSE_D3, 2)
        assert len(e.num.terms) == 10 and _is_unit_poly(e.den)
        assert steps == [("fill", False)]

    def test_cancels_only_from_the_division_on(self, steps):
        # a divisor that is not a product of linear forms
        assert str(parse("1/(x2^2 + 5)", 2)) == "1/(x2^2 + 5)"
        cancels = [inside for step, inside in steps if step == "cancel"]
        assert cancels and all(cancels)

    @pytest.mark.parametrize("text", ["1/(x2 + 5)", "x1/((x1 + 1)^2*(2*x1 - x2)^3)", "(x2 + 1)^-2"])
    def test_linear_divisor_cancels_nothing(self, steps, text):
        # its factorization is read off the text, and the division meets it
        # in trial divisions by its bases
        parse(text, 2)
        assert [step for step, _ in steps if step == "cancel"] == []

    def test_polynomial_sum_copies_no_partial_sum(self, monkeypatch):
        # each operand adds into terms the loop owns: a _Poly.__add__ or
        # __sub__ per operand would copy the partial sum, quadratic in its length
        terms = [f"{k}*x1^{k % 7}*x2^{k % 5}*x3^{k % 3}" for k in range(1, 200)]
        text = " + ".join(terms) + " - x1 - (x2 - x3)"
        ctx = Context(3)
        reference = parse_in(terms[0], ctx)
        for term in terms[1:] + ["-x1", "-x2", "x3"]:
            reference = reference + parse_in(term, ctx)
        calls = []
        for name in ("__add__", "__sub__"):
            op = getattr(symexpr._Poly, name)
            monkeypatch.setattr(
                symexpr._Poly, name, lambda a, b, op=op: calls.append(op) or op(a, b)
            )
        assert parse_in(text, ctx) == reference
        assert calls == []
        # the shared atom of x1 is copied, never added into
        assert parse_in("x1 + x2", ctx) == parse_in("x2 + x1", ctx)
        assert str(parse_in("x1", ctx)) == "x1"

    @pytest.mark.parametrize("head", ["x1/2", "-2*x2 - 10/3*x3", "x2 - 1/(x1 + 1)"])
    def test_mixed_sum_adds_its_polynomial_part_once(self, monkeypatch, head):
        # the polynomial operands of a sum that holds an Expression still add
        # into owned terms; the two parts meet in one Expression addition
        terms = [f"{k}*x1^{k % 7}*x2^{k % 5}*x3^{k % 3}" for k in range(1, 200)]
        text = f"{head} + " + " + ".join(terms) + " - 1"
        ctx = Context(3)
        reference = parse_in(head, ctx)
        for term in terms + ["-1"]:
            reference = reference + parse_in(term, ctx)
        calls, depth = [], [0]

        def logged(key, op):
            def call(a, b):
                if not depth[0]:  # the additions an addition makes are its own
                    calls.append(key)
                depth[0] += 1
                try:
                    return op(a, b)
                finally:
                    depth[0] -= 1

            return call

        for cls in (symexpr._Poly, Expression):
            for name in ("__add__", "__sub__"):
                monkeypatch.setattr(cls, name, logged((cls, name), getattr(cls, name)))
        assert parse_in(text, ctx) == reference
        assert calls == [(Expression, "__add__")]

    @pytest.mark.parametrize("text", ["x1 + 10^1000 + 1", "-10^1000 - x1 - 1", "x1 - 10^1000 - 1"])
    def test_coefficient_beyond_the_budget_inside_a_long_sum(self, text):
        with pytest.raises(InputTooLarge, match=r"^coefficient beyond 10\^1000 in magnitude$"):
            parse(text, 2)

    def test_long_sum_past_the_budget_on_the_way(self):
        # 20,000 operands of +10^1000, then 19,999 of -10^1000: the partial
        # sums reach 2 * 10^1004, the value is 10^1000, and the work is linear
        text = "10^1000" + " + 10^1000" * 19_999 + " - 10^1000" * 19_999
        start = time.perf_counter()
        assert parse(text, 2) == parse("10^1000", 2)
        assert time.perf_counter() - start < 5.0


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

    def test_kept_derivatives_leave_the_expression_unchanged(self):
        e = parse("(x1^2 + x2)/(x1 - x2)", 2)
        twin = parse("(x1^2 + x2)/(x1 - x2)", 2)
        before = (hash(e), str(e), e.num, e.den)
        e.diff(1), e.diff(2)
        assert (hash(e), str(e), e.num, e.den) == before
        assert e == twin and twin == e and {twin: 1}[e] == 1
        with pytest.raises(AttributeError, match="immutable"):
            e.num = twin.num
        with pytest.raises(AttributeError, match="immutable"):
            e._diffs = {}


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
        # at most one trial division before the heuristic, which checks its
        # candidate against both operands; those quotients are the result, so
        # no division follows them
        assert sum(not inside for _, inside in divisions) <= 1
        assert divisions[-2:] == [(g, True), (g, True)]

    def test_equal_degrees_try_no_division(self, divisions):
        f = parse("x1 + 2*x2 + 1", 2)
        a, b = (f * parse("x1 - x2 + 3", 2)).num, (f * parse("2*x1 + x2 - 5", 2)).num
        qa, qb, g = _cancel(a, b)
        assert g == f.num and qa * g == a and qb * g == b
        assert all(inside for _, inside in divisions)
        assert divisions[-2:] == [(g, True), (g, True)]

    def test_divisor_found_by_one_division(self, divisions):
        f = parse("x1^2 + x2 + 1", 2).num
        a, b = f * _pconst(-2), (f * parse("x1 - x2", 2).num) * _pconst(6)
        for pair in ((a, b), (b, a)):
            divisions.clear()
            qa, qb, g = _cancel(*pair)
            assert g == f and qa * g == pair[0] and qb * g == pair[1]
            assert divisions == [(f, False)]

    def test_linear_operand_coprime_after_one_division(self, divisions):
        # the sums of coefficients, 4 and 4, let the division start
        a, b = parse("x1 + 2*x2 + 1", 2).num, parse("x1^2*x2 + 3", 2).num
        assert _cancel(a, b) == (a, b, _pconst(1))
        assert divisions == [(a, False)]

    def test_integer_denominators_cancel_nothing(self, monkeypatch):
        # a constant denominator has the empty factorization: the products
        # and sums over it need no gcd
        calls = []
        cancel = symexpr._cancel
        monkeypatch.setattr(symexpr, "_cancel", lambda a, b: calls.append((a, b)) or cancel(a, b))
        assert str(parse("10/3*x3", 3)) == "10*x3/3"
        assert str(parse("-2*x2 - 10/3*x3 - 1", 3)) == "(-6*x2 - 10*x3 - 3)/3"
        assert calls == []

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


class TestTrialDivision:
    """A gcd that is one of the operands, or 1 beside a linear operand, is
    settled without the heuristic."""

    @pytest.fixture(autouse=True)
    def no_heuristic(self, monkeypatch):
        def forbidden(f, g):
            raise AssertionError("heuristic gcd called")

        monkeypatch.setattr(symexpr, "_heu_gcd", forbidden)

    @pytest.mark.parametrize("k", [2, 7, 30])
    def test_diff_of_a_power_in_the_denominator(self, k):
        base = parse("x1 + x2 + 1", 2).num
        d = parse(f"1/(x1 + x2 + 1)^{k}", 2).diff(1)
        assert (d.num, d.den) == (_pconst(-k), base.pow(k + 1))

    def test_diff_of_the_hundredth_power_is_fast(self):
        # one exact division finds gcd(L^100, 100 L^99) in ~0.02 s; GCDHEU on
        # that pair takes over 10 s
        e = parse("1/(x1 + x2 + 1)^100", 2)
        start = time.perf_counter()
        d = e.diff(1)
        assert time.perf_counter() - start < 2.0
        base = parse("x1 + x2 + 1", 2).num
        assert (d.num, d.den) == (_pconst(-100), base.pow(100) * base)

    def test_cancel_bases_divides_out_the_shared_bases(self):
        x = parse("3/((x1 - x2 + 1)^3*(2*x1 + 1))", 2)
        p, q = parse("(x1 - x2 + 1)*(x2^2 + 1)", 2).num, parse("(x1 - x2 + 1)^4", 2).num
        d, p1, q1 = symexpr.cancel_bases(x, p, q)
        # h_1 = L, h_2 = L^2 for L = x1 - x2 + 1: d/h = 2*x1 + 1
        assert (d, p1, q1) == (parse("2*x1 + 1", 2).num, parse("x2^2 + 1", 2).num,
                               parse("(x1 - x2 + 1)^2", 2).num)
        assert _cancel(d, p1 * q1)[2] == _pconst(1)
        # an unfactored denominator gives up nothing
        y = Expression(x.context, x.num, x.den)
        assert symexpr.cancel_bases(y, p, q) == (x.den, p, q)

    def test_diff_of_a_two_base_reciprocal_is_fast(self):
        # gcd(d, d') read off the exponents of d's two linear bases: no gcd
        # runs, where GCDHEU on the expanded pair takes seconds
        e = parse("1/((x1 + x2 + 1)^40*(x1 - x2 + 2)^40)", 2)
        start = time.perf_counter()
        d = e.diff(1)
        assert time.perf_counter() - start < 0.5
        u, v = parse("x1 + x2 + 1", 2), parse("x1 - x2 + 2", 2)
        assert d == (Context(2).rational(-40) / u - Context(2).rational(40) / v) * e

    def test_diff_divides_out_a_base_free_of_the_variable(self):
        # d/dx1 of x1/(x1 + 1) + 1/(x2 + 1) is (x2 + 1)^2 / ((x1 + 1)^2 (x2 + 1)^2)
        # before the base x2 + 1, free of x1, is divided out of both
        e = parse("x1/(x1 + 1) + 1/(x2 + 1)", 2)
        assert e.factors is not None
        assert e.diff(1) == parse("1/(x1 + 1)^2", 2)
        assert e.diff(2) == parse("-1/(x2 + 1)^2", 2)

    def test_check_cc_on_a_two_base_metric_is_fast(self, tmp_path, capsys):
        path = tmp_path / "two_base.section"
        path.write_text(
            "kind = METRIC_2D\nn = 2\nw11 = 1/((x1 + x2 + 1)^30*(x1 - x2 + 2)^30)\n"
            "w22 = 1\nw12 = 0\n", encoding="utf-8",
        )
        start = time.perf_counter()
        code = cli.main(["check-cc", "--section", str(path), "--cc", "d1O11"])
        assert time.perf_counter() - start < 1.0
        assert code == 1 and '"residuals"' in capsys.readouterr().out

    def test_linear_operands_of_equal_degree_are_coprime(self):
        a, b = parse("2*x1 + 4*x2 - 6", 2).num, parse("x1 - x2", 2).num
        assert _cancel(a, b) == (a, b, _pconst(1))

    def test_divexact_refuses_mismatched_lowest_terms_before_its_walk(self, monkeypatch):
        walks = []
        monkeypatch.setattr(symexpr, "heapify", walks.append)
        for num, den in [
            ("x1^2*x2 + x1", "x1 + x2"),  # lowest monomials x1 and x2
            ("x1^2 + x1 + 1", "x1 + 2"),  # lowest coefficients 1 and 2
        ]:
            with pytest.raises(ArithmeticError):
                parse(num, 2).num.divexact(parse(den, 2).num)
        assert walks == []


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
        three, minus_two = _pconst(3), _pconst(-2)
        assert _cancel(f * three, f * minus_two) == (three, minus_two, f)
        assert parse("(x1 + x2)/(2*x1 + 2*x2)", 2) == parse("1/2", 2)


class TestUnitShortcut:
    """Against the unit polynomial, _cancel returns its operands and _fill
    stores the pair as it is: no content step and no gcd, and the values the
    long path gives."""

    OPERANDS = [parse(t, 2).num for t in ("3*x1^2 - 6*x2 + 9", "-4", "0", "x1*x2", "1", "-x1")]

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        for name in ("_primitive", "_monomial_gcd", "_trial_quotient", "_heu_gcd"):
            real = getattr(symexpr, name)
            monkeypatch.setattr(
                symexpr, name, lambda *args, real=real, name=name: seen.append(name) or real(*args)
            )
        return seen

    def long_path(self, monkeypatch, function, *args):
        with monkeypatch.context() as patch:
            patch.setattr(symexpr, "_is_unit_poly", lambda p: False)
            return function(*args)

    def test_cancel_against_one(self, calls, monkeypatch):
        one = _pconst(1)
        for p in self.OPERANDS:
            for a, b in ((p, one), (one, p)):
                qa, qb, g = _cancel(a, b)
                assert qa is a and qb is b and _is_unit_poly(g)
                assert calls == []
                assert self.long_path(monkeypatch, _cancel, a, b) == (qa, qb, g)
                assert calls  # the long path ran
                calls.clear()

    def test_fill_over_one(self, calls, monkeypatch):
        ctx = Context(2)
        for p in self.OPERANDS:
            e = symexpr._from_reduced(ctx, p, _pconst(1))
            assert e.num is p and _is_unit_poly(e.den)
            assert calls == []
            assert self.long_path(monkeypatch, symexpr._from_reduced, ctx, p, _pconst(1)) == e
            assert calls or not p.terms  # a zero numerator takes no content step
            calls.clear()


@st.composite
def exponent_pairs(draw):
    """Two exponent vectors over 1-3 coordinates and 0-2 parameters, small or
    large, whose product stays within MAX_TOTAL_DEGREE."""
    nvars = draw(st.integers(1, 3)) + draw(st.integers(0, 2))
    exponent = st.one_of(st.integers(0, 4), st.integers(0, MAX_TOTAL_DEGREE // 10))
    vector = st.tuples(*[exponent] * nvars)
    return draw(vector), draw(vector)


small_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2)),
    st.integers(-12, 12).filter(bool), max_size=6,
).map(packed)


class TestPackedLayout:
    @LAYOUT
    @given(exponent_pairs())
    def test_key_order_is_grlex_and_packing_round_trips(self, pair):
        m1, m2 = pair
        k1, k2 = _pack(m1), _pack(m2)
        assert _unpack(k1, len(m1)) == m1 and _unpack(k2, len(m2)) == m2
        assert (k1 < k2) == ((sum(m1), m1) < (sum(m2), m2))
        assert (k1 == k2) == (m1 == m2)
        # a product of monomials is the sum of their keys
        assert k1 + k2 == _pack(tuple(map(add, m1, m2)))

    @pytest.mark.parametrize(
        "num, den",
        [
            ("x2", "x1"), ("x1*x2^2", "x2^3"), ("x1^2*x2", "x1*x2^2"), ("x1^2 + x2^2", "x1 + x2"),
            ("x1*x2^3 + x2^2", "x1"), ("x1^3*x2^2 + 3*x1^3*x2 + 1", "x1*x2"),
        ],
    )
    def test_divexact_never_borrows_across_fields(self, num, den):
        # subtracting keys as plain integers, a missing exponent would borrow
        # from the field above it
        with pytest.raises(ArithmeticError):
            parse(num, 2).num.divexact(parse(den, 2).num)

    @LAYOUT
    @given(small_polys, st.integers(0, 2), st.integers(29, 10**30))
    def test_interp_inverts_eval_at(self, p, slot, xi):
        var = _pack(tuple(int(j == slot) for j in range(3)))
        assert _interp(_eval_at(p, var, xi), var, xi) == p

    def test_product_degree_budget(self):
        half = packed({(MAX_TOTAL_DEGREE // 2, 0): 1})
        x1, x2 = packed({(1, 0): 1}), packed({(0, 1): 1})
        top = half * half * x1
        assert top == packed({(MAX_TOTAL_DEGREE, 0): 1})
        # one past the field, by a single-term shift and by a general product
        with pytest.raises(InputTooLarge, match="total degree 2147483648"):
            top * x2
        with pytest.raises(InputTooLarge, match="total degree"):
            (top + x2) * (x1 + x2)

    def test_in_context_moves_each_field(self):
        small, large = Context(2, ["b"]), Context(2, ["a", "b", "c"])
        text = "(x1^2*b + x2*b^3 - 4)/(b^2 + x1)"
        assert parse_in(text, small).in_context(large) == parse_in(text, large)
        assert str(parse_in(text, small).in_context(large)) == str(parse_in(text, small))


class TestCompletePoint:
    def test_padding(self):
        ctx = Context(2, ["a"])
        assert ctx.complete_point() == ctx.default_point() == (2, 3, 4)
        assert ctx.complete_point([5]) == (5, 3, 4)
        assert ctx.complete_point(["1/2", 7, 0]) == (Fraction(1, 2), 7, 0)
        assert all(type(v) is Fraction for v in ctx.complete_point([1]))

    def test_long_point_refused(self):
        # an extra value would otherwise meet a monomial key's degree field
        ctx = Context(1)
        with pytest.raises(ValueError, match="^need at most 1 values, got 2$"):
            ctx.complete_point([1, 2])
        with pytest.raises(ValueError):
            ctx.coordinate(1).evaluate((1, 2))
        assert Context(1, ["a"]).complete_point([1, 2]) == (1, 2)


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
