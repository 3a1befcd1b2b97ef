import random
from fractions import Fraction

import pytest

from helpers import random_expression
from vessiot.errors import InputFormatError, OrderOverflow, SingularPoint
import vessiot.jetcalc as jetcalc
from vessiot.jetcalc import (
    JetVariable,
    LinearJetEquation,
    check_cc_identity,
    dim_table,
    formal_derivative,
    formal_derivative_multi,
    lambda_dim,
    multi_indices,
    parse_cc_spec,
    prolong,
    proportional,
    sym_dim,
    symbol_dimension,
)
from vessiot.lieops import ObjectKind, labeled_medolaghi, medolaghi_equations, section
from vessiot.symexpr import Context, Expression, parse_in

CTX = Context(2)
ONE = CTX.one()
TWO = CTX.rational(2)


def jv(k, mu):
    return JetVariable(k, tuple(mu))


def flat_killing():
    return medolaghi_equations(
        section(ObjectKind.METRIC_2D, [ONE, ONE, CTX.zero()])
    )


def flat_product():
    return medolaghi_equations(
        section(ObjectKind.PRODUCT_TRIPLE_2D, [CTX.zero(), CTX.zero(), ONE])
    )


class TestFormalDerivative:
    def test_term_rule_twice(self):
        # d1 d2 (xi1_2 + xi2_1) has unit coefficients on xi1_(1,2) and xi2_(2,1)
        eq = LinearJetEquation({jv(1, (0, 1)): ONE, jv(2, (1, 0)): ONE})
        out = formal_derivative(formal_derivative(eq, 2), 1)
        assert out.terms == {jv(1, (1, 2)): ONE, jv(2, (2, 1)): ONE}

    def test_zero_equation(self):
        zero_eq = LinearJetEquation({})
        assert formal_derivative(zero_eq, 1).is_zero()

    def test_coefficient_rule(self):
        a = parse_in("x1*x2", CTX)
        eq = LinearJetEquation({jv(1, (0, 0)): a})
        out = formal_derivative(eq, 1)
        assert out.terms == {jv(1, (0, 0)): parse_in("x2", CTX), jv(1, (1, 0)): a}

    def test_commutes(self):
        rng = random.Random(5)
        for _ in range(5):
            eq = LinearJetEquation(
                {
                    jv(1, (1, 0)): random_expression(CTX, rng, depth=2),
                    jv(2, (0, 1)): random_expression(CTX, rng, depth=2),
                }
            )
            d12 = formal_derivative(formal_derivative(eq, 1), 2)
            d21 = formal_derivative(formal_derivative(eq, 2), 1)
            assert d12 == d21

    def test_order_increases_by_one(self):
        eq = LinearJetEquation({jv(1, (1, 1)): parse_in("x1", CTX)})
        assert eq.order == 2
        assert formal_derivative(eq, 2).order == 3


class TestProlong:
    def test_killing_counts(self):
        system = flat_killing()
        assert len(prolong(system, 1)) == 9  # 3 originals + 2*3 derivatives

    def test_identity_at_zero(self):
        system = flat_killing()
        assert prolong(system, 0) == system

    def test_contains_named_second_derivatives(self):
        system = flat_product()
        labeled = dict(zip(("1", "2", "3"), system))
        prolonged = prolong(system, 2)
        for label, mu in (("1", (2, 0)), ("2", (0, 2)), ("3", (1, 1))):
            wanted = formal_derivative_multi(labeled[label], mu)
            assert any(proportional(wanted, eq) for eq in prolonged)

    def test_composition(self):
        system = flat_killing()
        once_then_once = prolong(prolong(system, 1), 1)
        twice = prolong(system, 2)
        covers = lambda xs, ys: all(any(proportional(x, y) for y in ys) for x in xs)
        assert covers(once_then_once, twice) and covers(twice, once_then_once)

    def test_each_derivative_formed_once(self, monkeypatch):
        # d1, d2, then d1d1, d1d2, d2d2 (never d2d1): 5 per equation, not 6
        calls = []
        real = jetcalc.formal_derivative

        def counted(eq, i):
            calls.append(i)
            return real(eq, i)

        monkeypatch.setattr(jetcalc, "formal_derivative", counted)
        system = flat_product()
        prolong(system, 2)
        assert len(calls) == 5 * len(system)

    def test_multiple_of_an_equation_is_dropped(self):
        e = flat_product()[2]
        f = parse_in("x1^2 + x2", CTX)
        assert prolong([e, e.scaled(f)], 0) == [e]
        assert prolong([e, e.scaled(CTX.rational(-3))], 2) == prolong([e], 2)


class TestProportional:
    def test_scaled_copy(self):
        e = flat_product()[0]
        assert proportional(e, e.scaled(parse_in("1/(x1 - x2)", CTX)))
        assert proportional(e, e)

    def test_same_support_other_ratio(self):
        e = LinearJetEquation({jv(1, (1, 0)): ONE, jv(2, (0, 1)): ONE})
        f = LinearJetEquation({jv(1, (1, 0)): ONE, jv(2, (0, 1)): parse_in("x1", CTX)})
        assert not proportional(e, f)
        assert not proportional(f, e)

    def test_other_support(self):
        e = LinearJetEquation({jv(1, (1, 0)): ONE})
        f = LinearJetEquation({jv(1, (1, 0)): ONE, jv(2, (0, 1)): ONE})
        assert not proportional(e, f)
        assert proportional(LinearJetEquation({}), LinearJetEquation({}))


class TestSymbolDimension:
    def test_killing_first_order(self):
        assert symbol_dimension(flat_killing(), 1) == 1

    def test_product_first_order(self):
        assert symbol_dimension(flat_product(), 1) == 1

    def test_vanishing_second_order_symbol(self):
        for system in (flat_killing(), flat_product()):
            prolonged = [eq for eq in prolong(system, 1) if eq.order == 2]
            assert symbol_dimension(prolonged, 2) == 0

    def test_rescaling_invariance(self):
        system = flat_killing()
        factor = parse_in("x1 + 5", CTX)
        scaled = [system[0].scaled(factor)] + list(system[1:])
        assert symbol_dimension(scaled, 1) == symbol_dimension(system, 1)

    def test_generic_rank_agrees(self):
        system = flat_product()
        assert symbol_dimension(system, 1, generic=True) == 1

    def test_each_distinct_coefficient_evaluated_once(self, monkeypatch):
        x1 = parse_in("x1", CTX)
        system = [
            LinearJetEquation({jv(1, (1, 0)): x1, jv(2, (0, 1)): x1, jv(1, (0, 0)): TWO}),
            LinearJetEquation({jv(1, (0, 1)): x1 + ONE, jv(2, (1, 0)): x1}),
        ]
        evaluated = []
        evaluate = Expression.evaluate
        monkeypatch.setattr(
            Expression, "evaluate", lambda e, point: evaluated.append(e) or evaluate(e, point)
        )
        assert symbol_dimension(system, 1) == 2
        # x1 and x1 + 1; the order-0 coefficient 2 and the absent variables are not evaluated
        assert sorted(map(str, evaluated)) == ["x1", "x1 + 1"]

    def test_singular_sample_point(self):
        coeff = parse_in("1/(x1 - 2)", CTX)
        eq = LinearJetEquation({jv(1, (1, 0)): coeff})
        with pytest.raises(SingularPoint):
            symbol_dimension([eq], 1)  # default point has x1 = 2
        assert symbol_dimension([eq], 1, sample_point=(Fraction(3), Fraction(5))) == 3


class TestDimensionTable:
    def test_paper_diagram_numbers(self):
        table = dim_table(2, 3)
        assert table.entries["dim_S2Tstar_F1"] == 9
        assert table.entries["dim_S3Tstar_T"] == 8
        assert table.entries["dim_F2"] == 1

    def test_affine_first_order_count(self):
        table = dim_table(2)
        assert table.entries["dim_Tstar_S2Tstar_T"] == 12
        assert table.entries["dim_F1_affine"] == 4

    def test_one_dimensional(self):
        table = dim_table(1)
        assert all(v == 1 for v in table.entries["dim_SqTstar"].values())

    def test_closed_forms(self):
        from math import comb

        for n in range(1, 5):
            for q in range(1, 5):
                assert sym_dim(n, q) == comb(q + n - 1, n - 1)
                # Pascal-style recurrence dim S_qT*(n) = sum over last slot
                if n > 1:
                    assert sym_dim(n, q) == sum(sym_dim(n - 1, r) for r in range(q + 1))
            for k in range(0, n + 1):
                assert lambda_dim(n, k) == comb(n, k)

    def test_default_f1(self):
        assert dim_table(2).f1 == 3
        assert dim_table(3).f1 == 6


class TestMultiIndices:
    def test_count(self):
        assert len(multi_indices(2, 3)) == 4
        assert multi_indices(1, 5) == [(5,)]

    def test_exact_order(self):
        assert all(sum(mu) == 4 for mu in multi_indices(3, 4))


class TestCheckCC:
    def test_product_identity(self):
        system = labeled_medolaghi(
            section(ObjectKind.PRODUCT_TRIPLE_2D, [CTX.zero(), CTX.zero(), ONE])
        )
        cc = parse_cc_spec("d11O1,+d22O2,-d12O3", 2)
        assert check_cc_identity(system, cc).is_zero()

    def test_killing_identity(self):
        system = labeled_medolaghi(
            section(ObjectKind.METRIC_2D, [ONE, ONE, CTX.zero()])
        )
        cc = parse_cc_spec("d11O22,+d22O11,-2d12O12", 2)
        assert check_cc_identity(system, cc).is_zero()

    def test_sign_flip_breaks_identity(self):
        system = labeled_medolaghi(
            section(ObjectKind.PRODUCT_TRIPLE_2D, [CTX.zero(), CTX.zero(), ONE])
        )
        cc = parse_cc_spec("d11O1,+d22O2,+d12O3", 2)
        assert not check_cc_identity(system, cc).is_zero()

    def test_order_overflow(self):
        system = labeled_medolaghi(
            section(ObjectKind.PRODUCT_TRIPLE_2D, [CTX.zero(), CTX.zero(), ONE])
        )
        cc = parse_cc_spec("d1122O1", 2)
        with pytest.raises(OrderOverflow):
            check_cc_identity(system, cc)
        assert check_cc_identity(system, cc, max_order=5) is not None

    def test_unknown_label(self):
        system = labeled_medolaghi(
            section(ObjectKind.PRODUCT_TRIPLE_2D, [CTX.zero(), CTX.zero(), ONE])
        )
        with pytest.raises(InputFormatError):
            check_cc_identity(system, parse_cc_spec("d11O9", 2))


class TestCCSpecParsing:
    def test_multipliers_and_signs(self):
        terms = parse_cc_spec("d11O22,+d22O11,-2d12O12", 2)
        assert terms == [
            (Fraction(1), (2, 0), "22"),
            (Fraction(1), (0, 2), "11"),
            (Fraction(-2), (1, 1), "12"),
        ]

    def test_bad_terms(self):
        with pytest.raises(InputFormatError):
            parse_cc_spec("d11", 2)
        with pytest.raises(InputFormatError):
            parse_cc_spec("d13O1", 2)  # coordinate 3 in dimension 2
        with pytest.raises(InputFormatError):
            parse_cc_spec("", 2)
