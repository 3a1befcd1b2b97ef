import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import bumped, jv, random_expression, scaled
from vessiot.errors import InputFormatError, OrderOverflow, SingularPoint
import vessiot.jetcalc as jetcalc
import vessiot.symexpr as symexpr
from vessiot.jetcalc import (
    MAX_JET_ORDER,
    JetVariable,
    LinearJetEquation,
    check_cc_identity,
    decode_jet,
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
from vessiot.lieops import (
    ObjectKind, labeled_medolaghi, medolaghi_equations, parse_section_text, section,
)
from vessiot.symexpr import Context, Expression, add_term, parse_in

POOL = Path(__file__).resolve().parent.parent / "perfbench" / "corpus" / "pool.json"
CTX = Context(2)
ONE = CTX.one()
TWO = CTX.rational(2)


def flat_killing():
    return medolaghi_equations(
        section(ObjectKind.METRIC_2D, [ONE, ONE, CTX.zero()])
    )


def flat_product():
    return medolaghi_equations(
        section(ObjectKind.PRODUCT_TRIPLE_2D, [CTX.zero(), CTX.zero(), ONE])
    )


def every_jet(n, top=4):
    """Every (component, index) of order <= top in n coordinates."""
    return [(k, mu) for q in range(top + 1) for k in range(1, n + 1) for mu in multi_indices(n, q)]


class TestJetKeys:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_key_order_is_order_component_index(self, n):
        jets = every_jet(n)
        keys = {JetVariable(k, mu): (k, mu) for k, mu in jets}
        assert len(keys) == len(jets)
        assert [keys[key] for key in sorted(keys)] == sorted(
            jets, key=lambda jet: (sum(jet[1]), jet[0], jet[1])
        )
        assert all(decode_jet(key, n) == jet for key, jet in keys.items())

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_derivative_bumps_one_field(self, n):
        ctx = Context(n)
        for k, mu in every_jet(n):
            eq = LinearJetEquation({JetVariable(k, mu): ctx.one()})
            for i in range(1, n + 1):
                (key,) = formal_derivative(eq, i).terms
                up = tuple(e + (j == i) for j, e in enumerate(mu, start=1))
                assert decode_jet(key, n) == (k, up)
                assert key == JetVariable(k, up)

    def test_each_field_at_its_limit(self):
        top = MAX_JET_ORDER
        for k, mu in [(top, (0, 0)), (1, (top, 0)), (1, (0, top)), (2, (30, top - 30)),
                      (1, (0, 0, top))]:
            assert decode_jet(JetVariable(k, mu), len(mu)) == (k, mu)
        for k, mu in [(top + 1, (0, 0)), (1, (top + 1, 0)), (1, (0, top + 1)),
                      (2, (30, top - 29)), (1, (0, 0, top + 1))]:
            with pytest.raises(OrderOverflow):
                JetVariable(k, mu)
        with pytest.raises(ValueError):
            JetVariable(1, (0, -1))

    def test_prolong_to_the_limit_and_past_it(self):
        ctx = Context(1)
        eq = LinearJetEquation({JetVariable(1, (1,)): parse_in("x1", ctx)})
        prolonged = prolong([eq], MAX_JET_ORDER - 1)
        assert max(e.order for e in prolonged) == MAX_JET_ORDER
        top = [e for e in prolonged if e.order == MAX_JET_ORDER]
        with pytest.raises(OrderOverflow):
            formal_derivative(top[0], 1)
        with pytest.raises(OrderOverflow):
            prolong([eq], MAX_JET_ORDER)
        with pytest.raises(OrderOverflow):
            prolong(flat_killing(), 10**6)  # refused before any derivative

    def test_cc_past_the_key_width(self):
        system = labeled_medolaghi(section(ObjectKind.METRIC_2D, [ONE, ONE, CTX.zero()]))
        cc = parse_cc_spec("d" + "1" * MAX_JET_ORDER + "O11", 2)
        with pytest.raises(OrderOverflow):
            check_cc_identity(system, cc, max_order=10**6)


class TestFormalDerivative:
    def test_term_rule_twice(self):
        # d1 d2 (xi1_2 + xi2_1) has unit coefficients on xi1_(1,2) and xi2_(2,1)
        eq = LinearJetEquation({jv(1, 0, 1): ONE, jv(2, 1, 0): ONE})
        out = formal_derivative(formal_derivative(eq, 2), 1)
        assert out.terms == {jv(1, 1, 2): ONE, jv(2, 2, 1): ONE}

    def test_zero_equation(self):
        zero_eq = LinearJetEquation({})
        assert formal_derivative(zero_eq, 1).is_zero()

    def test_coefficient_rule(self):
        a = parse_in("x1*x2", CTX)
        eq = LinearJetEquation({jv(1, 0, 0): a})
        out = formal_derivative(eq, 1)
        assert out.terms == {jv(1, 0, 0): parse_in("x2", CTX), jv(1, 1, 0): a}

    def test_commutes(self):
        rng = random.Random(5)
        for _ in range(5):
            eq = LinearJetEquation(
                {
                    jv(1, 1, 0): random_expression(CTX, rng, depth=2),
                    jv(2, 0, 1): random_expression(CTX, rng, depth=2),
                }
            )
            d12 = formal_derivative(formal_derivative(eq, 1), 2)
            d21 = formal_derivative(formal_derivative(eq, 2), 1)
            assert d12 == d21

    @staticmethod
    def deflations(monkeypatch, factored: bool) -> list:
        """Four coefficients over two denominators, L and L^2, both in x1 and
        x2, derived by x1 and by x2: the number of gcd(d, d') runs each time.
        As parsed, the denominators carry L's exponent; rebuilt from their
        pairs, they carry no factorization."""
        texts = ("-1/L", "1/L", "-1/L^2", "-2/L^2")
        variables = (jv(1, 0, 0), jv(2, 0, 0), jv(1, 1, 0), jv(2, 0, 1))
        coefficients = [parse_in(t.replace("L", "(2*x1 + 2*x2 - 7)"), CTX) for t in texts]
        if not factored:
            coefficients = [Expression(CTX, c.num, c.den) for c in coefficients]
        eq = LinearJetEquation(dict(zip(variables, coefficients)))
        counts = []
        for i in (1, 2):
            expected = {}
            for v, c in eq.terms.items():
                add_term(expected, v, c.diff(i))
                add_term(expected, bumped(v, 2, i), c)
            deflations = []
            cancel = symexpr._cancel

            def counting(a, b, slot=i - 1):
                deflations.append(b == a.diff(slot))
                return cancel(a, b)

            monkeypatch.setattr(symexpr, "_cancel", counting)
            out = formal_derivative(eq, i)
            monkeypatch.setattr(symexpr, "_cancel", cancel)
            counts.append(deflations.count(True))
            assert out == LinearJetEquation(expected)
        return counts

    def test_each_denominator_deflated_once(self, monkeypatch):
        assert self.deflations(monkeypatch, factored=False) == [2, 2]

    def test_factored_denominators_deflate_with_no_gcd(self, monkeypatch):
        assert self.deflations(monkeypatch, factored=True) == [0, 0]

    def test_order_increases_by_one(self):
        eq = LinearJetEquation({jv(1, 1, 1): parse_in("x1", CTX)})
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
        real = jetcalc.row_derivative

        def counted(eq, i):
            calls.append(i)
            return real(eq, i)

        monkeypatch.setattr(jetcalc, "row_derivative", counted)
        system = flat_product()
        prolong(system, 2)
        assert len(calls) == 5 * len(system)

    def test_multiple_of_an_equation_is_dropped(self):
        e = flat_product()[2]
        f = parse_in("x1^2 + x2", CTX)
        assert prolong([e, scaled(e, f)], 0) == [e]
        assert prolong([e, scaled(e, CTX.rational(-3))], 2) == prolong([e], 2)

    def test_rows_above_level_zero_need_no_expression_arithmetic(self, monkeypatch):
        # polynomial coefficients: once the level-0 rows are cleared, prolong
        # forms no Expression derivative and runs no cancel
        w11, w22, w12 = (parse_in(t, CTX) for t in ("x1 + 2*x2 + 3", "x1*x2 + 5", "x2 - x1"))
        system = medolaghi_equations(section(ObjectKind.METRIC_2D, [w11, w22, w12]))
        prolong(system, 0)
        formed = []
        monkeypatch.setattr(Expression, "diff", lambda e, i: formed.append(i))
        monkeypatch.setattr(symexpr, "_cancel", lambda a, b: formed.append((a, b)))
        prolonged = prolong(system, 2)
        assert formed == []
        assert len(prolonged) > len(system) and max(eq.order for eq in prolonged) == 3

    def test_cc_identity_same_with_or_without_prolong(self):
        cc = parse_cc_spec("d11O22,+d22O11,-2d12O12", 2)
        for text in ("1/x2^2", "x1 + 2*x2 + 3"):
            w = parse_in(text, CTX)
            sec = section(ObjectKind.METRIC_2D, [w, w, CTX.zero()])
            fresh = check_cc_identity(labeled_medolaghi(sec), cc)
            system = labeled_medolaghi(sec)
            prolong(list(system.values()), 2)
            after = check_cc_identity(system, cc)
            assert after == fresh and str(after) == str(fresh)

    def test_derived_row_over_the_source_denominator(self):
        # E = xi1_1 + xi1/(x1 - 2): den = x1 - 2, d1 of the row is
        # (x1 - 2) xi1_11 + 2 xi1_1, and its top part is den times that of d1 E
        eq = LinearJetEquation({jv(1, 1, 0): ONE, jv(1, 0, 0): parse_in("1/(x1 - 2)", CTX)})
        d1 = prolong([eq], 1)[1]
        x1 = parse_in("x1 - 2", CTX)
        assert d1.den == eq.den == x1.num
        assert d1.row == {jv(1, 2, 0): x1.num, jv(1, 1, 0): TWO.num}
        assert d1.terms == {jv(1, 2, 0): ONE, jv(1, 1, 0): TWO / x1}
        assert d1.order == 2


class TestProportional:
    def test_scaled_copy(self):
        e = flat_product()[0]
        assert proportional(e, scaled(e, parse_in("1/(x1 - x2)", CTX)))
        assert proportional(e, e)

    def test_same_support_other_ratio(self):
        e = LinearJetEquation({jv(1, 1, 0): ONE, jv(2, 0, 1): ONE})
        f = LinearJetEquation({jv(1, 1, 0): ONE, jv(2, 0, 1): parse_in("x1", CTX)})
        assert not proportional(e, f)
        assert not proportional(f, e)

    def test_other_support(self):
        e = LinearJetEquation({jv(1, 1, 0): ONE})
        f = LinearJetEquation({jv(1, 1, 0): ONE, jv(2, 0, 1): ONE})
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
        rescaled = [scaled(system[0], factor)] + list(system[1:])
        assert symbol_dimension(rescaled, 1) == symbol_dimension(system, 1)

    def test_generic_rank_agrees(self):
        system = flat_product()
        assert symbol_dimension(system, 1, generic=True) == 1

    def test_each_distinct_coefficient_evaluated_once(self, monkeypatch):
        x1 = parse_in("x1", CTX)
        system = [
            LinearJetEquation({jv(1, 1, 0): x1, jv(2, 0, 1): x1, jv(1, 0, 0): TWO}),
            LinearJetEquation({jv(1, 0, 1): x1 + ONE, jv(2, 1, 0): x1}),
        ]
        evaluated = []
        value = symexpr._Poly.value

        def counting(p, *args):
            v = value(p, *args)
            evaluated.append((p, type(v)))
            return v

        monkeypatch.setattr(symexpr._Poly, "value", counting)
        monkeypatch.setattr(Expression, "evaluate", None)  # rows only, never terms
        assert symbol_dimension(system, 1) == 2
        # x1 and x1 + 1 once each, and the one distinct den 1 once, each to an
        # integer; the order-0 coefficient 2 and the absent variables are not
        # evaluated
        assert Counter(evaluated) == Counter(
            [(x1.num, int), ((x1 + ONE).num, int), (ONE.num, int)]
        )

    def test_singular_row_denominator(self):
        # the derived rows are over den = x1 - 2, whose top-order part
        # (x1 - 2) xi1_(2,0) vanishes at x1 = 2: refused there, not ranked lower
        eq = LinearJetEquation({jv(1, 1, 0): ONE, jv(1, 0, 0): parse_in("1/(x1 - 2)", CTX)})
        second = [e for e in prolong([eq], 1) if e.order == 2]
        with pytest.raises(SingularPoint):
            symbol_dimension(second, 2)  # default point has x1 = 2
        generic = symbol_dimension(second, 2, generic=True)
        assert generic == 4
        assert symbol_dimension(second, 2, sample_point=(Fraction(3), Fraction(5))) == generic

    def test_singular_sample_point(self):
        coeff = parse_in("1/(x1 - 2)", CTX)
        eq = LinearJetEquation({jv(1, 1, 0): coeff})
        with pytest.raises(SingularPoint):
            symbol_dimension([eq], 1)  # default point has x1 = 2
        assert symbol_dimension([eq], 1, sample_point=(Fraction(3), Fraction(5))) == 3

    def test_pole_refused_before_and_after_prolong(self):
        # 1/(x1 - 2) sits on a lower-order jet variable: refused at the
        # default point x1 = 2 whether or not the rows were formed first
        comps = [parse_in("1/(x1 - 2)", CTX)] + [CTX.zero()] * 5
        system = medolaghi_equations(section(ObjectKind.CHRISTOFFEL_2D, comps))
        for _ in range(2):
            with pytest.raises(SingularPoint):
                symbol_dimension(system, 2)
            assert symbol_dimension(system, 2, sample_point=(Fraction(3), Fraction(5))) == 0
            assert prolong(system, 0) == system

    def test_generic_values_where_the_default_point_degenerates(self):
        # w11 = x1 - 2 degenerates at the default point; the generic values hold
        comps = [parse_in("x1 - 2", CTX), ONE, CTX.zero()]
        system = medolaghi_equations(section(ObjectKind.METRIC_2D, comps))
        assert symbol_dimension(system, 1, generic=True) == 1
        second = [eq for eq in prolong(system, 1) if eq.order == 2]
        assert symbol_dimension(second, 2, generic=True) == 0

    def test_one_power_of_the_denominator_lcm_for_the_whole_matrix(self):
        # the third row is x1 times the first plus the second: rank 2 at every
        # point.  At x1 = 1/2, scaling each entry by 2 to its own degree would
        # read rows [1, 1, 0], [0, 1, 1], [1, 5, 1] of rank 3.
        x1 = parse_in("x1", CTX)
        system = [
            LinearJetEquation({jv(1, 1, 0): ONE, jv(1, 0, 1): x1}),
            LinearJetEquation({jv(1, 0, 1): ONE, jv(2, 1, 0): ONE}),
            LinearJetEquation({jv(1, 1, 0): x1, jv(1, 0, 1): x1 * x1 + ONE,
                               jv(2, 1, 0): ONE}),
        ]
        assert symbol_dimension(system, 1, generic=True) == 2
        for point in [(Fraction(1, 2),), (Fraction(1, 2), Fraction(-1, 3)), (Fraction(-3, 7), 4)]:
            assert symbol_dimension(system, 1, sample_point=point) == 2

    def test_pole_at_a_rational_point(self):
        # den = 2*x1 - 1 vanishes at x1 = 1/2, not at x1 = 1/3
        eq = LinearJetEquation({jv(1, 1, 0): ONE, jv(1, 0, 0): parse_in("1/(2*x1 - 1)", CTX)})
        second = [e for e in prolong([eq], 1) if e.order == 2]
        with pytest.raises(SingularPoint, match=r"^a coefficient has a pole at "):
            symbol_dimension(second, 2, sample_point=(Fraction(1, 2), Fraction(5, 3)))
        assert symbol_dimension(second, 2, sample_point=(Fraction(1, 3), Fraction(5, 3))) == 4

    def test_long_sample_point_refused(self):
        comps = [parse_in("x1 - 2", CTX), ONE, CTX.zero()]
        system = labeled_medolaghi(section(ObjectKind.METRIC_2D, comps)).values()
        assert symbol_dimension(system, 1, sample_point=(2, 7)) == 2
        with pytest.raises(ValueError, match="^need at most 2 values, got 3$"):
            symbol_dimension(system, 1, sample_point=(2, 7, 11))

    def test_columns_no_row_meets_still_count(self):
        # xi^1_1 = 0 meets one of the four order-1 jets in n = 2; the three it
        # misses are free, at the point and generically
        system = [LinearJetEquation({jv(1, 1, 0): ONE})]
        assert symbol_dimension(system, 1) == 3
        assert symbol_dimension(system, 1, generic=True) == 3
        # n = 3: one equation on xi^2_13 among the 3 * 6 order-2 jets
        ctx3 = Context(3)
        system = [LinearJetEquation({jv(2, 1, 0, 1): parse_in("x3", ctx3)})]
        assert symbol_dimension(system, 2) == symbol_dimension(system, 2, generic=True) == 17

    def test_point_rank_is_the_generic_rank_on_the_benchmark_pool(self):
        # every jet_systems section of the benchmark pool, prolonged twice
        # as the benchmark does: the default point reads the generic rank
        entries = json.loads(POOL.read_text(encoding="utf-8"))["sections"]
        texts = [e["text"] for e in entries if e["workload"] == "jet_systems"]
        assert texts
        for text in texts:
            sec, _ = parse_section_text(text)
            prolonged = prolong(list(labeled_medolaghi(sec).values()), 2)
            top = max(eq.order for eq in prolonged)
            assert symbol_dimension(prolonged, top) == symbol_dimension(prolonged, top, generic=True)


class TestDimensionTable:
    def test_paper_diagram_numbers(self):
        table = dim_table(2, 3)
        assert table["dim_S2Tstar_F1"] == 9
        assert table["dim_S3Tstar_T"] == 8
        assert table["dim_F2"] == 1

    def test_affine_first_order_count(self):
        table = dim_table(2)
        assert table["dim_Tstar_S2Tstar_T"] == 12
        assert table["dim_F1_affine"] == 4

    def test_one_dimensional(self):
        table = dim_table(1)
        assert all(v == 1 for v in table["dim_SqTstar"].values())

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
        assert dim_table(2)["dim_F1"] == 3
        assert dim_table(3)["dim_F1"] == 6


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

    def test_repeated_term_derived_once(self, monkeypatch):
        system = labeled_medolaghi(section(
            ObjectKind.METRIC_2D, [parse_in("1/(x1 + 1)", CTX), ONE, CTX.zero()]
        ))
        calls = []
        original = jetcalc.formal_derivative

        def counting(eq, i):
            calls.append(i)
            return original(eq, i)

        monkeypatch.setattr(jetcalc, "formal_derivative", counting)
        term = "d" + "1" * 15 + "O11"
        once = check_cc_identity(system, parse_cc_spec(term, 2), max_order=16)
        single_calls = len(calls)
        calls.clear()
        repeated = check_cc_identity(system, parse_cc_spec(",".join([term] * 40), 2), max_order=16)
        assert single_calls == 15
        assert len(calls) == single_calls
        assert not once.is_zero()
        assert repeated == scaled(once, CTX.rational(40))

    def test_cancelling_terms_and_zero_equations(self):
        system = labeled_medolaghi(section(ObjectKind.METRIC_2D, [ONE, ONE, CTX.zero()]))
        assert check_cc_identity(system, parse_cc_spec("d1O11,-d1O11", 2)).is_zero()
        zero = LinearJetEquation({})
        with pytest.raises(InputFormatError, match="CC combination is empty"):
            check_cc_identity({"1": zero, "2": zero}, parse_cc_spec("d1O1,-2d2O2,d1O1", 2))


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
