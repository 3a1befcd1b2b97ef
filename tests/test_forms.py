import random

import pytest

from helpers import random_expression
from vessiot.errors import DegreeOverflow
from vessiot.forms import (
    DifferentialForm,
    exterior_derivative,
    one_form,
    two_form_cyclic,
    wedge,
)
from vessiot.symexpr import Context, parse_in

CTX = Context(3)
ONE = CTX.one()
ZERO = CTX.zero()


def contact_alpha():
    return one_form(CTX, [ONE, -parse_in("x3", CTX), ZERO])


class TestExteriorDerivative:
    def test_contact_one_form(self):
        # d(dx1 - x3 dx2) = -dx3^dx2 = dx2^dx3
        d_alpha = exterior_derivative(contact_alpha())
        assert d_alpha == DifferentialForm(CTX, 2, {(2, 3): ONE})

    def test_d_squared_is_zero_on_functions(self):
        rng = random.Random(21)
        for _ in range(8):
            f = random_expression(CTX, rng, depth=2)
            zero_form = DifferentialForm(CTX, 0, {(): f})
            assert exterior_derivative(exterior_derivative(zero_form)).is_zero()

    def test_d_squared_is_zero_on_one_forms(self):
        rng = random.Random(22)
        coeffs = [random_expression(CTX, rng, depth=2) for _ in range(3)]
        form = one_form(CTX, coeffs)
        dd = exterior_derivative(exterior_derivative(form))
        assert dd.is_zero()

    def test_top_degree_rejected(self):
        volume = DifferentialForm(CTX, 3, {(1, 2, 3): ONE})
        with pytest.raises(DegreeOverflow):
            exterior_derivative(volume)


class TestWedge:
    def test_volume_form(self):
        dx1 = one_form(CTX, [ONE, ZERO, ZERO])
        beta = DifferentialForm(CTX, 2, {(2, 3): ONE})
        vol = wedge(dx1, beta)
        assert vol == DifferentialForm(CTX, 3, {(1, 2, 3): ONE})

    def test_anticommutative_on_one_forms(self):
        dx1 = one_form(CTX, [ONE, ZERO, ZERO])
        dx2 = one_form(CTX, [ZERO, ONE, ZERO])
        assert wedge(dx1, dx2) == -wedge(dx2, dx1)
        assert wedge(dx1, dx1).is_zero()

    def test_beyond_top_degree_is_zero(self):
        beta = DifferentialForm(CTX, 2, {(2, 3): ONE})
        assert wedge(beta, beta).is_zero()
        vol = DifferentialForm(CTX, 3, {(1, 2, 3): ONE})
        assert wedge(vol, one_form(CTX, [ONE, ZERO, ZERO])).is_zero()

    def test_leibniz_rule(self):
        rng = random.Random(23)
        for _ in range(5):
            a = one_form(CTX, [random_expression(CTX, rng, depth=2) for _ in range(3)])
            b = one_form(CTX, [random_expression(CTX, rng, depth=2) for _ in range(3)])
            lhs = exterior_derivative(wedge(a, b))
            rhs = wedge(exterior_derivative(a), b) - wedge(a, exterior_derivative(b))
            assert lhs == rhs

    def test_cyclic_two_form_storage(self):
        b = two_form_cyclic(CTX, ONE, CTX.rational(2), CTX.rational(3))
        # b31 dx3^dx1 = -b31 dx1^dx3
        assert b.coefficient((1, 3)) == CTX.rational(-2)
        assert b.coefficient((2, 3)) == ONE
        assert b.coefficient((1, 2)) == CTX.rational(3)


class TestFormValidation:
    def test_bad_index(self):
        with pytest.raises(ValueError):
            DifferentialForm(CTX, 2, {(2, 2): ONE})
        with pytest.raises(ValueError):
            DifferentialForm(CTX, 2, {(3, 1): ONE})
        with pytest.raises(ValueError):
            DifferentialForm(CTX, 1, {(4,): ONE})

    def test_zero_coefficients_dropped(self):
        form = DifferentialForm(CTX, 1, {(1,): ZERO, (2,): ONE})
        assert set(form.components) == {(2,)}


# (coefficient text, then the printed form with that coefficient on dx1,
# dx1^dx2 and dx1^dx2^dx3); a degree-0 form prints its coefficient alone
PRINTED = [
    ("1", "1", "dx1", "dx1^dx2", "dx1^dx2^dx3"),
    ("-1", "-1", "-dx1", "-dx1^dx2", "-dx1^dx2^dx3"),
    ("3", "3", "3*dx1", "3*dx1^dx2", "3*dx1^dx2^dx3"),
    ("-7", "-7", "-7*dx1", "-7*dx1^dx2", "-7*dx1^dx2^dx3"),
    ("x1", "(x1)", "(x1)*dx1", "(x1)*dx1^dx2", "(x1)*dx1^dx2^dx3"),
    ("-x2", "(-x2)", "(-x2)*dx1", "(-x2)*dx1^dx2", "(-x2)*dx1^dx2^dx3"),
    ("x1 + 1", "(x1 + 1)", "(x1 + 1)*dx1", "(x1 + 1)*dx1^dx2", "(x1 + 1)*dx1^dx2^dx3"),
    ("(x1 - x2)/(x3 + 2)", "((x1 - x2)/(x3 + 2))", "((x1 - x2)/(x3 + 2))*dx1",
     "((x1 - x2)/(x3 + 2))*dx1^dx2", "((x1 - x2)/(x3 + 2))*dx1^dx2^dx3"),
    ("-2/x3", "(-2/x3)", "(-2/x3)*dx1", "(-2/x3)*dx1^dx2", "(-2/x3)*dx1^dx2^dx3"),
]
FIRST_INDEX = [(), (1,), (1, 2), (1, 2, 3)]
BASES = {1: [(1,), (2,), (3,)], 2: [(1, 2), (1, 3), (2, 3)]}


class TestFormPrinting:
    @pytest.mark.parametrize("row", PRINTED, ids=[row[0] for row in PRINTED])
    def test_single_term(self, row):
        coeff = parse_in(row[0], CTX)
        for degree, expected in enumerate(row[1:]):
            form = DifferentialForm(CTX, degree, {FIRST_INDEX[degree]: coeff})
            assert str(form) == expected

    @pytest.mark.parametrize("degree", range(4))
    def test_zero_form(self, degree):
        assert str(DifferentialForm.zero(CTX, degree)) == "0"

    @pytest.mark.parametrize("degree, coeffs, expected", [
        (1, ["1", "-1", "(x1 - x2)/(x3 + 2)"], "dx1 - dx2 + ((x1 - x2)/(x3 + 2))*dx3"),
        (1, ["-3", "x2 + 1", "-x1/x2"], "-3*dx1 + (x2 + 1)*dx2 + (-x1/x2)*dx3"),
        (2, ["1", "-1", "(x1 - x2)/(x3 + 2)"],
         "dx1^dx2 - dx1^dx3 + ((x1 - x2)/(x3 + 2))*dx2^dx3"),
        (2, ["-3", "x2 + 1", "-x1/x2"], "-3*dx1^dx2 + (x2 + 1)*dx1^dx3 + (-x1/x2)*dx2^dx3"),
    ])
    def test_sum_in_index_order(self, degree, coeffs, expected):
        terms = dict(zip(BASES[degree], (parse_in(c, CTX) for c in coeffs)))
        form = DifferentialForm(CTX, degree, dict(reversed(terms.items())))
        assert str(form) == expected


def parity(perm) -> int:
    """The sign of a permutation, by counting its inversions."""
    inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
    return -1 if inversions % 2 else 1


class TestWedgeSign:
    @pytest.mark.parametrize("a, b", [
        (a, b) for da in (1, 2) for db in (1, 2) for a in BASES[da] for b in BASES[db]
        if da + db <= 3 and not set(a) & set(b)
    ])
    def test_sign_is_permutation_parity(self, a, b):
        # dx_a ^ dx_b = sign(a + b) dx_sorted(a + b)
        product = wedge(DifferentialForm(CTX, len(a), {a: ONE}),
                        DifferentialForm(CTX, len(b), {b: ONE}))
        merged = tuple(sorted(a + b))
        assert product == DifferentialForm(CTX, len(merged), {merged: CTX.rational(parity(a + b))})
