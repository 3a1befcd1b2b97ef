import random
from pathlib import Path

import pytest

from helpers import random_product_section
from vessiot.errors import DegenerateSection, InputFormatError, KindMismatch
from vessiot.jetcalc import JetVariable, prolong, symbol_dimension
from vessiot.lieops import (
    GeometricSection,
    ObjectKind,
    labeled_medolaghi,
    load_section,
    medolaghi_equations,
    nondegeneracy,
    parse_section_text,
    same_equations,
    section,
)
from vessiot.symexpr import Context, parse_in

SECTIONS = Path(__file__).resolve().parent.parent / "sections"
CTX2 = Context(2)
CTX1 = Context(1)
ONE = CTX2.one()
ZERO = CTX2.zero()


def jv(k, *mu):
    return JetVariable(k, tuple(mu))


def euclidean():
    return section(ObjectKind.METRIC_2D, [ONE, ONE, ZERO])


def flat_product():
    return section(ObjectKind.PRODUCT_TRIPLE_2D, [ZERO, ZERO, ONE])


def projective_product():
    return section(
        ObjectKind.PRODUCT_TRIPLE_2D, [ZERO, ZERO, parse_in("1/(x2 - x1)^2", CTX2)]
    )


class TestMedolaghi:
    def test_euclidean_killing_system(self):
        eqs = labeled_medolaghi(euclidean())
        two = CTX2.rational(2)
        assert eqs["11"].terms == {jv(1, 1, 0): two}
        assert eqs["22"].terms == {jv(2, 0, 1): two}
        assert eqs["12"].terms == {jv(1, 0, 1): ONE, jv(2, 1, 0): ONE}

    def test_flat_product_system(self):
        eqs = labeled_medolaghi(flat_product())
        assert eqs["1"].terms == {jv(1, 0, 1): ONE}
        assert eqs["2"].terms == {jv(2, 1, 0): ONE}
        assert eqs["3"].terms == {jv(1, 1, 0): ONE, jv(2, 0, 1): ONE}

    def test_one_form_reciprocal(self):
        alpha = parse_in("1/x1", CTX1)
        (eq,) = medolaghi_equations(section(ObjectKind.ONE_FORM_1D, [alpha]))
        assert eq.terms == {
            JetVariable(1, (1,)): alpha,
            JetVariable(1, (0,)): parse_in("-1/x1^2", CTX1),
        }

    def test_christoffel_1d_is_second_order(self):
        gamma = parse_in("x1", CTX1)
        (eq,) = medolaghi_equations(section(ObjectKind.CHRISTOFFEL_1D, [gamma]))
        assert eq.order == 2
        assert eq.terms[JetVariable(1, (2,))] == CTX1.one()
        assert eq.terms[JetVariable(1, (1,))] == gamma
        assert eq.terms[JetVariable(1, (0,))] == CTX1.one()  # d gamma / dx

    def test_christoffel_2d_shape(self):
        comps = [parse_in(t, CTX2) for t in ("x2", "0", "0", "0", "0", "0")]
        eqs = medolaghi_equations(section(ObjectKind.CHRISTOFFEL_2D, comps))
        assert len(eqs) == 6
        assert all(eq.order == 2 for eq in eqs)

    def test_contact_pair_shape(self):
        ctx3 = Context(3)
        comps = [
            ctx3.one(),
            -parse_in("x3", ctx3),
            ctx3.zero(),
            ctx3.one(),
            ctx3.zero(),
            ctx3.zero(),
        ]
        eqs = medolaghi_equations(section(ObjectKind.CONTACT_PAIR_3D, comps))
        assert len(eqs) == 6
        assert all(eq.order == 1 for eq in eqs)

    def test_first_order_for_tensorial_kinds(self):
        rng = random.Random(2)
        for _ in range(5):
            sec = random_product_section(rng)
            assert all(eq.order == 1 for eq in medolaghi_equations(sec))

    def test_degenerate_section_rejected(self):
        with pytest.raises(DegenerateSection):
            medolaghi_equations(section(ObjectKind.METRIC_2D, [ONE, ONE, ONE]))
        with pytest.raises(DegenerateSection):
            medolaghi_equations(
                section(ObjectKind.PRODUCT_TRIPLE_2D, [ONE, ONE, ONE])
            )


def apply_field(eq, field):
    """The equation with each jet variable d^mu xi^k replaced by the derivative
    of field[k - 1], taken through Expression.diff."""
    total = None
    for var, coeff in eq.terms.items():
        value = field[var.component - 1]
        for i, times in enumerate(var.index, start=1):
            for _ in range(times):
                value = value.diff(i)
        total = coeff * value if total is None else total + coeff * value
    return total


def connection_2d(*gammas):
    keys = ObjectKind.CHRISTOFFEL_2D.spec.keys
    return "kind = CHRISTOFFEL_2D\n" + "\n".join(f"{k} = {g}" for k, g in zip(keys, gammas))


FLAT_CONNECTION = connection_2d(*"000000")
HALF_PLANE_CONNECTION = connection_2d("0", "-1/x2", "0", "1/x2", "0", "-1/x2")  # Levi-Civita
HALF_PLANE_KILLING = [("1", "0"), ("x1", "x2"), ("x1^2 - x2^2", "2*x1*x2")]


class TestLieDerivativeRules:
    """Each kind's system, evaluated on explicit vector fields: L(xi)omega
    vanishes for the known symmetries and not for the other fields."""

    @pytest.mark.parametrize(
        "source, symmetries, others",
        [
            ("one_form_dilatation.section", [("x1",)], [("x1^2",), ("1",)]),
            ("kind = CHRISTOFFEL_1D\ngamma = 0", [("1",), ("x1",)], [("x1^2",)]),
            ("kind = CHRISTOFFEL_1D\ngamma = 1/x1", [("x1",), ("1/x1",)], [("1",)]),
            ("metric_euclidean.section", [("1", "0"), ("-x2", "x1")], [("x1", "x2")]),
            ("metric_half_plane.section", HALF_PLANE_KILLING, [("0", "1"), ("x1", "0")]),
            ("metric_indefinite.section", [("x1", "-x2"), ("1", "0")], [("x1", "x2")]),
            (
                "product_projective.section",
                [("1", "1"), ("x1", "x2"), ("x1^2", "x2^2")],
                [("x1", "0"), ("x1^2", "x2")],
            ),
            (FLAT_CONNECTION, [("0", "x1"), ("x2", "1")], [("x1^2", "0")]),
            (HALF_PLANE_CONNECTION, HALF_PLANE_KILLING, [("0", "1"), ("x2", "0")]),
            (
                "contact_standard.section",
                [("1", "0", "0"), ("0", "1", "0"), ("x2", "0", "1")],
                [("0", "0", "1"), ("x1", "0", "0")],
            ),
            (
                # alpha = dx1, beta = d(x2 - x1) ^ dx3: the swapped b13 and b32 enter
                "kind = CONTACT_PAIR_3D\na1 = 1\na2 = 0\na3 = 0\nb23 = 1\nb31 = 1\nb12 = 0",
                [("0", "1", "0"), ("1", "1", "0"), ("0", "x2 - x1", "-x3"), ("0", "x3", "0")],
                [("0", "x2", "-x3"), ("0", "x1", "0")],
            ),
        ],
    )
    def test_symmetries_and_others(self, source, symmetries, others):
        if source.endswith(".section"):
            sec, _ = load_section(SECTIONS / source)
        else:
            sec, _ = parse_section_text(source)
        system = medolaghi_equations(sec)
        assert len(system) == len(sec.kind.spec.keys)

        def lie_derivative(field):
            return [apply_field(eq, [parse_in(t, sec.context) for t in field]) for eq in system]

        for field in symmetries:
            assert all(value.is_zero() for value in lie_derivative(field)), field
        for field in others:
            assert not all(value.is_zero() for value in lie_derivative(field)), field

    def test_one_rule_per_object_type(self):
        templates = {kind: kind.spec.template.__name__ for kind in ObjectKind}
        assert templates == {
            ObjectKind.ONE_FORM_1D: "_tensor",
            ObjectKind.METRIC_2D: "_tensor",
            ObjectKind.CONTACT_PAIR_3D: "_tensor",
            ObjectKind.CHRISTOFFEL_1D: "_connection",
            ObjectKind.CHRISTOFFEL_2D: "_connection",
            ObjectKind.PRODUCT_TRIPLE_2D: "_product_triple_2d",
        }
        for kind in ObjectKind:
            spec = kind.spec
            assert len(spec.indices) in (0, len(spec.keys))
            assert all(1 <= i <= spec.dim for idx in spec.indices for i in idx)


class TestFiniteType:
    def test_flat_systems_have_finite_type_symbols(self):
        for sec in (euclidean(), flat_product()):
            system = medolaghi_equations(sec)
            assert symbol_dimension(system, 1) == 1
            second = [eq for eq in prolong(system, 1) if eq.order == 2]
            assert symbol_dimension(second, 2) == 0


class TestSameEquations:
    def test_metric_scaling(self):
        five = CTX2.rational(5)
        scaled = section(ObjectKind.METRIC_2D, [five, five, ZERO])
        assert same_equations(euclidean(), scaled)

    def test_metric_non_scaling(self):
        other = section(ObjectKind.METRIC_2D, [ONE, CTX2.rational(2), ZERO])
        assert not same_equations(euclidean(), other)

    def test_product_third_component_scaling(self):
        rng = random.Random(9)
        base = random_product_section(rng)
        w1, w2, w3 = base.components
        lam = CTX2.rational(-7)
        scaled = section(ObjectKind.PRODUCT_TRIPLE_2D, [w1, w2, w3 * lam])
        assert same_equations(base, scaled)

    def test_product_flat_vs_projective(self):
        assert not same_equations(flat_product(), projective_product())

    def test_reflexive_and_symmetric(self):
        a, b = flat_product(), projective_product()
        assert same_equations(a, a)
        assert same_equations(b, b)
        assert same_equations(a, b) == same_equations(b, a)

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatch):
            same_equations(euclidean(), flat_product())

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("params = a\nw11 = a\nw22 = a\nw12 = 0", True),
            ("params = a\nw11 = a\nw22 = 1\nw12 = 0", False),
            ("params = a, b\nw11 = a\nw22 = a\nw12 = b", False),
        ],
    )
    def test_across_contexts(self, text, expected):
        other, _ = parse_section_text("kind = METRIC_2D\n" + text)
        assert same_equations(other, euclidean()) is expected
        assert same_equations(euclidean(), other) is expected


class TestNondegeneracy:
    def test_euclidean_witness(self):
        assert nondegeneracy(euclidean()) == ONE

    def test_indefinite_metric_witness(self):
        sec = section(ObjectKind.METRIC_2D, [ZERO, ZERO, ONE])
        assert nondegeneracy(sec) == CTX2.rational(-1)

    def test_projective_product_witness(self):
        assert nondegeneracy(projective_product()) == parse_in(
            "1/(x2 - x1)^2", CTX2
        )

    def test_contact_volume_witness(self):
        ctx3 = Context(3)
        comps = [
            ctx3.one(),
            -parse_in("x3", ctx3),
            ctx3.zero(),
            ctx3.one(),
            ctx3.zero(),
            ctx3.zero(),
        ]
        sec = section(ObjectKind.CONTACT_PAIR_3D, comps)
        assert nondegeneracy(sec) == ctx3.one()


class TestSectionFiles:
    def test_parse_product_file(self):
        sec, extras = parse_section_text(
            """
            kind = PRODUCT_TRIPLE_2D
            n = 2
            w1 = 0
            w2 = 0
            w3 = 1/(x2 - x1)^2
            """
        )
        assert sec.kind is ObjectKind.PRODUCT_TRIPLE_2D
        assert sec.components[2] == parse_in("1/(x2 - x1)^2", CTX2)
        assert extras == {}

    def test_one_form_with_gamma(self):
        sec, extras = parse_section_text(
            "kind = ONE_FORM_1D\nalpha = 1/x1\ngamma = x1"
        )
        assert sec.kind is ObjectKind.ONE_FORM_1D
        assert set(extras) == {"gamma"}

    def test_params_header(self):
        sec, _ = parse_section_text(
            "kind = PRODUCT_TRIPLE_2D\nparams = a\nw1 = 0\nw2 = 0\nw3 = a"
        )
        assert sec.context.params == ("a",)

    def test_comments_and_blank_lines(self):
        sec, _ = parse_section_text(
            "# header comment\nkind = METRIC_2D\n\nw11 = 1  # identity\nw22 = 1\nw12 = 0"
        )
        assert sec.kind is ObjectKind.METRIC_2D

    @pytest.mark.parametrize(
        "text",
        [
            "w1 = 0\nw2 = 0\nw3 = 1",  # missing kind
            "kind = NO_SUCH_KIND\nw1 = 0",
            "kind = METRIC_2D\nn = 3\nw11 = 1\nw22 = 1\nw12 = 0",
            "kind = METRIC_2D\nw11 = 1\nw22 = 1",  # missing component
            "kind = METRIC_2D\nw11 = 1\nw22 = 1\nw12 = 0\nbogus = 1",
            "kind = METRIC_2D\nw11 = 1\nw11 = 2\nw22 = 1\nw12 = 0",  # duplicate
            "kind = METRIC_2D\nw11\nw22 = 1\nw12 = 0",  # no equals sign
        ],
    )
    def test_rejected_files(self, text):
        with pytest.raises(InputFormatError):
            parse_section_text(text)

    def test_load_section_round_trip(self, tmp_path):
        path = tmp_path / "metric.section"
        path.write_text("kind = METRIC_2D\nw11 = 1\nw22 = 1\nw12 = 0\n")
        sec, _ = load_section(path)
        assert same_equations(sec, euclidean())


class TestSectionValidation:
    def test_wrong_component_count(self):
        with pytest.raises(ValueError):
            GeometricSection(ObjectKind.METRIC_2D, (ONE, ONE), 2)

    def test_wrong_dimension(self):
        with pytest.raises(ValueError):
            GeometricSection(ObjectKind.METRIC_2D, (ONE, ONE, ZERO), 3)

    def test_mixed_contexts(self):
        other = Context(2, ["a"])
        with pytest.raises(ValueError):
            GeometricSection(ObjectKind.METRIC_2D, (ONE, other.one(), ZERO), 2)
