import random
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import random_connection, random_metric, random_nonzero_rational
from vessiot import symexpr
from vessiot.curvature import (
    IJ,
    Connection2D,
    Metric2D,
    affine_flatness,
    antisymmetric_constant_squared,
    christoffel,
    metric_constants,
    riemann,
)
from vessiot.errors import DegenerateMetric
from vessiot.lieops import load_section
from vessiot.symexpr import Context, parse_in

CTX = Context(2)
ONE = CTX.one()
ZERO = CTX.zero()


def half_plane():
    hp = parse_in("1/x2^2", CTX)
    return Metric2D(hp, hp, ZERO)


def zero_connection():
    return Connection2D({(k, i, j): ZERO for k in (1, 2) for i, j in IJ})


class TestChristoffel:
    def test_euclidean_all_zero(self):
        conn = christoffel(Metric2D(ONE, ONE, ZERO))
        assert all(v.is_zero() for v in conn.components.values())

    def test_half_plane(self):
        conn = christoffel(half_plane())
        minus = parse_in("-1/x2", CTX)
        plus = parse_in("1/x2", CTX)
        assert conn.gamma(1, 1, 2) == minus
        assert conn.gamma(2, 1, 1) == plus
        assert conn.gamma(2, 2, 2) == minus
        for key in ((1, 1, 1), (1, 2, 2), (2, 1, 2)):
            assert conn.components[key].is_zero()

    def test_constant_metric_all_zero(self):
        conn = christoffel(Metric2D(ZERO, ZERO, ONE))
        assert all(v.is_zero() for v in conn.components.values())

    def test_degenerate_metric_rejected(self):
        with pytest.raises(DegenerateMetric):
            christoffel(Metric2D(ONE, ONE, ONE))

    def test_trace_identity(self):
        # gamma^r_ri = (1/2) w^{rs} d_i w_rs
        rng = random.Random(61)
        half = CTX.rational("1/2")
        for _ in range(5):
            metric = random_metric(rng)
            conn = christoffel(metric)
            for i in (1, 2):
                trace = conn.gamma(1, 1, i) + conn.gamma(2, 2, i)
                expected = ZERO
                for r in (1, 2):
                    for s in (1, 2):
                        expected = expected + metric.inverse_component(
                            r, s
                        ) * metric.component(r, s).diff(i)
                assert trace == half * expected


SECTIONS = Path(__file__).resolve().parent.parent / "sections"


def chain_metrics():
    """The bundled metrics, a/x2^2 half-planes, and seeded rational metrics
    whose three components have three distinct denominators."""
    metrics = [
        Metric2D.from_section(load_section(SECTIONS / f"metric_{name}.section")[0])
        for name in ("euclidean", "half_plane", "indefinite")
    ]
    for a in ("-3/2", "5", "1/7"):
        hp = parse_in(f"({a})/x2^2", CTX)
        metrics.append(Metric2D(hp, hp, ZERO))
    rng = random.Random(97)
    while len(metrics) < 12:
        metric = Metric2D(*(
            parse_in(f"({rng.randint(1, 4)} + {rng.randint(-2, 2)}*x1*x2)/({den} + {rng.randint(1, 5)})", CTX)
            for den in ("x1", "x2", "x1 - x2")
        ))
        if not metric.det().is_zero():
            metrics.append(metric)
    return metrics


def reference_christoffel(metric):
    """gamma^k_ij = (1/2) w^{kr} (d_i w_rj + d_j w_ir - d_r w_ij), term by term."""
    half = CTX.rational("1/2")
    w = metric.component
    comps = {}
    for k in (1, 2):
        for i, j in IJ:
            total = ZERO
            for r in (1, 2):
                total = total + metric.inverse_component(k, r) * (
                    w(r, j).diff(i) + w(i, r).diff(j) - w(i, j).diff(r)
                )
            comps[(k, i, j)] = half * total
    return comps


class TestLeviCivitaChain:
    @pytest.mark.parametrize("index", range(12))
    def test_matches_reference_and_section_route(self, index):
        metric = chain_metrics()[index]
        conn = christoffel(metric)
        assert conn.components == reference_christoffel(metric)
        # the stored (E, G) pair against the pair common_denominator forms
        # from the reduced components, through the one Riemann formula
        levi_civita = riemann(conn)
        from_section = riemann(Connection2D(dict(conn.components)))
        assert levi_civita.riemann == from_section.riemann
        assert levi_civita.ricci == from_section.ricci
        assert levi_civita.sym == from_section.sym
        assert levi_civita.phi_12 == from_section.phi_12
        gamma = conn.gamma
        for k in (1, 2):
            for l in (1, 2):
                rho = gamma(k, l, 2).diff(1) - gamma(k, l, 1).diff(2)
                for r in (1, 2):
                    rho = rho + gamma(r, l, 2) * gamma(k, r, 1) - gamma(r, l, 1) * gamma(k, r, 2)
                assert levi_civita.riemann[(k, l, 1, 2)] == rho

    def test_components_reduced_only_when_read(self, monkeypatch):
        calls = []
        original = symexpr._cancel

        def counting(a, b):
            calls.append(1)
            return original(a, b)

        monkeypatch.setattr(symexpr, "_cancel", counting)
        for metric in chain_metrics():
            calls.clear()
            symexpr.common_denominator((metric.w11, metric.w22, metric.w12))
            lcm_calls = len(calls)
            calls.clear()
            conn = christoffel(metric)
            # only the lcm of the metric's denominators, no cancel of a Christoffel symbol
            assert len(calls) == lcm_calls
            e, numer = conn.over
            calls.clear()
            conn.gamma(1, 2, 1)
            assert len(calls) == sum(not g.is_zero() for g in numer.values())
            calls.clear()
            conn.components
            assert calls == []


class TestRiemann:
    def test_zero_connection_flat(self):
        data = riemann(zero_connection())
        assert data.is_flat()
        assert all(v.is_zero() for v in data.ricci.values())

    def test_half_plane_ricci(self):
        data = riemann(christoffel(half_plane()))
        minus = parse_in("-1/x2^2", CTX)
        assert data.ricci[(1, 1)] == minus
        assert data.ricci[(2, 2)] == minus
        assert data.ricci[(1, 2)].is_zero()
        assert data.ricci[(2, 1)].is_zero()
        assert data.phi_12.is_zero()

    def test_open_trace_connection_has_phi(self):
        comps = {(k, i, j): ZERO for k in (1, 2) for i, j in IJ}
        comps[(1, 1, 1)] = parse_in("x2", CTX)
        data = riemann(Connection2D(comps))
        assert data.phi_12 == CTX.rational(-1)

    def test_direct_formula_oracle(self):
        # recompute rho^k_{l,ij} for all index positions from the raw formula
        rng = random.Random(67)
        conn = random_connection(rng)
        data = riemann(conn)

        def rho(k, l, i, j):
            total = conn.gamma(k, l, j).diff(i) - conn.gamma(k, l, i).diff(j)
            for r in (1, 2):
                total = total + conn.gamma(r, l, j) * conn.gamma(k, r, i)
                total = total - conn.gamma(r, l, i) * conn.gamma(k, r, j)
            return total

        for k in (1, 2):
            for l in (1, 2):
                for i, j in ((1, 2), (2, 1), (1, 1), (2, 2)):
                    assert data.riemann_component(k, l, i, j) == rho(k, l, i, j)

    def test_antisymmetry_on_random_connections(self):
        rng = random.Random(71)
        for _ in range(5):
            data = riemann(random_connection(rng))
            for k in (1, 2):
                for l in (1, 2):
                    assert data.riemann_component(k, l, 2, 1) == -(
                        data.riemann_component(k, l, 1, 2)
                    )
                    assert data.riemann_component(k, l, 1, 1).is_zero()

    def test_two_dimensional_ricci_identities(self):
        rng = random.Random(73)
        data = riemann(random_connection(rng))
        assert data.ricci[(1, 1)] == data.riemann_component(2, 1, 2, 1)
        assert data.ricci[(1, 2)] == data.riemann_component(1, 1, 1, 2)
        assert data.ricci[(2, 1)] == data.riemann_component(2, 2, 2, 1)
        assert data.ricci[(2, 2)] == data.riemann_component(1, 2, 1, 2)


class TestMetricConstants:
    def test_euclidean_flat(self):
        report = metric_constants(Metric2D(ONE, ONE, ZERO))
        assert report.integrable
        assert report.constant("c1").is_zero()
        assert report.constant("c2").is_zero()

    def test_half_plane(self):
        report = metric_constants(half_plane())
        assert report.constant("c1") == CTX.rational(-1)
        assert report.constant("c2").is_zero()

    def test_indefinite_constant_metric(self):
        metric = Metric2D(ZERO, ZERO, ONE)
        report = metric_constants(metric)
        assert report.constant("c1").is_zero()
        assert report.constant("c2").is_zero()
        assert metric.det() == CTX.rational(-1)
        assert metric.det() is metric.det()

    def test_non_constant_curvature_flagged(self):
        metric = Metric2D(ONE, parse_in("x1 + 3", CTX), ZERO)
        report = metric_constants(metric)
        assert not report.integrable
        assert report.residual is not None

    def test_levi_civita_kills_phi(self):
        rng = random.Random(79)
        for _ in range(8):
            data = riemann(christoffel(random_metric(rng)))
            assert data.phi_12.is_zero()

    def test_scaling_inverse_on_constant(self):
        rng = random.Random(83)
        hp = half_plane()
        for _ in range(4):
            lam = random_nonzero_rational(rng)
            factor = CTX.rational(lam)
            scaled = metric_constants(Metric2D(hp.w11 * factor, hp.w22 * factor, hp.w12 * factor))
            assert scaled.constant("c1") == CTX.rational(Fraction(-1) / lam)


class TestMetricAlgebra:
    def test_inverse_identity(self):
        rng = random.Random(89)
        for _ in range(5):
            metric = random_metric(rng)
            for i in (1, 2):
                for j in (1, 2):
                    total = ZERO
                    for r in (1, 2):
                        total = total + metric.inverse_component(
                            i, r
                        ) * metric.component(r, j)
                    assert total == (ONE if i == j else ZERO)


class TestAntisymmetricConstant:
    def test_levi_civita_gives_zero(self):
        metric = half_plane()
        assert antisymmetric_constant_squared(christoffel(metric), metric).is_zero()

    def test_open_trace_connection(self):
        # phi_12 = -1 against the euclidean metric: c2^2 = 1/4
        comps = {(k, i, j): ZERO for k in (1, 2) for i, j in IJ}
        comps[(1, 1, 1)] = parse_in("x2", CTX)
        conn = Connection2D(comps)
        metric = Metric2D(ONE, ONE, ZERO)
        assert antisymmetric_constant_squared(conn, metric) == CTX.rational("1/4")


class TestAffineFlatness:
    def test_zero_connection_flat(self):
        assert affine_flatness(zero_connection()).is_flat()

    def test_half_plane_connection_not_flat(self):
        data = affine_flatness(christoffel(half_plane()))
        assert not data.is_flat()
        assert data.ricci[(1, 1)] == parse_in("-1/x2^2", CTX)

    def test_constant_connection_need_not_be_flat(self):
        comps = {(k, i, j): ZERO for k in (1, 2) for i, j in IJ}
        comps[(1, 1, 2)] = ONE
        comps[(2, 1, 1)] = ONE
        data = affine_flatness(Connection2D(comps))
        assert not data.is_flat()


class TestNumericOracle:
    def test_half_plane_ricci_matches_finite_differences(self):
        metric = half_plane()
        conn = christoffel(metric)
        data = riemann(conn)
        point = (Fraction(2), Fraction(3))
        step = Fraction(1, 10_000)

        def gamma_at(k, i, j, at):
            return conn.gamma(k, i, j).evaluate(at)

        def d_gamma(k, i, j, direction):
            fwd = list(point)
            bwd = list(point)
            fwd[direction - 1] += step
            bwd[direction - 1] -= step
            return (gamma_at(k, i, j, fwd) - gamma_at(k, i, j, bwd)) / (2 * step)

        # rho_11 = rho^2_{1,21} = d2 g^2_11 - d1 g^2_12 + quadratic terms
        numeric = d_gamma(2, 1, 1, 2) - d_gamma(2, 1, 2, 1)
        for r in (1, 2):
            numeric += gamma_at(r, 1, 1, point) * gamma_at(2, r, 2, point)
            numeric -= gamma_at(r, 1, 2, point) * gamma_at(2, r, 1, point)
        symbolic = data.ricci[(1, 1)].evaluate(point)
        assert symbolic != 0
        assert abs(numeric - symbolic) <= abs(symbolic) * Fraction(1, 10**6)
