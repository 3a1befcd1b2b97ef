import random
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import random_connection, random_metric, random_nonzero_rational, riemann_component
from vessiot import cli, curvature, structure, symexpr
from vessiot.curvature import (
    IJ,
    Connection2D,
    Metric2D,
    christoffel,
    metric_constants,
    riemann,
)
from vessiot.errors import DegenerateMetric
from vessiot.lieops import ObjectKind, load_section
from vessiot.reports import StructureReport
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
                    assert riemann_component(data, k, l, i, j) == rho(k, l, i, j)

    def test_antisymmetry_on_random_connections(self):
        rng = random.Random(71)
        for _ in range(5):
            data = riemann(random_connection(rng))
            for k in (1, 2):
                for l in (1, 2):
                    assert riemann_component(data, k, l, 2, 1) == -(
                        riemann_component(data, k, l, 1, 2)
                    )
                    assert riemann_component(data, k, l, 1, 1).is_zero()

    def test_two_dimensional_ricci_identities(self):
        rng = random.Random(73)
        data = riemann(random_connection(rng))
        assert data.ricci[(1, 1)] == riemann_component(data, 2, 1, 2, 1)
        assert data.ricci[(1, 2)] == riemann_component(data, 1, 1, 1, 2)
        assert data.ricci[(2, 1)] == riemann_component(data, 2, 2, 2, 1)
        assert data.ricci[(2, 2)] == riemann_component(data, 1, 2, 1, 2)


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


class TestAffineFlatness:
    def test_zero_connection_flat(self):
        assert riemann(zero_connection()).is_flat()

    def test_half_plane_connection_not_flat(self):
        data = riemann(christoffel(half_plane()))
        assert not data.is_flat()
        assert data.ricci[(1, 1)] == parse_in("-1/x2^2", CTX)

    def test_constant_connection_need_not_be_flat(self):
        comps = {(k, i, j): ZERO for k in (1, 2) for i, j in IJ}
        comps[(1, 1, 2)] = ONE
        comps[(2, 1, 1)] = ONE
        data = riemann(Connection2D(comps))
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


def sym_over_metric_report(metric):
    """The report through the full Ricci split: sym(Ricci) / w for the first
    nonzero metric entry w in IJ order."""
    data = riemann(christoffel(metric))
    i, j = next(ij for ij in IJ if not metric.component(*ij).is_zero())
    quotient = data.sym[(i, j)] / metric.component(i, j)
    kind = ObjectKind.METRIC_2D.value
    if quotient.is_constant():
        constants = {"c1": quotient, "c2": metric.context.zero()}
        return StructureReport(kind=kind, constants=constants, integrable=True)
    return StructureReport(kind=kind, constants={}, integrable=False, residual=quotient)


def gauss_route_metrics():
    """Bundled metrics, seeded random metrics, both w11 = 0 branches and a
    declared parameter, integrable and not."""
    metrics = list(chain_metrics())
    rng = random.Random(101)
    metrics += [random_metric(rng) for _ in range(6)]
    poly = "{} + {}*x1 + {}*x2"
    while len(metrics) < 24:
        w22, w12 = (
            parse_in(poly.format(*(rng.randint(-2, 2) for _ in range(3))), CTX) for _ in range(2)
        )
        if not w12.is_zero():
            metrics += [Metric2D(ZERO, w22, w12), Metric2D(ZERO, ZERO, w12)]
    metrics += [
        Metric2D(ZERO, parse_in("x1^2 + 1", CTX), parse_in("x2 + 2", CTX)),
        Metric2D(ZERO, ZERO, parse_in("1/(x1 + x2)^2", CTX)),
        Metric2D(ZERO, ZERO, parse_in("x1*x2 + 1", CTX)),
    ]
    pctx = Context(2, ["a"])
    hp = parse_in("a/x2^2", pctx)
    metrics += [
        Metric2D(hp, hp, pctx.zero()),
        Metric2D(pctx.zero(), pctx.zero(), parse_in("a/(x1 + x2)^2", pctx)),
        Metric2D(pctx.zero(), parse_in("a*x1 + 1", pctx), parse_in("x2", pctx)),
        Metric2D(parse_in("a + x1", pctx), pctx.one(), parse_in("a*x2", pctx)),
    ]
    return metrics


class TestGaussRoute:
    @pytest.mark.parametrize("index", range(len(gauss_route_metrics())))
    def test_one_component_matches_symmetric_ricci(self, index):
        metric = gauss_route_metrics()[index]
        assert (
            metric_constants(metric).to_json_dict()
            == sym_over_metric_report(metric).to_json_dict()
        )

    def test_routes_cover_every_branch(self):
        metrics = gauss_route_metrics()
        reports = [metric_constants(m) for m in metrics]
        assert any(r.integrable for r in reports)
        assert any(not r.integrable for r in reports)
        assert any(m.w11.is_zero() and not m.w22.is_zero() for m in metrics)
        assert any(m.w11.is_zero() and m.w22.is_zero() for m in metrics)
        integrable_w12_only = [
            r for m, r in zip(metrics, reports) if m.w11.is_zero() and m.w22.is_zero()
            and r.integrable and not r.constant("c1").is_zero()
        ]
        assert integrable_w12_only
        assert any(m.context.params for m in metrics)

    def test_levi_civita_identities_on_random_metrics(self):
        # sym(Ricci) = c1 * w and phi_12 = 0, with c1 the reported constant or residual
        rng = random.Random(103)
        for _ in range(8):
            metric = random_metric(rng)
            report = metric_constants(metric)
            k = report.constant("c1") if report.integrable else report.residual
            data = riemann(christoffel(metric))
            assert data.phi_12.is_zero()
            for i, j in IJ:
                assert data.sym[(i, j)] == k * metric.component(i, j)


class TestChainCalls:
    """compute reads c1 off one component; curvature prints the full record
    and reuses that component."""

    METRIC = SECTIONS / "metric_half_plane.section"

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"christoffel": 0, "riemann": 0, "curl_numerator": 0}
        for name in counts:
            original = getattr(curvature, name)

            def counting(*args, _name=name, _original=original):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(curvature, name, counting)
        return counts

    def test_compute_builds_one_connection_and_no_riemann(self, calls):
        sec, extras = load_section(self.METRIC)
        structure.structure_report(sec, extras)
        assert calls == {"christoffel": 1, "riemann": 0, "curl_numerator": 1}

    def test_curvature_command_runs_each_once(self, calls, capsys):
        assert cli.main(["curvature", "--section", str(self.METRIC)]) == 0
        assert '"phi_12": "0"' in capsys.readouterr().out
        # four Riemann numerators, the one c1 reads among them
        assert calls == {"christoffel": 1, "riemann": 1, "curl_numerator": 4}
