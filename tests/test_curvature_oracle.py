"""Differential tests of the Christoffel -> Riemann chain against sympy.

Inputs are rational metrics and standalone connections whose components have
different denominators, so the common denominator of the chain is a product
of distinct factors.  Every Christoffel and Riemann component is compared with
the textbook formula evaluated in sympy's integer polynomial ring
``sympy.ring``: each reference value is a numerator over a denominator that
the formula designs (a product of input denominators, never a gcd), and the
comparison divides it exactly by the engine's reduced denominator.  Every
Gamma and rho is one numerator over the one denominator of the connection,
or its square.  ``sympy.cancel`` of the whole nested Riemann expression takes
minutes on these inputs, and the rational function field ``sympy.field``,
with a gcd after every operation, seconds per example.  The engine inputs are
parsed from text, the reference inputs built from the same integers, so
neither side sees the other's canonical form.  Cases are drawn by hypothesis with a fixed derivation
(``derandomize``); without sympy or hypothesis the module is skipped.
"""

from math import prod

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from sympy.polys.polyerrors import ExactQuotientFailed  # noqa: E402

from helpers import degenerate, unpacked  # noqa: E402
from oracle_support import oracle_settings  # noqa: E402
from vessiot.curvature import (  # noqa: E402
    IJ,
    Connection2D,
    Metric2D,
    christoffel,
    metric_constants,
    riemann,
)
from vessiot.symexpr import Context, parse_in  # noqa: E402

CTX = Context(2, ["a"])
RING, X1, X2, A = sympy.ring("x1,x2,a", sympy.ZZ)
XS = (X1, X2)
KEYS = [(k, i, j) for k in (1, 2) for i, j in IJ]

ORACLE = oracle_settings(15)
# the reference Riemann tensor of a rational metric costs sympy 0.04-0.2 s
METRIC_ORACLE = settings(ORACLE, max_examples=5)

small = st.integers(-3, 3)
# (c0, c1, c2): the linear form c0 + c1*x1 + c2*x2, not constant
linear = st.tuples(small, small, small).filter(lambda f: f[1] or f[2])


class _Frac:
    """numer/denom over RING with no gcd: a sum over equal denominators adds
    the numerators, every other operation cross-multiplies.  Equal values
    need not have equal pairs; ``assert_same`` compares them by value."""

    __slots__ = ("numer", "denom")

    def __init__(self, numer, denom=RING.one):
        self.numer, self.denom = RING(numer), denom

    def __add__(self, other):
        other = _frac(other)
        if self.denom == other.denom:
            return _Frac(self.numer + other.numer, self.denom)
        return _Frac(self.numer * other.denom + other.numer * self.denom, self.denom * other.denom)

    def __neg__(self):
        return _Frac(-self.numer, self.denom)

    def __sub__(self, other):
        return self + -_frac(other)

    def __mul__(self, other):
        other = _frac(other)
        return _Frac(self.numer * other.numer, self.denom * other.denom)

    def __truediv__(self, other):
        other = _frac(other)
        return _Frac(self.numer * other.denom, self.denom * other.numer)

    def __rtruediv__(self, other):
        return _frac(other) / self

    def diff(self, x):
        return _Frac(self.numer.diff(x) * self.denom - self.numer * self.denom.diff(x),
                     self.denom * self.denom)


def _frac(value) -> _Frac:
    return value if isinstance(value, _Frac) else _Frac(value)


def _over_one(fracs) -> dict:
    """The same values over one denominator: the product of their distinct ones."""
    dens = []
    for f in fracs.values():
        if f.denom not in dens:
            dens.append(f.denom)
    e = prod(dens, start=RING.one)
    return {key: _Frac(f.numer * e.exquo(f.denom), e) for key, f in fracs.items()}


def _form(c):
    return f"({c[0]} + {c[1]}*x1 + {c[2]}*x2)", _Frac(c[0] + c[1] * X1 + c[2] * X2)


def _as_poly(p):
    return RING.from_dict(dict(unpacked(p, 3)))


def assert_same(ours, reference) -> None:
    # ours is coprime with unit content, so its den divides the denominator of
    # any equal reference: one exact division in the polynomial ring, no gcd
    try:
        q = reference.denom.exquo(_as_poly(ours.den))
    except ExactQuotientFailed:
        raise AssertionError(f"{ours}: its den does not divide the reference's") from None
    assert _as_poly(ours.num) * q == reference.numer


def _distinct_denominators(exprs) -> bool:
    dens = [e.den for e in exprs]
    return all(d.used_slots() for d in dens) and len(set(dens)) == len(dens)


def _rho(gamma, k: int, l: int):
    """rho^k_{l,12} = d_1 g^k_l2 - d_2 g^k_l1 + g^r_l2 g^k_r1 - g^r_l1 g^k_r2."""
    rho = gamma[(k, l, 2)].diff(X1) - gamma[(k, l, 1)].diff(X2)
    for r in (1, 2):
        rho += gamma[(r, l, 2)] * gamma[(k, r, 1)] - gamma[(r, l, 1)] * gamma[(k, r, 2)]
    return rho


def assert_riemann(gamma, *sources) -> None:
    """``riemann`` of each source, a connection or a metric, against _rho."""
    gamma = _over_one(gamma)
    records = [riemann(source).riemann for source in sources]
    for k in (1, 2):
        for l in (1, 2):
            reference = _rho(gamma, k, l)
            for ours in records:
                assert_same(ours[(k, l, 1, 2)], reference)


# three components c/(linear form), the parameter a added to one denominator
rational_metric_parts = (
    st.lists(st.tuples(small.filter(bool), linear), min_size=3, max_size=3),
    st.integers(0, 2),
)


def _rational_metric(parts, param_slot):
    """The metric parsed from text, and its components built in sympy, over
    one denominator."""
    texts, refs = [], []
    for slot, (c, den) in enumerate(parts):
        text, ref = _form(den)
        if slot == param_slot:
            text, ref = f"({text} + a)", ref + A
        texts.append(f"{c}/{text}")
        refs.append(c / ref)
    metric = Metric2D(*(parse_in(t, CTX) for t in texts))
    assume(_distinct_denominators([metric.w11, metric.w22, metric.w12]))
    assume(not degenerate(metric))
    w11, w22, w12 = refs
    return metric, _over_one({(1, 1): w11, (2, 2): w22, (1, 2): w12, (2, 1): w12})


def _levi_civita(w):
    """gamma^k_ij = (1/2) w^{kr} (d_i w_rj + d_j w_ir - d_r w_ij), all k, i, j.

    Over the one denominator D of w = W/D, each bracket is B_rij/D^2 and
    w^{-1} = D adj(W)/det(W), so every gamma^k_ij is
    sum_r adj(W)^{kr} B_rij over E = 2 D det(W)."""
    W = {key: f.numer for key, f in w.items()}
    adj = {(1, 1): W[2, 2], (2, 2): W[1, 1], (1, 2): -W[1, 2], (2, 1): -W[1, 2]}
    e = 2 * w[(1, 1)].denom * (W[1, 1] * W[2, 2] - W[1, 2] * W[1, 2])

    def bracket(r, i, j):
        return (w[(r, j)].diff(XS[i - 1]) + w[(i, r)].diff(XS[j - 1])
                - w[(i, j)].diff(XS[r - 1])).numer

    return {
        (k, i, j): _Frac(sum((adj[k, r] * bracket(r, i, j) for r in (1, 2)), RING.zero), e)
        for k in (1, 2) for i in (1, 2) for j in (1, 2)
    }


class TestLeviCivita:
    @METRIC_ORACLE
    @given(*rational_metric_parts)
    def test_rational_metric_with_parameter(self, parts, param_slot):
        metric, w = _rational_metric(parts, param_slot)
        gamma = _levi_civita(w)
        conn = christoffel(metric)
        for k, i, j in KEYS:
            assert_same(conn.gamma(k, i, j), gamma[(k, i, j)])
        assert_riemann(gamma, conn, metric)

    @METRIC_ORACLE
    @given(*rational_metric_parts)
    def test_c1_is_r1212_over_det(self, parts, param_slot):
        # K = R_1212 / det(w) with R_1212 = w_1k rho^k_{2,12}: the second-kind chain
        metric, w = _rational_metric(parts, param_slot)
        gamma = _levi_civita(w)
        r1212 = w[(1, 1)] * _rho(gamma, 1, 2) + w[(1, 2)] * _rho(gamma, 2, 2)
        det = w[(1, 1)] * w[(2, 2)] - w[(1, 2)] * w[(1, 2)]
        report = metric_constants(metric)
        assert_same(report.constants["c1"] if report.integrable else report.residual, r1212 / det)


class TestStandaloneConnection:
    @ORACLE
    @given(st.lists(st.tuples(linear, linear), min_size=6, max_size=6))
    def test_six_denominators(self, parts):
        comps, gamma = {}, {}
        for (k, i, j), (num, den) in zip(KEYS, parts):
            (num_text, num_ref), (den_text, den_ref) = _form(num), _form(den)
            comps[(k, i, j)] = parse_in(f"{num_text}/{den_text}", CTX)
            gamma[(k, i, j)] = gamma[(k, j, i)] = num_ref / den_ref
        assume(_distinct_denominators(comps.values()))
        assert_riemann(gamma, Connection2D(comps))
