"""Differential tests of the Christoffel -> Riemann chain against sympy.

Inputs are rational metrics and standalone connections whose components have
different denominators, so the common denominator of the chain is a product
of distinct factors.  Every Christoffel and Riemann component is compared with
the textbook formula evaluated in sympy's rational function field
``sympy.field``, which cancels by a polynomial gcd after every operation, as
``sympy.cancel`` does; ``sympy.cancel`` of the whole nested Riemann expression
takes minutes on these inputs.  The engine inputs are parsed from text, the
reference inputs built from the same integers, so neither side sees the
other's canonical form.  Cases are drawn by hypothesis with a fixed derivation
(``derandomize``); without sympy or hypothesis the module is skipped.
"""

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

from hypothesis import Phase, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from vessiot.curvature import IJ, Connection2D, Metric2D, christoffel, riemann  # noqa: E402
from vessiot.symexpr import Context, parse_in  # noqa: E402

CTX = Context(2, ["a"])
FIELD, X1, X2, A = sympy.field("x1,x2,a", sympy.QQ)
XS = (X1, X2)
KEYS = [(k, i, j) for k in (1, 2) for i, j in IJ]

# no shrinking: a failing example reports at once instead of after minutes of
# sympy calls on ever smaller candidates
ORACLE = settings(
    max_examples=15, derandomize=True, database=None, deadline=None,
    phases=(Phase.explicit, Phase.generate),
)
# the reference Riemann tensor of a rational metric costs sympy 2-3 s
METRIC_ORACLE = settings(ORACLE, max_examples=5)

small = st.integers(-3, 3)
# (c0, c1, c2): the linear form c0 + c1*x1 + c2*x2, not constant
linear = st.tuples(small, small, small).filter(lambda f: f[1] or f[2])


def _form(c):
    return f"({c[0]} + {c[1]}*x1 + {c[2]}*x2)", c[0] + c[1] * X1 + c[2] * X2


def _as_field(p):
    return sum(
        (c * X1 ** m[0] * X2 ** m[1] * A ** m[2] for m, c in p.terms.items()), FIELD.zero
    )


def assert_same(ours, reference) -> None:
    assert _as_field(ours.num) / _as_field(ours.den) - reference == 0


def _distinct_denominators(exprs) -> bool:
    dens = [e.den for e in exprs]
    return all(d.used_slots() for d in dens) and len(set(dens)) == len(dens)


def assert_riemann(conn: Connection2D, gamma) -> None:
    """rho^k_{l,12} = d_1 g^k_l2 - d_2 g^k_l1 + g^r_l2 g^k_r1 - g^r_l1 g^k_r2."""
    ours = riemann(conn).riemann
    for k in (1, 2):
        for l in (1, 2):
            rho = gamma[(k, l, 2)].diff(X1) - gamma[(k, l, 1)].diff(X2)
            for r in (1, 2):
                rho += gamma[(r, l, 2)] * gamma[(k, r, 1)] - gamma[(r, l, 1)] * gamma[(k, r, 2)]
            assert_same(ours[(k, l, 1, 2)], rho)


class TestLeviCivita:
    @METRIC_ORACLE
    @given(
        st.lists(st.tuples(small.filter(bool), linear), min_size=3, max_size=3),
        st.integers(0, 2),
    )
    def test_rational_metric_with_parameter(self, parts, param_slot):
        texts, refs = [], []
        for slot, (c, den) in enumerate(parts):
            text, ref = _form(den)
            if slot == param_slot:
                text, ref = f"({text} + a)", ref + A
            texts.append(f"{c}/{text}")
            refs.append(c / ref)
        metric = Metric2D(*(parse_in(t, CTX) for t in texts))
        assume(_distinct_denominators([metric.w11, metric.w22, metric.w12]))
        assume(not metric.det().is_zero())
        w11, w22, w12 = refs
        w = {(1, 1): w11, (2, 2): w22, (1, 2): w12, (2, 1): w12}
        det = w11 * w22 - w12 * w12
        inverse = {(1, 1): w22 / det, (2, 2): w11 / det, (1, 2): -w12 / det}
        inverse[(2, 1)] = inverse[(1, 2)]
        gamma = {
            (k, i, j): sum(
                (
                    inverse[(k, r)]
                    * (w[(r, j)].diff(XS[i - 1]) + w[(i, r)].diff(XS[j - 1])
                       - w[(i, j)].diff(XS[r - 1]))
                    for r in (1, 2)
                ),
                FIELD.zero,
            ) / 2
            for k in (1, 2) for i in (1, 2) for j in (1, 2)
        }
        conn = christoffel(metric)
        for k, i, j in KEYS:
            assert_same(conn.gamma(k, i, j), gamma[(k, i, j)])
        assert_riemann(conn, gamma)


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
        assert_riemann(Connection2D(comps), gamma)
