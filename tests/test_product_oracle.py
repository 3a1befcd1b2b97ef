"""Differential tests of the product-triple constants against sympy.

The reference solves the six first-derivative relations of a product triple
(w1, w2, w3) by Cramer's rule on the 2x2 system in (w4, w7), forms w5 and w8,
and takes the textbook quotients

    c'  = (d2 w4 - d1 w5) / (w3 (1 - w1 w2)),
    c'' = (d1 w7 - d2 w8) / (w3 (1 - w1 w2))

in sympy's rational function field ``sympy.field``, which cancels by a
polynomial gcd after every operation.  The engine's report carries c' (as
the constant c or as the residual) and the Jacobi residual c' - c'', so both
quotients are checked.  Components are quotients of linear forms drawn from
one small pool, so their denominators share factors, and may carry the
parameter a; w1 or w2 may be 0.  Engine inputs are parsed from text, the
reference built from the same integers.  Cases are drawn by hypothesis with a
fixed derivation (``derandomize``); without sympy or hypothesis the module is
skipped.
"""

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

from hypothesis import assume, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from helpers import unpacked  # noqa: E402
from oracle_support import oracle_settings  # noqa: E402
from vessiot.lieops import ObjectKind, section  # noqa: E402
from vessiot.structure import product_constants  # noqa: E402
from vessiot.symexpr import Context, parse_in  # noqa: E402

CTX = Context(2, ["a"])
FIELD, X1, X2, A = sympy.field("x1,x2,a", sympy.QQ)

ORACLE = oracle_settings(15)

small = st.integers(-3, 3)
# (c0, c1, c2): the linear form c0 + c1*x1 + c2*x2, not constant
linear = st.tuples(small, small, small).filter(lambda f: f[1] or f[2])
# three linear forms shared by all components
forms_pool = st.lists(linear, min_size=3, max_size=3)
# (k, numerator form or None, denominator form or None, times a)
component = st.tuples(
    small.filter(bool),
    st.one_of(st.none(), st.integers(0, 2)),
    st.one_of(st.none(), st.integers(0, 2)),
    st.booleans(),
)


def _build(forms, spec):
    """(text, field element) of k * [a] * L_num / L_den, or 0 for None."""
    if spec is None:
        return "0", FIELD.zero
    k, num, den, param = spec
    text, ref = str(k), FIELD(k)
    if param:
        text, ref = f"{text}*a", ref * A
    for index, sign in ((num, "*"), (den, "/")):
        if index is not None:
            c = forms[index]
            text += f"{sign}({c[0]} + {c[1]}*x1 + {c[2]}*x2)"
            form = c[0] + c[1] * X1 + c[2] * X2
            ref = ref * form if sign == "*" else ref / form
    return text, ref


def _as_field(p):
    return sum(
        (c * X1 ** m[0] * X2 ** m[1] * A ** m[2] for m, c in unpacked(p, 3)), FIELD.zero
    )


def _same(ours, reference) -> bool:
    return _as_field(ours.num) / _as_field(ours.den) - reference == 0


def _constant(f) -> bool:
    return f.diff(X1) == 0 and f.diff(X2) == 0


def reference_constants(w1, w2, w3, x1=X1, x2=X2):
    """(c', c'') from the six relations, solved by Cramer's rule: field
    elements by default, any sympy values differentiable in x1 and x2."""
    d1, d2 = (lambda f: f.diff(x1)), (lambda f: f.diff(x2))
    witness = w3 * (1 - w1 * w2)
    r1 = d1(w3) / w3 - d2(w2)
    r2 = d2(w3) / w3 - d1(w1)
    det = 1 - w1 * w2
    w4 = (r1 - w2 * r2) / det
    w7 = (r2 - w1 * r1) / det
    w5 = d1(w1) + w1 * w4
    w8 = d2(w2) + w2 * w7
    return (d2(w4) - d1(w5)) / witness, (d1(w7) - d2(w8)) / witness


def assert_matches(specs, forms) -> None:
    texts, refs = zip(*(_build(forms, spec) for spec in specs))
    w1, w2, w3 = refs
    assume(w3 * (1 - w1 * w2) != 0)
    c_prime, c_second = reference_constants(w1, w2, w3)
    report = product_constants(
        section(ObjectKind.PRODUCT_TRIPLE_2D, [parse_in(t, CTX) for t in texts])
    )
    (jacobi,) = report.jacobi_residuals
    assert _same(jacobi, c_prime - c_second)
    if _constant(c_prime) and _constant(c_second):
        assert report.integrable
        assert _same(report.constants["c"], c_prime)
    else:
        assert not report.integrable
        assert _same(report.residual, c_second if _constant(c_prime) else c_prime)


class TestProductConstants:
    @ORACLE
    @given(forms_pool, st.one_of(st.none(), component), st.one_of(st.none(), component),
           component)
    def test_shared_denominators(self, forms, w1, w2, w3):
        assert_matches((w1, w2, w3), forms)

    @ORACLE
    @given(forms_pool, component, component, st.booleans())
    def test_one_of_w1_w2_zero(self, forms, other, w3, first_zero):
        specs = (None, other, w3) if first_zero else (other, None, w3)
        assert_matches(specs, forms)

    def test_constants_agree_identically(self):
        # c' = c'' for undefined w1, w2, w3: the engine reduces one curl
        # quotient when the two come out as the same pair
        x1, x2 = sympy.symbols("x1 x2")
        w1, w2, w3 = (sympy.Function(name)(x1, x2) for name in ("w1", "w2", "w3"))
        c_prime, c_second = reference_constants(w1, w2, w3, x1, x2)
        assert sympy.cancel(c_prime - c_second) == 0
