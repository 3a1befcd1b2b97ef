"""Differential tests of denominators kept as products of linear forms.

Each operand is a random polynomial over the parsed reciprocal of 1 to 3
random linear forms in x1, x2 and one parameter, each to a power from 1 to 4,
so its denominator carries a factorization (``Expression.factors``); the
numerator holds a power of one of those forms, so that part of it cancels.  Sums,
differences, products, quotients and derivatives of such operands are checked
against sympy's ``cancel`` of the unreduced pair; each result's factorization must multiply back to
its denominator; and the same operation on the same pairs built through
``Expression(context, num, den)``, which carries none and runs the general
gcd, must give the same expression and the same text.  sympy and hypothesis
are test-only dependencies: without them the module is skipped.
"""

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from helpers import packed, unpacked  # noqa: E402
from oracle_support import oracle_settings  # noqa: E402
from vessiot.symexpr import Context, Expression, _pconst, parse_in  # noqa: E402

CTX = Context(2, ["a"])
SYMS = sympy.symbols(" ".join(CTX.names))
VARIABLES = ("x1", "x2", "a")

ORACLE = oracle_settings(20)

_coefficients = st.integers(-3, 3)
# (x1, x2, a, constant) coefficients of a nonconstant linear form
_linear_forms = st.tuples(_coefficients, _coefficients, _coefficients, _coefficients).filter(
    lambda c: any(c[:3])
)


def linear_text(coefficients) -> str:
    terms = [f"{c}*{v}" for c, v in zip(coefficients, VARIABLES) if c]
    return "(" + " + ".join(terms + [str(coefficients[3])]) + ")"


@st.composite
def factored(draw) -> Expression:
    """A random polynomial, or a linear form, times a power (0 to 4) of one of
    the L_i, times the parsed 1/(L1^k1*...): an expression whose denominator
    has a factorization, often after part of it has cancelled."""
    powers = draw(st.lists(st.tuples(_linear_forms, st.integers(1, 4)), min_size=1, max_size=3))
    divisor = "*".join(f"{linear_text(c)}^{k}" for c, k in powers)
    reciprocal = parse_in(f"1/({divisor})", CTX)
    if draw(st.booleans()):
        numerator = parse_in(linear_text(draw(_linear_forms)), CTX)
    else:
        monomials = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1))
        terms = draw(st.dictionaries(monomials, _coefficients.filter(bool), min_size=1, max_size=4))
        numerator = Expression(CTX, packed(terms), _pconst(1))
    shared = linear_text(draw(st.sampled_from(powers))[0])
    numerator = numerator * parse_in(f"{shared}^{draw(st.integers(0, 4))}", CTX)
    expr = numerator * reciprocal
    assert expr.factors is not None
    return expr


def expand(factors):
    c, bases = factors
    p = _pconst(c)
    for base, k in bases.items():
        assert base.total_degree() == 1 and base.leading()[1] > 0
        p = p * base.pow(k)
    return p


def poly(p) -> sympy.Poly:
    """A kernel polynomial as a sympy Poly over the integers."""
    return sympy.Poly.from_dict(dict(unpacked(p, len(SYMS))) or {(0, 0, 0): 0}, *SYMS)


def check(result: Expression, reference: tuple, plain: Expression) -> None:
    """result against sympy's cancel of the unreduced reference pair, its
    factorization against its denominator, and against the same operation
    on unfactored operands."""
    p, q = reference[0].cancel(reference[1], include=True)
    num, den = poly(result.num), poly(result.den)
    assert num * q == p * den
    assert num.gcd(den).is_ground
    if result.factors is not None:
        assert expand(result.factors).terms == result.den.terms
    assert result == plain and str(result) == str(plain)


def unfactored(e: Expression) -> Expression:
    return Expression(e.context, e.num, e.den)


class TestFactoredDenominators:
    @ORACLE
    @given(factored(), factored())
    def test_arithmetic(self, e, f):
        (en, ed), (fn, fd) = (poly(e.num), poly(e.den)), (poly(f.num), poly(f.den))
        pe, pf = unfactored(e), unfactored(f)
        for result, reference, plain in (
            (e + f, (en * fd + fn * ed, ed * fd), pe + pf),
            (e - f, (en * fd - fn * ed, ed * fd), pe - pf),
            (e * f, (en * fn, ed * fd), pe * pf),
            (e / f, (en * fd, ed * fn), pe / pf),
            (f / e, (fn * ed, fd * en), pf / pe),
        ):
            check(result, reference, plain)
        # linear-factored operands keep a factorization through +, - and *
        assert all(r.factors is not None for r in (e + f, e - f, e * f, -e))

    @ORACLE
    @given(factored(), st.sampled_from([1, 2]))
    def test_diff(self, e, i):
        n, d, x = poly(e.num), poly(e.den), SYMS[i - 1]
        result = e.diff(i)
        check(result, (n.diff(x) * d - n * d.diff(x), d * d), unfactored(e).diff(i))
        assert result.factors is not None
