"""Differential tests of the polynomial kernel against sympy.

Operands are random integer polynomials in x1, x2 and one parameter (and, for
arithmetic, diff and cancel, also in x1, x2 and two parameters, so that two
layouts of packed monomial keys are checked), drawn by
hypothesis with a fixed derivation (``derandomize``), so every run checks the
same cases; the gcd margin tests add shared-factor pairs from seeded
``random.Random`` generators.  Negation and the operand 1/1 skip the
normalizer; their results are checked against what it gives, over seeded
``helpers.random_expression`` operands.  sympy and hypothesis are test-only dependencies: without them the
module is skipped and the runtime stays standard-library only.
"""

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

import random  # noqa: E402

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from helpers import packed, random_expression, random_poly, shared_factor_pair  # noqa: E402
from oracle_support import expr_sympy, oracle_settings, poly_sympy  # noqa: E402
from vessiot import symexpr  # noqa: E402
from vessiot.errors import InputTooLarge  # noqa: E402
from vessiot.symexpr import Context, Expression, _cancel, _pconst, _Poly, _primitive  # noqa: E402

CTX = Context(2, ["a"])
SYMS = sympy.symbols(" ".join(CTX.names))

ORACLE = oracle_settings(40)


def _polys(monomials, min_size=0):
    coefficients = st.integers(-12, 12).filter(bool)
    return st.dictionaries(monomials, coefficients, min_size=min_size, max_size=5).map(packed)


def _expressions(monomials, ctx=CTX):
    return st.builds(
        lambda n, d: Expression(ctx, n, d), _polys(monomials), _polys(monomials, 1)
    )


_monomials = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2))
nonzero_polys = _polys(_monomials, 1)
expressions = _expressions(_monomials)
# no coordinate at all: constant, though parameters may occur
parameter_expressions = _expressions(st.tuples(st.just(0), st.just(0), st.integers(0, 2)))


def assert_same_function(e: Expression, reference) -> None:
    assert sympy.cancel(expr_sympy(e) - reference) == 0
    # the stored pair is reduced: no common factor beyond a constant
    syms = sympy.symbols(e.context.names)
    assert sympy.gcd(poly_sympy(e.num, syms), poly_sympy(e.den, syms)).is_number


def is_square_sympy(p: _Poly) -> bool:
    """p = s^2 for an integer polynomial s, decided by sympy's factorization."""
    if not p.terms:
        return True
    coeff, factors = sympy.factor_list(poly_sympy(p, SYMS))
    if coeff < 0 or any(k % 2 for _, k in factors):
        return False
    return sympy.sqrt(coeff).is_rational


class TestArithmetic:
    @ORACLE
    @given(expressions, expressions)
    def test_add_sub_mul(self, e, f):
        se, sf = expr_sympy(e), expr_sympy(f)
        assert_same_function(e + f, sympy.cancel(se + sf))
        assert_same_function(e - f, sympy.cancel(se - sf))
        assert_same_function(e * f, sympy.cancel(se * sf))

    @ORACLE
    @given(expressions, expressions)
    def test_div(self, e, f):
        assume(not f.is_zero())
        assert_same_function(e / f, sympy.cancel(expr_sympy(e) / expr_sympy(f)))


# denominators with a repeated factor, so that d and d' share a factor
_X1 = packed({(1, 0, 0): 1})
_X1_PLUS_X2 = packed({(1, 0, 0): 1, (0, 1, 0): 1})
_multilinear_monomials = st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1))
_multilinear = _polys(_multilinear_monomials, 1)
repeated_denominators = st.one_of(
    st.just(_X1_PLUS_X2.pow(3) * _X1.pow(2)),
    st.builds(lambda f, k, g: f.pow(k) * g, _multilinear, st.integers(2, 3), _multilinear),
)
diff_operands = st.one_of(
    expressions,
    st.builds(lambda n, d: Expression(CTX, n, d), _polys(_monomials), repeated_denominators),
)


class TestDiff:
    @ORACLE
    @given(diff_operands, st.sampled_from([1, 2]))
    def test_against_sympy(self, e, i):
        reference = sympy.cancel(sympy.diff(expr_sympy(e), SYMS[i - 1]))
        # also asserts that the result pair is coprime
        assert_same_function(e.diff(i), reference)


class TestGcd:
    @ORACLE
    @given(nonzero_polys, nonzero_polys, nonzero_polys)
    def test_against_sympy_up_to_constant(self, common, p, q):
        f, g = common * p, common * q
        ours = poly_sympy(_cancel(f, g)[2], SYMS)
        theirs = sympy.gcd(poly_sympy(f, SYMS), poly_sympy(g, SYMS))
        ratio = sympy.cancel(ours / theirs)
        assert ratio.is_number and ratio != 0


def _cancel_pairs(monomials):
    """Operands with a shared factor and non-unit, possibly negative, content;
    the first one may be zero."""
    contents = st.integers(-6, 6).filter(bool)
    return st.builds(
        lambda common, p, q, k, m: (common * p * _pconst(k), common * q * _pconst(m)),
        _polys(monomials, 1), _polys(monomials), _polys(monomials, 1), contents, contents,
    )


class TestCancel:
    """_cancel(a, b) == (a/g, b/g, g), whichever path builds the quotients."""

    @staticmethod
    def check(a, b, syms=SYMS):
        qa, qb, g = _cancel(a, b)
        assert qa * g == a and qb * g == b
        # g is primitive with a positive leading coefficient
        assert _primitive(g)[0] == 1
        theirs = sympy.gcd(poly_sympy(a, syms), poly_sympy(b, syms))
        ratio = sympy.cancel(poly_sympy(g, syms) / theirs)
        assert ratio.is_number and ratio != 0
        assert sympy.gcd(poly_sympy(qa, syms), poly_sympy(qb, syms)).is_number

    @ORACLE
    @given(_cancel_pairs(_monomials))
    def test_against_sympy(self, pair):
        self.check(*pair)

    @ORACLE
    @given(nonzero_polys, nonzero_polys)
    def test_divisor_of_the_other(self, f, g):
        # the gcd is f itself: its cofactor 1 needs no division of f by f
        assume(len(f.terms) > 1 and abs(_primitive(f)[0]) == 1)
        same = []
        divexact = _Poly.divexact

        def recording(p, q):
            same.append(p == q)
            return divexact(p, q)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_Poly, "divexact", recording)
            for a, b in ((f, f * g), (f * g, f)):
                qa, qb, _ = _cancel(a, b)
                reference = sympy.cancel(poly_sympy(a, SYMS) / poly_sympy(b, SYMS))
                assert sympy.cancel(poly_sympy(qa, SYMS) / poly_sympy(qb, SYMS) - reference) == 0
                self.check(a, b)
        assert not any(same)

    # (family, seed) pairs whose gcd needs a second evaluation point (large 533
    # and power 488 a third), found by running with _HEU_TRIES = 1
    RETRIED = [("shared", 7), ("shared", 105), ("large", 18), ("large", 533),
               ("power", 149), ("power", 488)]

    @pytest.mark.parametrize("family, seed", RETRIED)
    def test_retried_evaluation_points(self, family, seed, monkeypatch):
        a, b = FAMILIES[family](random.Random(seed))
        self.check(a, b)
        monkeypatch.setattr(symexpr, "_HEU_TRIES", 1)
        with pytest.raises(InputTooLarge, match="gcd"):
            _cancel(a, b)


_X1_PLUS_X2_PLUS_1 = packed({(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 0): 1})


def _large_gcd(rng):
    g = random_poly(rng, 4, bound=10**6)
    return g * random_poly(rng, 4), g * random_poly(rng, 4)


def _power_gcd(rng):
    g = _X1_PLUS_X2_PLUS_1.pow(rng.randint(2, 8)) * random_poly(rng, 2)
    a = g * random_poly(rng, 3)
    return a, g * _X1_PLUS_X2_PLUS_1.pow(rng.randint(0, 3)) * random_poly(rng, 3)


def _dense_gcd(rng):
    g, a, b = (random_poly(rng, 27, exps=(2, 2, 2)) for _ in range(3))
    return g * a, g * b


# shared-factor pairs by kind of gcd: small random, coefficients up to 10^6,
# powers of x1 + x2 + 1, dense in all three slots
FAMILIES = {
    "shared": shared_factor_pair,
    "large": _large_gcd,
    "power": _power_gcd,
    "dense": _dense_gcd,
}


def _heuristic(a: _Poly, b: _Poly) -> None:
    """Run GCDHEU itself on the primitive parts of a and b, when neither is a
    single term, zero, or the other's primitive part: ``_cancel`` settles
    those before any gcd, and a trial division may settle more."""
    if len(a.terms) < 2 or len(b.terms) < 2:
        return
    (_, pa), (_, pb) = _primitive(a), _primitive(b)
    if pa.terms == pb.terms:
        return
    found = symexpr._heu_gcd(pa, pb)
    assert found is not None, "the heuristic gave up"
    g, qa, qb = found
    assert qa * g == pa and qb * g == pb


class TestHeuristicMargin:
    """GCDHEU settles every pair below within 3 of its _HEU_TRIES = 6
    evaluation points (at most 3 over 3,000 seeds of each family), so a
    weaker choice of evaluation point fails here rather than at users as
    InputTooLarge.  The heuristic is called directly, since ``_cancel``
    settles some of these pairs by a trial division first."""

    @pytest.fixture(autouse=True)
    def three_tries(self, monkeypatch):
        monkeypatch.setattr(symexpr, "_HEU_TRIES", 3)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_seeded_families(self, family):
        for seed in range(400):
            _heuristic(*FAMILIES[family](random.Random(seed)))

    @settings(ORACLE, max_examples=200)
    @given(_cancel_pairs(_monomials))
    def test_oracle_pairs(self, pair):
        _heuristic(*pair)


def _forbidden(f, g):
    raise AssertionError("heuristic gcd called")


_contents = st.integers(-6, 6).filter(bool)


@st.composite
def _linear(draw):
    """A primitive polynomial of total degree 1 with at least two terms."""
    coefficients = draw(st.lists(st.integers(-6, 6), min_size=4, max_size=4))
    terms = {m: c for m, c in zip([(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)], coefficients) if c}
    assume(len(terms) > 1 and any(sum(m) for m in terms))
    return _primitive(packed(terms))[1] * _pconst(draw(st.sampled_from([1, -1])))


class TestTrialDivision:
    """Pairs whose gcd is one operand up to its content, or 1 beside a linear
    operand: ``_cancel`` agrees with sympy and never runs the heuristic."""

    @ORACLE
    @given(nonzero_polys, nonzero_polys, _contents, _contents)
    def test_divisor_with_contents(self, f, g, c1, c2):
        a, b = f * _pconst(c1), f * g * _pconst(c2)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(symexpr, "_heu_gcd", _forbidden)
            for pair in ((a, b), (b, a)):
                TestCancel.check(*pair)

    @ORACLE
    @given(_linear(), nonzero_polys, _contents)
    def test_linear_operand(self, s, t, c):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(symexpr, "_heu_gcd", _forbidden)
            for other in (t, s * t * _pconst(c)):
                TestCancel.check(s, other)
                TestCancel.check(other, s)


class TestDivexact:
    @ORACLE
    @given(nonzero_polys, nonzero_polys)
    def test_divisible(self, p, q):
        assert (p * q).divexact(q) == p

    @ORACLE
    @given(
        st.one_of(
            st.tuples(nonzero_polys, nonzero_polys),
            # the rational quotient p/k has integer coefficients iff k divides p
            st.builds(
                lambda p, q, k: (p * q, q * _pconst(k)),
                nonzero_polys, nonzero_polys, st.integers(2, 4),
            ),
        )
    )
    def test_against_sympy(self, pair):
        f, g = pair
        num, den = sympy.cancel(poly_sympy(f, SYMS) / poly_sympy(g, SYMS)).as_numer_denom()
        if den == 1:
            assert poly_sympy(f.divexact(g), SYMS) - num == 0
        else:
            # not a polynomial, or a polynomial without integer coefficients
            with pytest.raises(ArithmeticError):
                f.divexact(g)


class TestSqrt:
    @ORACLE
    @given(expressions)
    def test_squares(self, e):
        root = (e * e).sqrt()
        assert root is not None
        assert root * root == e * e

    @ORACLE
    @given(expressions)
    def test_square_detection(self, e):
        expected = is_square_sympy(e.num) and is_square_sympy(e.den)
        root = e.sqrt()
        assert (root is not None) == expected
        if root is not None:
            assert root * root == e


class TestIsConstant:
    @ORACLE
    @given(st.one_of(expressions, parameter_expressions))
    def test_matches_vanishing_derivatives(self, e):
        expected = all(e.diff(i).is_zero() for i in range(1, CTX.n + 1))
        assert e.is_constant() == expected


# x1, x2 and two parameters: five fields in every packed key
CTX2 = Context(2, ["a", "b"])
SYMS2 = sympy.symbols(CTX2.names)
_monomials2 = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
expressions2 = _expressions(_monomials2, CTX2)
_multilinear2 = _polys(st.tuples(*[st.integers(0, 1)] * 4), 1)
diff_operands2 = st.one_of(
    expressions2,
    st.builds(
        lambda n, f, k, g: Expression(CTX2, n, f.pow(k) * g),
        _polys(_monomials2), _multilinear2, st.integers(2, 3), _multilinear2,
    ),
)


class TestTwoParameters:
    """The arithmetic, diff and cancel checks above, in a second key layout."""

    @ORACLE
    @given(expressions2, expressions2)
    def test_arithmetic(self, e, f):
        se, sf = expr_sympy(e), expr_sympy(f)
        assert_same_function(e + f, sympy.cancel(se + sf))
        assert_same_function(e - f, sympy.cancel(se - sf))
        assert_same_function(e * f, sympy.cancel(se * sf))
        if not f.is_zero():
            assert_same_function(e / f, sympy.cancel(se / sf))

    @ORACLE
    @given(diff_operands2, st.sampled_from([1, 2]))
    def test_diff(self, e, i):
        reference = sympy.cancel(sympy.diff(expr_sympy(e), SYMS2[i - 1]))
        assert_same_function(e.diff(i), reference)

    @ORACLE
    @given(_cancel_pairs(_monomials2))
    def test_cancel(self, pair):
        TestCancel.check(*pair, syms=SYMS2)


class TestExpressionFastPaths:
    """-x stores (-num, den, factors) as they are, and the operand 1/1 of a
    product or quotient gives the other operand."""

    FIXED = oracle_settings(300)
    seeds = st.integers(min_value=0, max_value=2**32 - 1)

    @FIXED
    @given(seed=seeds)
    def test_negation_keeps_the_pair(self, seed):
        x = random_expression(CTX, random.Random(seed))
        negated = -x
        assert negated.den == x.den and negated.factors == x.factors
        assert negated == Expression(CTX, -x.num, x.den)
        assert -negated == x
        assert (x - x).is_zero()

    @FIXED
    @given(seed=seeds)
    def test_unit_operand_gives_the_other(self, seed):
        x = random_expression(CTX, random.Random(seed))
        one = CTX.one()
        assert x * one is x and x / one is x
        assert one * x == x
