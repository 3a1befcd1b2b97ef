"""Differential tests of the polynomial kernel against sympy.

Operands are random integer polynomials in x1, x2 and one parameter, drawn by
hypothesis with a fixed derivation (``derandomize``), so every run checks the
same cases; the gcd margin tests add shared-factor pairs from seeded
``random.Random`` generators.  sympy and hypothesis are test-only dependencies: without them the
module is skipped and the runtime stays standard-library only.
"""

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

import random  # noqa: E402

from hypothesis import Phase, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from helpers import random_poly, shared_factor_pair  # noqa: E402
from vessiot import symexpr  # noqa: E402
from vessiot.errors import InputTooLarge  # noqa: E402
from vessiot.symexpr import Context, Expression, _cancel, _Poly, _primitive  # noqa: E402

CTX = Context(2, ["a"])
SYMS = sympy.symbols(" ".join(CTX.names))

# no shrinking: a failing example reports at once instead of after minutes of
# sympy calls on ever smaller candidates
ORACLE = settings(
    max_examples=40, derandomize=True, database=None, deadline=None,
    phases=(Phase.explicit, Phase.generate),
)


def _polys(monomials, min_size=0):
    coefficients = st.integers(-12, 12).filter(bool)
    return st.dictionaries(monomials, coefficients, min_size=min_size, max_size=5).map(_Poly)


def _expressions(monomials):
    return st.builds(
        lambda n, d: Expression(CTX, n, d), _polys(monomials), _polys(monomials, 1)
    )


_monomials = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2))
nonzero_polys = _polys(_monomials, 1)
expressions = _expressions(_monomials)
# no coordinate at all: constant, though parameters may occur
parameter_expressions = _expressions(st.tuples(st.just(0), st.just(0), st.integers(0, 2)))


def poly_sympy(p: _Poly):
    return sympy.Add(
        *(c * sympy.Mul(*(s**e for s, e in zip(SYMS, m))) for m, c in p.terms.items())
    )


def expr_sympy(e: Expression):
    return poly_sympy(e.num) / poly_sympy(e.den)


def assert_same_function(e: Expression, reference) -> None:
    assert sympy.cancel(expr_sympy(e) - reference) == 0
    # the stored pair is reduced: no common factor beyond a constant
    assert sympy.gcd(poly_sympy(e.num), poly_sympy(e.den)).is_number


def is_square_sympy(p: _Poly) -> bool:
    """p = s^2 for an integer polynomial s, decided by sympy's factorization."""
    if not p.terms:
        return True
    coeff, factors = sympy.factor_list(poly_sympy(p))
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
_X1 = _Poly({(1, 0, 0): 1})
_X1_PLUS_X2 = _Poly({(1, 0, 0): 1, (0, 1, 0): 1})
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
        ours = poly_sympy(_cancel(f, g)[2])
        theirs = sympy.gcd(poly_sympy(f), poly_sympy(g))
        ratio = sympy.cancel(ours / theirs)
        assert ratio.is_number and ratio != 0


def _cancel_pairs(monomials):
    """Operands with a shared factor and non-unit, possibly negative, content;
    the first one may be zero."""
    contents = st.integers(-6, 6).filter(bool)
    return st.builds(
        lambda common, p, q, k, m: (common * p * _const(k), common * q * _const(m)),
        _polys(monomials, 1), _polys(monomials), _polys(monomials, 1), contents, contents,
    )


def _const(k: int) -> _Poly:
    return _Poly({(0, 0, 0): k})


class TestCancel:
    """_cancel(a, b) == (a/g, b/g, g), whichever path builds the quotients."""

    @staticmethod
    def check(a, b):
        qa, qb, g = _cancel(a, b)
        assert qa * g == a and qb * g == b
        # g is primitive with a positive leading coefficient
        assert _primitive(g)[0] == 1
        theirs = sympy.gcd(poly_sympy(a), poly_sympy(b))
        ratio = sympy.cancel(poly_sympy(g) / theirs)
        assert ratio.is_number and ratio != 0
        assert sympy.gcd(poly_sympy(qa), poly_sympy(qb)).is_number

    @ORACLE
    @given(_cancel_pairs(_monomials))
    def test_against_sympy(self, pair):
        self.check(*pair)

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


_X1_PLUS_X2_PLUS_1 = _Poly({(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 0): 1})


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


class TestHeuristicMargin:
    """GCDHEU settles every pair below within 3 of its _HEU_TRIES = 6
    evaluation points (at most 3 over 3,000 seeds of each family), so a
    weaker choice of evaluation point fails here rather than at users as
    InputTooLarge."""

    @pytest.fixture(autouse=True)
    def three_tries(self, monkeypatch):
        monkeypatch.setattr(symexpr, "_HEU_TRIES", 3)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_seeded_families(self, family):
        for seed in range(400):
            a, b = FAMILIES[family](random.Random(seed))
            qa, qb, g = _cancel(a, b)
            assert qa * g == a and qb * g == b

    @settings(ORACLE, max_examples=200)
    @given(_cancel_pairs(_monomials))
    def test_oracle_pairs(self, pair):
        qa, qb, g = _cancel(*pair)
        assert qa * g == pair[0] and qb * g == pair[1]


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
                lambda p, q, k: (p * q, q * _Poly({(0, 0, 0): k})),
                nonzero_polys, nonzero_polys, st.integers(2, 4),
            ),
        )
    )
    def test_against_sympy(self, pair):
        f, g = pair
        num, den = sympy.cancel(poly_sympy(f) / poly_sympy(g)).as_numer_denom()
        if den == 1:
            assert poly_sympy(f.divexact(g)) - num == 0
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
