"""Differential tests of the polynomial kernel against sympy.

Operands are random integer polynomials in x1, x2 and one parameter, drawn by
hypothesis with a fixed derivation (``derandomize``), so every run checks the
same cases.  sympy and hypothesis are test-only dependencies: without them the
module is skipped and the runtime stays standard-library only.
"""

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from vessiot.symexpr import Context, Expression, _Poly, _poly_gcd  # noqa: E402

CTX = Context(2, ["a"])
SYMS = sympy.symbols(" ".join(CTX.names))

ORACLE = settings(max_examples=40, derandomize=True, database=None, deadline=None)


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


class TestGcd:
    @ORACLE
    @given(nonzero_polys, nonzero_polys, nonzero_polys)
    def test_against_sympy_up_to_constant(self, common, p, q):
        f, g = common * p, common * q
        ours = poly_sympy(_poly_gcd(f, g))
        theirs = sympy.gcd(poly_sympy(f), poly_sympy(g))
        ratio = sympy.cancel(ours / theirs)
        assert ratio.is_number and ratio != 0


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
