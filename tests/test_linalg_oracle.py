"""Differential tests of the two elimination routines of ``linalg`` against sympy.

``rank_rational`` is compared with sympy's rank on sparse rational matrices
of the shapes the jet calculus ranks (9x8, 36x30) and of shapes wider and
taller than square, with zero columns, duplicated rows and rows that are
combinations of others planted in them.  The rank is taken as
``Matrix.to_DM().rank()``, over sympy's exact domain QQ: ``Matrix.rank`` itself
ran for minutes on some 30x36 matrices of this kind.  Integer matrices up to
40x40, dense ones and rank-deficient products A*B, are compared the same way,
over ZZ.  ``solve_square`` is
compared with ``LUsolve`` on sparse rational systems, singular ones included,
and checked by substitution on small systems over the rational-function
field, whose singular cases sympy's determinant confirms.  The generic rank
``_reduce`` is compared with sympy's rank over the fraction field Q(x1, x2)
on polynomial matrices up to 5x6, some block-diagonal and some with a row
that is a polynomial combination of others.  Matrices are built from a seed and a shape that hypothesis draws with a fixed derivation
(``derandomize``); without sympy or hypothesis the module is skipped.
"""

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

import random  # noqa: E402
from fractions import Fraction  # noqa: E402

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from helpers import random_expression  # noqa: E402
from oracle_support import expr_sympy, oracle_settings  # noqa: E402
from vessiot import linalg  # noqa: E402
from vessiot.linalg import rank_rational, solve_square  # noqa: E402
from vessiot.symexpr import Context  # noqa: E402

CTX = Context(2)
ORACLE = oracle_settings(40)

seeds = st.integers(0, 2**32)
# the symbol matrices of jet_systems, wider and taller than square, and edge shapes
SHAPES = [(9, 8), (36, 30), (30, 36), (12, 12), (5, 11), (11, 5), (1, 6), (6, 1), (1, 1)]


def _entry(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))


def sparse_matrix(rng: random.Random, rows: int, cols: int, diagonal: bool = False) -> list:
    """A rows x cols rational matrix with a few nonzeros per row (and a nonzero
    permuted diagonal if asked), then some zero columns and some rows that
    repeat or combine others."""
    density = rng.choice([0.1, 0.2, 0.4, 0.7])
    m = [[_entry(rng) if rng.random() < density else Fraction(0) for _ in range(cols)]
         for _ in range(rows)]
    if diagonal:
        for r, c in enumerate(rng.sample(range(cols), min(rows, cols))):
            m[r][c] = _entry(rng)
    for c in rng.sample(range(cols), rng.choice([0, 0, 1, cols // 3])):
        for row in m:
            row[c] = Fraction(0)
    for _ in range(rng.choice([0, 0, 1, rows // 4])):
        r = rng.randrange(rows)
        a, b = rng.randrange(rows), rng.randrange(rows)
        if rng.random() < 0.5:
            m[r] = list(m[a])
        elif a != r and b != r:
            f, g = _entry(rng), _entry(rng)
            m[r] = [f * x + g * y for x, y in zip(m[a], m[b])]
    return m


def to_sympy(m: list):
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row] for row in m])


def sympy_rank(m: list) -> int:
    return to_sympy(m).to_DM().rank()


class TestRank:
    @settings(ORACLE, max_examples=80)
    @given(seeds, st.sampled_from(SHAPES), st.booleans())
    def test_rank_matches_sympy(self, seed, shape, diagonal):
        m = sparse_matrix(random.Random(seed), *shape, diagonal=diagonal)
        snapshot = [list(row) for row in m]
        assert rank_rational(m) == sympy_rank(m)
        assert m == snapshot  # the caller's rows are copied, never reduced in place


def integer_matrix(rng: random.Random, rows: int, cols: int, dense: bool) -> list:
    """A rows x cols integer matrix with entries of a random size: random
    ones, or a product A*B through an inner dimension at most min(rows, cols),
    so its rank is usually short of full."""
    bound = rng.choice([1, 9, 10**6, 10**30])
    if dense:
        return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    inner = rng.randint(0, min(rows, cols))
    a = [[rng.randint(-bound, bound) for _ in range(inner)] for _ in range(rows)]
    b = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(inner)]
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


class TestIntegerRank:
    @settings(ORACLE, max_examples=60)
    @given(seeds, st.integers(1, 40), st.integers(1, 40), st.booleans())
    def test_rank_matches_sympy(self, seed, rows, cols, dense):
        m = integer_matrix(random.Random(seed), rows, cols, dense)
        snapshot = [list(row) for row in m]
        assert rank_rational(m) == sympy.Matrix(m).to_DM().rank()
        assert m == snapshot  # the caller's rows are copied, never reduced in place


class TestSolveSquare:
    @ORACLE
    @given(seeds, st.integers(1, 10))
    def test_rational_system_matches_lusolve(self, seed, size):
        rng = random.Random(seed)
        a = sparse_matrix(rng, size, size, diagonal=True)
        b = [_entry(rng) if rng.random() < 0.5 else Fraction(0) for _ in range(size)]
        lhs = [[CTX.rational(v) for v in row] for row in a]
        rhs = [CTX.rational(v) for v in b]
        if sympy_rank(a) < size:
            with pytest.raises(ArithmeticError, match="singular"):
                solve_square(lhs, rhs)
            return
        reference = to_sympy(a).LUsolve(to_sympy([[v] for v in b]))
        x = solve_square(lhs, rhs)
        assert [v.constant_value() for v in x] == [Fraction(int(r.p), int(r.q)) for r in reference]

    @settings(ORACLE, max_examples=15)
    @given(seeds, st.integers(1, 3))
    def test_expression_system_substitutes_back(self, seed, size):
        rng = random.Random(seed)
        a = [[random_expression(CTX, rng, 2) for _ in range(size)] for _ in range(size)]
        b = [random_expression(CTX, rng, 2) for _ in range(size)]
        try:
            x = solve_square(a, b)
        except ArithmeticError:
            entries = [[expr_sympy(v) for v in row] for row in a]
            assert sympy.cancel(sympy.Matrix(entries).det()) == 0
            return
        for row, rhs in zip(a, b):
            total = CTX.zero()
            for coeff, value in zip(row, x):
                total = total + coeff * value
            assert total == rhs


def random_polynomial(rng: random.Random, degree: int) -> object:
    """A sum of one to three monomials in x1, x2 of total degree at most
    ``degree``, with small integer coefficients (possibly zero)."""
    x1, x2 = CTX.coordinate(1), CTX.coordinate(2)
    total = CTX.zero()
    for _ in range(rng.randint(1, 3)):
        a = rng.randint(0, degree)
        total = total + CTX.rational(rng.randint(-5, 5)) * x1**a * x2 ** rng.randint(0, degree - a)
    return total


def polynomial_matrix(rng: random.Random, rows: int, cols: int, shape: str) -> list:
    """A rows x cols matrix of polynomial Expressions: random entries, or two
    diagonal blocks with zeros off them, or a last row that is a polynomial
    combination of up to two earlier rows."""
    density = rng.choice([0.3, 0.6, 1.0])
    m = [[random_polynomial(rng, 2) if rng.random() < density else CTX.zero()
          for _ in range(cols)] for _ in range(rows)]
    if shape == "blocks" and rows > 1 and cols > 1:
        r, c = rng.randint(1, rows - 1), rng.randint(1, cols - 1)
        for i, row in enumerate(m):
            for j in range(cols):
                if (i < r) != (j < c):
                    row[j] = CTX.zero()
    elif shape == "combination" and rows > 1:
        last = [CTX.zero()] * cols
        for k in rng.sample(range(rows - 1), min(2, rows - 1)):
            f = random_polynomial(rng, 1)
            last = [x + f * y for x, y in zip(last, m[k])]
        m[-1] = last
    return m


class TestGenericRank:
    @settings(ORACLE, max_examples=20)
    @given(seeds, st.integers(1, 5), st.integers(1, 6),
           st.sampled_from(["random", "blocks", "combination"]))
    def test_rank_matches_sympy(self, seed, rows, cols, shape):
        m = polynomial_matrix(random.Random(seed), rows, cols, shape)
        reference = sympy.Matrix([[expr_sympy(v) for v in row] for row in m]).to_DM()
        assert linalg._reduce([row[:] for row in m], cols) == reference.to_field().rank()
