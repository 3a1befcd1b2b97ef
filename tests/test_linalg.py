from fractions import Fraction

import pytest

from vessiot.linalg import rank_rational, solve_square
from vessiot.symexpr import Context, Expression, parse_in

CTX = Context(2)


def e(text):
    return parse_in(text, CTX)


class TestSolveSquare:
    def test_unique_solution(self):
        x = solve_square([[e("x1"), e("1")], [e("0"), e("x2")]], [e("x1 + 1"), e("x2^2")])
        assert x == [e("1 - x2/x1 + 1/x1"), e("x2")]

    def test_row_swap(self):
        assert solve_square([[e("0"), e("1")], [e("1"), e("0")]], [e("x1"), e("x2")]) == [
            e("x2"),
            e("x1"),
        ]

    def test_zero_column_with_nonzero_rhs_is_singular(self):
        # the augmented column must never serve as a pivot column
        with pytest.raises(ArithmeticError, match="singular"):
            solve_square([[e("0")]], [e("1")])
        with pytest.raises(ArithmeticError, match="singular"):
            solve_square([[e("1"), e("0")], [e("x1"), e("0")]], [e("0"), e("x2")])

    def test_dependent_rows_are_singular(self):
        with pytest.raises(ArithmeticError, match="singular"):
            solve_square([[e("x1"), e("x2")], [e("2*x1"), e("2*x2")]], [e("1"), e("2")])


    def test_divides_only_right_of_each_pivot(self, monkeypatch):
        # the pivot column would become 1 and 0: b and r1 by a, then r2' by d'
        divisions = []
        truediv = Expression.__truediv__

        def counting(x, y):
            divisions.append(x == y)
            return truediv(x, y)

        monkeypatch.setattr(Expression, "__truediv__", counting)
        x = solve_square([[e("x1"), e("2")], [e("x2"), e("x1 + 1")]], [e("1"), e("x2")])
        monkeypatch.setattr(Expression, "__truediv__", truediv)
        assert divisions == [False] * 3
        assert x == [e("(x1 + 1 - 2*x2)/(x1^2 + x1 - 2*x2)"), e("(x1*x2 - x2)/(x1^2 + x1 - 2*x2)")]


class TestRank:
    def test_rational_rank(self):
        rows = [
            [Fraction(1), Fraction(2), Fraction(3)],
            [Fraction(2), Fraction(4), Fraction(6)],
            [Fraction(0), Fraction(1), Fraction(1, 2)],
        ]
        assert rank_rational(rows) == 2
        assert rank_rational([]) == 0
        assert rank_rational([[Fraction(0), Fraction(0)]]) == 0

    def test_function_field_rank(self):
        rows = [[e("x1"), e("x2")], [e("x1^2"), e("x1*x2")], [e("1"), e("0")]]
        assert rank_rational(rows, Expression.is_zero) == 2
        assert rank_rational(rows[:2], Expression.is_zero) == 1
