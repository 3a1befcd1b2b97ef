import random
from fractions import Fraction

import pytest

from vessiot import linalg
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
        # each row is scaled to integers by the lcm of its own denominators
        rows = [[Fraction(1, 2), Fraction(1, 3)], [3, 2], [Fraction(2, 3), Fraction(4, 9)]]
        assert rank_rational(rows) == 1
        assert rank_rational(rows + [[Fraction(1, 6), 0]]) == 2

    def test_integer_rank(self):
        rows = [[2, 4, 0, 6], [0, 0, 3, 3], [1, 2, 3, 6], [0, 0, 0, 0], [-4, -8, 9, -3]]
        snapshot = [list(row) for row in rows]
        assert rank_rational(rows) == 2
        assert rows == snapshot  # the caller's rows are copied, never reduced in place
        assert rank_rational([[0, 5], [7, 0]]) == 2

    def test_entries_stay_small(self, monkeypatch):
        # a dense 30x30 product of rank 12 with 9-bit entries: content removal
        # after every elimination step keeps the rows near the size of its
        # 12x12 minors (~130 bits by Hadamard's bound); without it they double
        # in length at every step
        bits = []
        gcd = linalg.gcd

        def tracking(*values):
            bits.append(max(abs(v).bit_length() for v in values))
            return gcd(*values)

        rng = random.Random(7)
        a = [[rng.randint(-9, 9) for _ in range(12)] for _ in range(30)]
        b = [[rng.randint(-9, 9) for _ in range(30)] for _ in range(12)]
        product = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
        monkeypatch.setattr(linalg, "gcd", tracking)
        assert rank_rational(product) == 12
        assert bits and max(bits) < 200

    def test_function_field_rank(self):
        rows = [[e("x1"), e("x2")], [e("x1^2"), e("x1*x2")], [e("1"), e("0")]]
        assert linalg._reduce([row[:] for row in rows], 2) == 2
        assert linalg._reduce([row[:] for row in rows[:2]], 2) == 1
