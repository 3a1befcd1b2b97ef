"""Small exact linear solvers over rationals and over the expression field."""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Callable, List, Sequence

from .symexpr import Expression


def _reduce(m: list, ncols: int, is_zero: Callable[[object], bool]) -> int:
    """Gauss-Jordan elimination of the row lists of ``m`` in place; returns the rank.

    Pivots are taken only in the first ``ncols`` columns (an augmented right-hand
    side never holds one), and pivot rows move to the top.  Each pivot row is
    divided by its pivot and subtracted from the other rows right of the pivot
    column only: that column would become a 1 and 0s, which no later step and
    no caller reads, so it keeps its old entries.
    """
    rank = 0
    for col in range(ncols):
        if rank == len(m):
            break
        pivot = next((r for r in range(rank, len(m)) if not is_zero(m[r][col])), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        row = m[rank]
        inv = row[col]
        # zeros of the pivot row (all of it left of col) change nothing: 0/inv, a - f*0
        support = [j for j in range(col + 1, len(row)) if not is_zero(row[j])]
        for j in support:
            row[j] = row[j] / inv
        for r, other in enumerate(m):
            factor = other[col]
            if r != rank and not is_zero(factor):
                for j in support:
                    other[j] = other[j] - factor * row[j]
        rank += 1
    return rank


def solve_square(matrix: List[List[Expression]], rhs: List[Expression]) -> List[Expression]:
    """Gaussian elimination over the expression field; unique solution required."""
    m = [row[:] + [b] for row, b in zip(matrix, rhs)]
    size = len(m)
    if _reduce(m, size, Expression.is_zero) < size:
        raise ArithmeticError("singular linear system")
    return [m[r][size] for r in range(size)]


def rank_rational(
    rows: Sequence[Sequence[Fraction]], is_zero: Callable[[object], bool] = operator.not_
) -> int:
    """Exact rank over the rationals; pass ``Expression.is_zero`` for the rank
    over the rational-function field."""
    m = [list(row) for row in rows]
    return _reduce(m, len(m[0]) if m else 0, is_zero)
