"""Small exact linear solvers over rationals and over the expression field."""

from __future__ import annotations

from math import gcd, lcm
from typing import Callable, Dict, List, Optional, Sequence

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


def _integer_row(row: Sequence) -> Dict[int, int]:
    """The nonzero entries of a rational row, column -> integer, scaled by the
    lcm of their denominators (1 for an integer row)."""
    scale = lcm(*[v.denominator for v in row if v])
    return {j: v.numerator * (scale // v.denominator) for j, v in enumerate(row) if v}


def _rank_integer(rows: List[Dict[int, int]]) -> int:
    """The rank of sparse integer rows (column -> nonzero int), by fraction-free
    elimination; the row dicts are consumed.

    Each step takes a pivot p at the lowest column any row uses, in the
    shortest such row.  Every other row f meeting that column becomes
    (p/g)*f - (f_col/g)*pivot, g = gcd(p, f_col), divided by its content, and
    the rows that miss it are not touched.  Integer multiples of rows span the
    same space over the rationals, and the pivot row leaves the elimination,
    so the rank is the number of steps.
    """
    rank = 0
    while rows:
        col = min(min(f) for f in rows)
        pivot = min((f for f in rows if col in f), key=len)
        p = pivot.pop(col)
        rank += 1
        kept = []
        for f in rows:
            if f is pivot:
                continue
            a = f.pop(col, 0)
            if a:
                g = gcd(p, a)
                u, w = p // g, a // g
                if u != 1:
                    for j in f:
                        f[j] *= u
                for j, v in pivot.items():
                    s = f.get(j, 0) - w * v
                    if s:
                        f[j] = s
                    else:
                        del f[j]
                if not f:
                    continue
                content = gcd(*f.values())
                if content != 1:
                    for j in f:
                        f[j] //= content
            kept.append(f)
        rows = kept
    return rank


def rank_rational(
    rows: Sequence[Sequence[object]], is_zero: Optional[Callable[[object], bool]] = None
) -> int:
    """Exact rank of rational rows, in the integers: each row is scaled to an
    integer one and ranked by ``_rank_integer``, so no rational is formed.

    Pass ``Expression.is_zero`` for the rank of ``Expression`` rows over the
    rational-function field, which ``_reduce`` computes.
    """
    if is_zero is not None:
        m = [list(row) for row in rows]
        return _reduce(m, len(m[0]) if m else 0, is_zero)
    return _rank_integer([f for f in map(_integer_row, rows) if f])
