"""Small exact linear solvers over rationals and over the expression field."""

from __future__ import annotations

from math import gcd
from typing import Dict, List, Sequence

from .symexpr import Expression, integer_point


def _reduce(m: List[List[Expression]], ncols: int) -> int:
    """Gauss-Jordan elimination over Q(x) of the row lists of ``m`` in place; returns the rank.

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
        pivot = next((r for r in range(rank, len(m)) if not m[r][col].is_zero()), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        row = m[rank]
        inv = row[col]
        # zeros of the pivot row (all of it left of col) change nothing: 0/inv, a - f*0
        support = [j for j in range(col + 1, len(row)) if not row[j].is_zero()]
        for j in support:
            row[j] = row[j] / inv
        for r, other in enumerate(m):
            factor = other[col]
            if r != rank and not factor.is_zero():
                for j in support:
                    other[j] = other[j] - factor * row[j]
        rank += 1
    return rank


def solve_square(matrix: List[List[Expression]], rhs: List[Expression]) -> List[Expression]:
    """Gaussian elimination over the expression field; unique solution required."""
    m = [row[:] + [b] for row, b in zip(matrix, rhs)]
    size = len(m)
    if _reduce(m, size) < size:
        raise ArithmeticError("singular linear system")
    return [m[r][size] for r in range(size)]


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


def rank_rational(rows: Sequence[Sequence]) -> int:
    """Exact rank of rational rows, in the integers: the nonzero entries of
    each row are scaled to integers (``integer_point``) and ranked by
    ``_rank_integer``, so no rational is formed."""
    sparse = [{j: v for j, v in enumerate(row) if v} for row in rows]
    return _rank_integer([dict(zip(f, integer_point(f.values())[0])) for f in sparse if f])
