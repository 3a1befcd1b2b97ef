"""Exterior calculus on a 3-dimensional chart with exact rational coefficients."""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

from .errors import DegreeOverflow
from .symexpr import Context, Expression, add_term, combination_str

Index = Tuple[int, ...]  # strictly increasing coordinate indices


class DifferentialForm:
    """A degree-k form: strictly increasing index tuples -> Expression coefficients."""

    __slots__ = ("context", "degree", "components")

    def __init__(self, context: Context, degree: int, components: Mapping[Index, Expression]):
        if degree < 0:
            raise ValueError("form degree must be >= 0")
        clean: Dict[Index, Expression] = {}
        for idx, coeff in components.items():
            idx = tuple(idx)
            if len(idx) != degree:
                raise ValueError(f"index {idx} does not match degree {degree}")
            if any(not 1 <= i <= context.n for i in idx):
                raise ValueError(f"index {idx} outside 1..{context.n}")
            if list(idx) != sorted(set(idx)):
                raise ValueError(f"index {idx} must be strictly increasing")
            if not coeff.is_zero():
                clean[idx] = coeff
        self.context = context
        self.degree = degree
        self.components = clean

    @classmethod
    def zero(cls, context: Context, degree: int) -> "DifferentialForm":
        return cls(context, degree, {})

    def is_zero(self) -> bool:
        return not self.components

    def coefficient(self, idx: Index) -> Expression:
        return self.components.get(tuple(idx), self.context.zero())

    def __add__(self, other: "DifferentialForm") -> "DifferentialForm":
        self._check(other)
        out = dict(self.components)
        for idx, c in other.components.items():
            add_term(out, idx, c)
        return DifferentialForm(self.context, self.degree, out)

    def __sub__(self, other: "DifferentialForm") -> "DifferentialForm":
        return self + (-other)

    def __neg__(self) -> "DifferentialForm":
        return DifferentialForm(
            self.context, self.degree, {i: -c for i, c in self.components.items()}
        )

    def scaled(self, factor: Expression) -> "DifferentialForm":
        return DifferentialForm(
            self.context, self.degree, {i: c * factor for i, c in self.components.items()}
        )

    def _check(self, other: "DifferentialForm") -> None:
        if self.context != other.context or self.degree != other.degree:
            raise ValueError("forms of different degree or context")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DifferentialForm)
            and self.context == other.context
            and self.degree == other.degree
            and self.components == other.components
        )

    def __hash__(self) -> int:
        return hash((self.context, self.degree, frozenset(self.components.items())))

    def __str__(self) -> str:
        return combination_str(
            ("^".join(f"dx{i}" for i in idx), self.components[idx])
            for idx in sorted(self.components)
        )


def _merge_indices(a: Index, b: Index):
    """Sorted concatenation of two increasing indices with the sign of the
    permutation, the parity of the pairs i in a, j in b with i > j; None when
    indices repeat."""
    if set(a) & set(b):
        return None, 0
    inversions = sum(i > j for i in a for j in b)
    return tuple(sorted(a + b)), -1 if inversions % 2 else 1


def wedge(a: DifferentialForm, b: DifferentialForm) -> DifferentialForm:
    """Exterior product; degrees beyond the chart dimension collapse to zero."""
    if a.context != b.context:
        raise ValueError("forms from different contexts")
    degree = a.degree + b.degree
    if degree > a.context.n:
        return DifferentialForm.zero(a.context, degree)
    out: Dict[Index, Expression] = {}
    for ia, ca in a.components.items():
        for ib, cb in b.components.items():
            merged, sign = _merge_indices(ia, ib)
            if merged is None:
                continue
            add_term(out, merged, ca * cb if sign > 0 else -(ca * cb))
    return DifferentialForm(a.context, degree, out)


def exterior_derivative(form: DifferentialForm) -> DifferentialForm:
    """d on forms of degree < n; satisfies d(d(w)) = 0 exactly."""
    n = form.context.n
    if form.degree >= n:
        raise DegreeOverflow(
            f"exterior derivative of a degree-{form.degree} form in dimension {n}"
        )
    out: Dict[Index, Expression] = {}
    for idx, coeff in form.components.items():
        for i in range(1, n + 1):
            if i in idx:
                continue
            partial = coeff.diff(i)
            if partial.is_zero():
                continue
            merged, sign = _merge_indices((i,), idx)
            add_term(out, merged, partial if sign > 0 else -partial)
    return DifferentialForm(form.context, form.degree + 1, out)


def one_form(context: Context, coefficients) -> DifferentialForm:
    """Build sum a_i dx^i from a sequence of coefficient expressions."""
    return DifferentialForm(
        context, 1, {(i,): c for i, c in enumerate(coefficients, start=1)}
    )


def two_form_cyclic(context: Context, b23: Expression, b31: Expression, b12: Expression) -> DifferentialForm:
    """Build b23 dx2^dx3 + b31 dx3^dx1 + b12 dx1^dx2 on a 3-dimensional chart."""
    if context.n != 3:
        raise ValueError("cyclic 2-form components need n = 3")
    return DifferentialForm(context, 2, {(2, 3): b23, (1, 3): -b31, (1, 2): b12})
