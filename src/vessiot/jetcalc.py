"""Jet-variable bookkeeping: linear jet equations, formal derivatives,
prolongation, symbol dimensions, and the binomial dimension calculus."""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb
from operator import not_
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from . import linalg
from .errors import InputFormatError, OrderOverflow, quoted
from .symexpr import MAX_LITERAL_DIGITS, Context, Expression

MultiIndex = Tuple[int, ...]

DEFAULT_MAX_ORDER = 4  # the jet-order ceiling of check_cc_identity and the dimension table


def mi_bump(mu: MultiIndex, i: int) -> MultiIndex:
    """mu + 1_i for the 1-based coordinate index i."""
    return mu[: i - 1] + (mu[i - 1] + 1,) + mu[i:]


def multi_indices(n: int, order: int) -> List[MultiIndex]:
    """All multi-indices of the exact given order, in a fixed deterministic order."""
    if n == 1:
        return [(order,)]
    out = []
    for first in range(order, -1, -1):
        out.extend((first,) + rest for rest in multi_indices(n - 1, order - first))
    return out


class JetVariable(NamedTuple):
    """One symmetrized jet coordinate xi^k_mu of the tangent bundle."""

    component: int
    index: MultiIndex

    @property
    def order(self) -> int:
        return sum(self.index)

    def sort_key(self) -> tuple:
        return (self.order, self.component, self.index)

    def __str__(self) -> str:
        digits = "".join(str(i + 1) * e for i, e in enumerate(self.index))
        if not digits:
            return f"xi{self.component}"
        return f"xi{self.component}_{digits}"


class LinearJetEquation:
    """A finite sum of expression coefficients times jet variables, equated to 0.

    ``order`` is the largest |mu| over the nonzero terms (0 for the zero
    equation), fixed when the equation is built.
    """

    __slots__ = ("terms", "order")

    def __init__(self, terms: Mapping[JetVariable, Expression]):
        self.terms: Dict[JetVariable, Expression] = {
            jv: c for jv, c in terms.items() if not c.is_zero()
        }
        self.order = max((jv.order for jv in self.terms), default=0)

    def is_zero(self) -> bool:
        return not self.terms

    def scaled(self, factor: Expression) -> "LinearJetEquation":
        return LinearJetEquation({jv: c * factor for jv, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, LinearJetEquation) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __str__(self) -> str:
        if self.is_zero():
            return "0 = 0"
        parts = []
        for jv, c in sorted(
            self.terms.items(), key=lambda kv: kv[0].sort_key(), reverse=True
        ):
            s = str(c)
            if s == "1":
                parts.append(str(jv))
            elif s == "-1":
                parts.append(f"-{jv}")
            elif s.lstrip("-").isdigit():
                parts.append(f"{s}*{jv}")
            else:
                parts.append(f"({s})*{jv}")
        return " + ".join(parts).replace("+ -", "- ") + " = 0"


def add_term(terms: Dict[JetVariable, Expression], jv: JetVariable, coeff: Expression) -> None:
    """terms[jv] += coeff, inserting jv when absent."""
    if jv in terms:
        terms[jv] = terms[jv] + coeff
    else:
        terms[jv] = coeff


def proportional(a: LinearJetEquation, b: LinearJetEquation) -> bool:
    """True iff a = f*b for a nonzero rational function f: the duplicate rule.

    Decided without division: equal supports, then equal terms or every
    coefficient cross-multiplied against the other side's leading one.
    """
    if a.terms.keys() != b.terms.keys():
        return False
    if a.terms == b.terms:
        return True
    lead = max(a.terms, key=JetVariable.sort_key)
    la, lb = a.terms[lead], b.terms[lead]
    return all(c * lb == b.terms[jv] * la for jv, c in a.terms.items())


def system_context(system: Iterable[LinearJetEquation]) -> Context:
    """The context of a system's coefficients (ValueError if it has none)."""
    for eq in system:
        for coeff in eq.terms.values():
            return coeff.context
    raise ValueError("a system without nonzero equations has no context")


def formal_derivative(eq: LinearJetEquation, i: int) -> LinearJetEquation:
    """Formal total derivative d_i: a*xi^k_mu -> (d_i a)*xi^k_mu + a*xi^k_{mu+1_i}."""
    out: Dict[JetVariable, Expression] = {}
    for jv, coeff in eq.terms.items():
        add_term(out, jv, coeff.diff(i))
        add_term(out, JetVariable(jv.component, mi_bump(jv.index, i)), coeff)
    return LinearJetEquation(out)


def formal_derivative_multi(eq: LinearJetEquation, mu: MultiIndex) -> LinearJetEquation:
    for i, e in enumerate(mu, start=1):
        for _ in range(e):
            eq = formal_derivative(eq, i)
    return eq


def prolong(system: Sequence[LinearJetEquation], r: int) -> List[LinearJetEquation]:
    """The system together with all formal derivatives d_mu, |mu| <= r.

    Each d_mu is formed once, by applying d_i only after d_j with j <= i.
    Zero equations and equations proportional to an earlier one are dropped.
    """
    if r < 0:
        raise ValueError("prolongation order must be >= 0")
    n = system_context(system).n
    out: List[LinearJetEquation] = []
    kept: Dict[frozenset, List[LinearJetEquation]] = {}  # support -> kept equations

    def push(level: List[Tuple[LinearJetEquation, int]]) -> None:
        for eq, _ in level:
            bucket = kept.setdefault(frozenset(eq.terms), [])
            if eq.terms and not any(proportional(eq, k) for k in bucket):
                bucket.append(eq)
                out.append(eq)

    level = [(eq, 1) for eq in system]  # (d_mu E, largest i in mu)
    push(level)
    for _ in range(r):
        level = [(formal_derivative(eq, i), i) for eq, j in level for i in range(j, n + 1)]
        push(level)
    return out


def symbol_dimension(
    system: Sequence[LinearJetEquation],
    at_order: int,
    sample_point: Optional[Sequence[Fraction]] = None,
    generic: bool = False,
) -> int:
    """dim g_q: solution-space dimension of the order-q coefficient matrix.

    Coefficients are evaluated at the sample point (default: variable j at
    j + 2) unless ``generic`` asks for exact rank over the function field.
    """
    context = system_context(system)
    n = context.n
    for eq in system:
        if eq.order > at_order:
            raise ValueError("system contains equations above the requested order")
    variables = [
        JetVariable(k, mu)
        for k in range(1, n + 1)
        for mu in multi_indices(n, at_order)
    ]
    rows = [eq.terms for eq in system if eq.terms and eq.order == at_order]
    if not rows:
        return len(variables)
    column = {jv: i for i, jv in enumerate(variables)}
    if generic:
        zero, is_zero, point = context.zero(), Expression.is_zero, None
    else:
        zero, is_zero, point = Fraction(0), not_, context.complete_point(sample_point)
    value: Dict[Expression, object] = {}  # each distinct coefficient is evaluated once
    matrix = []
    for terms in rows:
        line = [zero] * len(variables)
        for jv, c in terms.items():
            if jv in column:
                if c not in value:
                    value[c] = c if generic else c.evaluate(point)
                line[column[jv]] = value[c]
        matrix.append(line)
    return len(variables) - linalg.rank_rational(matrix, is_zero)


# ----------------------------------------------------------------------
# dimension tables
# ----------------------------------------------------------------------


def sym_dim(n: int, q: int) -> int:
    """dim S_qT* = C(q + n - 1, n - 1)."""
    return comb(q + n - 1, n - 1)


def lambda_dim(n: int, k: int) -> int:
    """dim Lambda^k T* = C(n, k)."""
    return comb(n, k)


class DimensionTable:
    """Named bundle dimensions for ambient dimension n."""

    def __init__(self, n: int, f1: int, entries: Optional[Dict[str, object]] = None):
        self.n, self.f1 = n, f1
        self.entries = {} if entries is None else entries

    def to_json_dict(self) -> Dict[str, object]:
        return dict(self.entries)


def dim_table(n: int, f1: Optional[int] = None) -> DimensionTable:
    """Binomial dimension bookkeeping, including the second-order CC count
    dim F2 = dim(S2T* x F1) - dim(S3T* x T) and the affine first-order count
    dim F1 = dim(T* x S2T* x T) - dim(S3T* x T).  The S^q T* rows run up to
    the jet-order ceiling."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if f1 is None:
        f1 = n * (n + 1) // 2
    s2 = sym_dim(n, 2)
    s3 = sym_dim(n, 3)
    orders = range(1, DEFAULT_MAX_ORDER + 1)
    entries: Dict[str, object] = {
        "n": n,
        "dim_F1": f1,
        "dim_S2Tstar_F1": s2 * f1,
        "dim_S3Tstar_T": s3 * n,
        "dim_F2": s2 * f1 - s3 * n,
        "dim_Tstar_S2Tstar_T": n * s2 * n,
        "dim_F1_affine": n * s2 * n - s3 * n,
        "dim_SqTstar": {str(q): sym_dim(n, q) for q in orders},
        "dim_SqTstar_T": {str(q): n * sym_dim(n, q) for q in orders},
        "dim_LambdakTstar": {str(k): lambda_dim(n, k) for k in range(0, n + 1)},
    }
    return DimensionTable(n=n, f1=f1, entries=entries)


# ----------------------------------------------------------------------
# compatibility-condition checks
# ----------------------------------------------------------------------

CCTerm = Tuple[Fraction, MultiIndex, str]

_CC_TERM_RE = re.compile(r"([+-]?)(\d+)?d(\d+)O(\w+)$")


def parse_cc_spec(spec: str, n: int) -> List[CCTerm]:
    """Parse a textual CC combination like ``d11O1,+d22O2,-d12O3``.

    Each term is [sign][multiplier]d<digits>O<label> where the digits name
    the coordinates that are formally differentiated.  A multiplier has at
    most MAX_LITERAL_DIGITS digits, like a literal in a section.
    """
    terms: List[CCTerm] = []
    for raw in spec.split(","):
        token = raw.strip()
        if not token:
            raise InputFormatError(f"empty CC term in {quoted(spec)}")
        m = _CC_TERM_RE.fullmatch(token)
        if m is None:
            raise InputFormatError(f"bad CC term {quoted(token)}")
        sign, mult, digits, label = m.groups()
        if mult and len(mult) > MAX_LITERAL_DIGITS:
            raise InputFormatError(f"CC multiplier longer than {MAX_LITERAL_DIGITS} digits")
        coeff = Fraction(int(mult) if mult else 1)
        if sign == "-":
            coeff = -coeff
        mu = [0] * n
        for ch in digits:
            i = int(ch)
            if not 1 <= i <= n:
                raise InputFormatError(
                    f"coordinate index {i} outside 1..{n} in CC term {quoted(token)}"
                )
            mu[i - 1] += 1
        terms.append((coeff, tuple(mu), label))
    return terms


def check_cc_identity(
    system: Mapping[str, LinearJetEquation],
    cc: Iterable[CCTerm],
    max_order: int = DEFAULT_MAX_ORDER,
) -> LinearJetEquation:
    """Substitute the labeled equations into a formal combination sum a*d_mu(O_label).

    Returns the residual linear jet equation; the combination is an identity
    (a compatibility condition) iff the residual is the zero equation.
    """
    terms: Dict[JetVariable, Expression] = {}
    factor = None
    for coeff, mu, label in cc:
        if label not in system:
            raise InputFormatError(f"CC references unknown equation label {quoted(label)}")
        eq = system[label]
        if eq.order + sum(mu) > max_order:
            raise OrderOverflow(
                f"d_{mu} of an order-{eq.order} equation exceeds max jet order {max_order}"
            )
        if eq.is_zero():
            continue
        factor = system_context([eq]).rational(coeff)
        for jv, c in formal_derivative_multi(eq, mu).terms.items():
            add_term(terms, jv, c * factor)
    if factor is None:
        raise InputFormatError("CC combination is empty")
    return LinearJetEquation(terms)
