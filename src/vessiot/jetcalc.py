"""Jet-variable bookkeeping: linear jet equations, formal derivatives,
prolongation, symbol dimensions, and the binomial dimension calculus."""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from . import linalg
from .errors import InputFormatError, OrderOverflow
from .symexpr import Context, Expression

MultiIndex = Tuple[int, ...]

DEFAULT_MAX_ORDER = 4


def max_jet_order() -> int:
    """Configured ceiling for jet orders (VESSIOT_MAX_ORDER overrides the default)."""
    raw = os.environ.get("VESSIOT_MAX_ORDER")
    if raw is None:
        return DEFAULT_MAX_ORDER
    try:
        value = int(raw)
    except ValueError as exc:
        raise InputFormatError(f"VESSIOT_MAX_ORDER must be an integer, got {raw!r}") from exc
    if value < 1:
        raise InputFormatError("VESSIOT_MAX_ORDER must be >= 1")
    return value


def mi_zero(n: int) -> MultiIndex:
    return (0,) * n


def mi_order(mu: MultiIndex) -> int:
    return sum(mu)


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
    """A finite sum of expression coefficients times jet variables, equated to 0."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[JetVariable, Expression]):
        self.terms: Dict[JetVariable, Expression] = {
            jv: c for jv, c in terms.items() if not c.is_zero()
        }

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def order(self) -> int:
        """Max |mu| over stored terms; 0 for the zero equation."""
        return max((jv.order for jv in self.terms), default=0)

    def coefficient(self, jv: JetVariable, context: Context) -> Expression:
        return self.terms.get(jv, context.zero())

    def scaled(self, factor: Expression) -> "LinearJetEquation":
        return LinearJetEquation({jv: c * factor for jv, c in self.terms.items()})

    def __add__(self, other: "LinearJetEquation") -> "LinearJetEquation":
        out = dict(self.terms)
        for jv, c in other.terms.items():
            if jv in out:
                out[jv] = out[jv] + c
            else:
                out[jv] = c
        return LinearJetEquation(out)

    def __sub__(self, other: "LinearJetEquation") -> "LinearJetEquation":
        out = dict(self.terms)
        for jv, c in other.terms.items():
            if jv in out:
                out[jv] = out[jv] - c
            else:
                out[jv] = -c
        return LinearJetEquation(out)

    def leading(self) -> Tuple[JetVariable, Expression]:
        jv = max(self.terms, key=JetVariable.sort_key)
        return jv, self.terms[jv]

    def normalized(self) -> "LinearJetEquation":
        """Scale so the highest jet variable has coefficient 1."""
        if self.is_zero():
            return self
        _, lead = self.leading()
        return self.scaled(lead.context.one() / lead)

    def canonical_key(self) -> tuple:
        return tuple(
            (jv, str(c))
            for jv, c in sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())
        )

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


def formal_derivative(eq: LinearJetEquation, i: int) -> LinearJetEquation:
    """Formal total derivative d_i: a*xi^k_mu -> (d_i a)*xi^k_mu + a*xi^k_{mu+1_i}."""
    out: Dict[JetVariable, Expression] = {}

    def bump(jv: JetVariable, c: Expression) -> None:
        if jv in out:
            out[jv] = out[jv] + c
        else:
            out[jv] = c

    for jv, coeff in eq.terms.items():
        bump(jv, coeff.diff(i))
        bump(JetVariable(jv.component, mi_bump(jv.index, i)), coeff)
    return LinearJetEquation(out)


def formal_derivative_multi(eq: LinearJetEquation, mu: MultiIndex) -> LinearJetEquation:
    for i, e in enumerate(mu, start=1):
        for _ in range(e):
            eq = formal_derivative(eq, i)
    return eq


def prolong(system: Sequence[LinearJetEquation], r: int) -> List[LinearJetEquation]:
    """The system together with all formal derivatives d_mu, |mu| <= r.

    Deduplicated by canonical form after leading-coefficient normalization;
    zero equations are dropped.
    """
    if r < 0:
        raise ValueError("prolongation order must be >= 0")
    n = _ambient_dim(system)
    out: List[LinearJetEquation] = []
    seen = set()

    def push(eq: LinearJetEquation) -> None:
        if eq.is_zero():
            return
        key = eq.normalized().canonical_key()
        if key not in seen:
            seen.add(key)
            out.append(eq)

    for eq in system:
        push(eq)
    level = list(system)
    for _ in range(r):
        nxt = []
        for eq in level:
            for i in range(1, n + 1):
                deq = formal_derivative(eq, i)
                nxt.append(deq)
                push(deq)
        level = nxt
    return out


def _ambient_dim(system: Sequence[LinearJetEquation]) -> int:
    for eq in system:
        for jv, coeff in eq.terms.items():
            return coeff.context.n
    raise ValueError("empty system has no ambient dimension")


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
    context = None
    for eq in system:
        for coeff in eq.terms.values():
            context = coeff.context
            break
        if context:
            break
    if context is None:
        raise ValueError("cannot size the symbol of an empty system")
    n = context.n
    for eq in system:
        if eq.order > at_order:
            raise ValueError("system contains equations above the requested order")
    variables = [
        JetVariable(k, mu)
        for k in range(1, n + 1)
        for mu in multi_indices(n, at_order)
    ]
    rows = [eq for eq in system if not eq.is_zero() and eq.order == at_order]
    if not rows:
        return len(variables)
    if generic:
        matrix = [[eq.coefficient(jv, context) for jv in variables] for eq in rows]
        rank = linalg.rank_rational(matrix, Expression.is_zero)
    else:
        point = (
            tuple(Fraction(v) for v in sample_point)
            if sample_point is not None
            else context.default_point()
        )
        if len(point) < context.nvars:
            point = point + context.default_point()[len(point):]
        matrix = [
            [eq.coefficient(jv, context).evaluate(point) for jv in variables]
            for eq in rows
        ]
        rank = linalg.rank_rational(matrix)
    return len(variables) - rank


# ----------------------------------------------------------------------
# dimension tables
# ----------------------------------------------------------------------


def sym_dim(n: int, q: int) -> int:
    """dim S_qT* = C(q + n - 1, n - 1)."""
    return comb(q + n - 1, n - 1)


def lambda_dim(n: int, k: int) -> int:
    """dim Lambda^k T* = C(n, k)."""
    return comb(n, k)


@dataclass(frozen=True)
class DimensionTable:
    """Named bundle dimensions for ambient dimension n."""

    n: int
    f1: int
    entries: Dict[str, object] = field(default_factory=dict)

    def to_json_dict(self) -> Dict[str, object]:
        return dict(self.entries)


def dim_table(n: int, f1: Optional[int] = None, max_q: int = 4) -> DimensionTable:
    """Binomial dimension bookkeeping, including the second-order CC count
    dim F2 = dim(S2T* x F1) - dim(S3T* x T) and the affine first-order count
    dim F1 = dim(T* x S2T* x T) - dim(S3T* x T)."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if f1 is None:
        f1 = n * (n + 1) // 2
    s2 = sym_dim(n, 2)
    s3 = sym_dim(n, 3)
    entries: Dict[str, object] = {
        "n": n,
        "dim_F1": f1,
        "dim_S2Tstar_F1": s2 * f1,
        "dim_S3Tstar_T": s3 * n,
        "dim_F2": s2 * f1 - s3 * n,
        "dim_Tstar_S2Tstar_T": n * s2 * n,
        "dim_F1_affine": n * s2 * n - s3 * n,
        "dim_SqTstar": {str(q): sym_dim(n, q) for q in range(1, max_q + 1)},
        "dim_SqTstar_T": {str(q): n * sym_dim(n, q) for q in range(1, max_q + 1)},
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
    the coordinates that are formally differentiated.
    """
    terms: List[CCTerm] = []
    for raw in spec.split(","):
        token = raw.strip()
        if not token:
            raise InputFormatError(f"empty CC term in {spec!r}")
        m = _CC_TERM_RE.fullmatch(token)
        if m is None:
            raise InputFormatError(f"bad CC term {token!r}")
        sign, mult, digits, label = m.groups()
        coeff = Fraction(int(mult) if mult else 1)
        if sign == "-":
            coeff = -coeff
        mu = [0] * n
        for ch in digits:
            i = int(ch)
            if not 1 <= i <= n:
                raise InputFormatError(
                    f"coordinate index {i} outside 1..{n} in CC term {token!r}"
                )
            mu[i - 1] += 1
        terms.append((coeff, tuple(mu), label))
    return terms


def check_cc_identity(
    system: Mapping[str, LinearJetEquation],
    cc: Iterable[CCTerm],
    max_order: Optional[int] = None,
) -> LinearJetEquation:
    """Substitute the labeled equations into a formal combination sum a*d_mu(O_label).

    Returns the residual linear jet equation; the combination is an identity
    (a compatibility condition) iff the residual is the zero equation.
    """
    ceiling = max_order if max_order is not None else max_jet_order()
    acc: Optional[LinearJetEquation] = None
    context = None
    for coeff, mu, label in cc:
        if label not in system:
            raise InputFormatError(f"CC references unknown equation label {label!r}")
        eq = system[label]
        if eq.order + mi_order(mu) > ceiling:
            raise OrderOverflow(
                f"d_{mu} of an order-{eq.order} equation exceeds max jet order {ceiling}"
            )
        for c in eq.terms.values():
            context = c.context
            break
        if context is None:
            continue
        derived = formal_derivative_multi(eq, mu)
        scaled = derived.scaled(context.rational(coeff))
        acc = scaled if acc is None else acc + scaled
    if acc is None:
        raise InputFormatError("CC combination is empty")
    return acc
