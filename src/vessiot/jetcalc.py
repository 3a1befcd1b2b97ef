"""Jet-variable bookkeeping: linear jet equations, formal derivatives,
prolongation, symbol dimensions, and the binomial dimension calculus."""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import InputFormatError, OrderOverflow, SingularPoint, quoted
from .symexpr import (
    MAX_LITERAL_DIGITS, Context, Expression, _pconst, _Poly,
    add_term, combination_str, common_denominator, derivatives, integer_point,
)

MultiIndex = Tuple[int, ...]

DEFAULT_MAX_ORDER = 4  # the jet-order ceiling of check_cc_identity and the dimension table
MAX_ORDER_LIMIT = 16  # the largest ceiling check-cc accepts; d_mu grows fast with |mu|

# A jet variable xi^k_mu in n coordinates is one int key, as a monomial is in
# symexpr: n + 2 fields of _JW bits, from the most significant one the order
# |mu|, the component k, then mu_1 .. mu_n.  So d_i adds one constant to a key
# (``_step``), the order is the key shifted right past n + 1 fields, and integer
# order is (order, component, index) order.  No field exceeds MAX_JET_ORDER.
_JW = 6
_JFIELD = (1 << _JW) - 1
MAX_JET_ORDER = _JFIELD


def multi_indices(n: int, order: int) -> List[MultiIndex]:
    """All multi-indices of the exact given order, in a fixed deterministic order."""
    if n == 1:
        return [(order,)]
    out = []
    for first in range(order, -1, -1):
        out.extend((first,) + rest for rest in multi_indices(n - 1, order - first))
    return out


def JetVariable(component: int, index: MultiIndex) -> int:
    """The key of the symmetrized jet coordinate xi^component_index of the
    tangent bundle, in len(index) coordinates.  OrderOverflow when the order
    or the component exceeds MAX_JET_ORDER."""
    if min((component, *index)) < 0:
        raise ValueError(f"jet variable with a negative field: {component}, {index}")
    order = sum(index)
    if max(order, component) > MAX_JET_ORDER:
        raise OrderOverflow(
            f"jet variable of component {component} and order {order}:"
            f" a key holds at most {MAX_JET_ORDER}"
        )
    key = order << _JW | component
    for e in index:
        key = key << _JW | e
    return key


def decode_jet(key: int, n: int) -> Tuple[int, MultiIndex]:
    """(component, index) of the key of a jet variable in n coordinates."""
    index = tuple([key >> shift & _JFIELD for shift in range(_JW * (n - 1), -1, -_JW)])
    return key >> _JW * n & _JFIELD, index


def _jet_str(key: int, n: int) -> str:
    component, index = decode_jet(key, n)
    digits = "".join(str(i + 1) * e for i, e in enumerate(index))
    return f"xi{component}_{digits}" if digits else f"xi{component}"


def _top_order(keys: Mapping[int, object], context: Optional[Context]) -> int:
    """The largest order among the jet variables keying a nonempty mapping, 0
    for an empty one: the order field of the largest key."""
    return max(keys) >> _JW * (context.n + 1) if keys else 0


class LinearJetEquation:
    """A finite sum of coefficients times jet variables, equated to 0, in two
    views of one equation.

    ``terms`` maps each jet variable (its key, ``JetVariable``) to its
    ``Expression`` coefficient.  The row view is ``row``, a kernel polynomial
    per jet variable, over one polynomial ``den``: terms[jv] = row[jv] / den.  An equation built from
    terms clears them over their lcm (``common_denominator``) when its row is
    first read; one built from a row (``prolong``) forms its terms when they
    are first read.  Each view is kept once formed.

    ``order`` is the largest |mu| over the nonzero terms (0 for the zero
    equation), and ``context`` the coefficients' context (None for a zero
    equation built from terms); both are fixed when the equation is built.
    """

    __slots__ = ("context", "order", "_terms", "_row", "_den")

    def __init__(self, terms: Mapping[int, Expression]):
        self._terms: Dict[int, Expression] = {
            jv: c for jv, c in terms.items() if not c.is_zero()
        }
        self._row = self._den = None
        self.context = next((c.context for c in self._terms.values()), None)
        self.order = _top_order(self._terms, self.context)

    @classmethod
    def from_row(
        cls, context: Context, row: Mapping[int, _Poly], den: _Poly
    ) -> "LinearJetEquation":
        """The equation sum (row[jv] / den) * jv = 0, for a nonzero ``den``."""
        eq = object.__new__(cls)
        eq._row = {jv: p for jv, p in row.items() if p.terms}
        eq._den, eq._terms, eq.context = den, None, context
        eq.order = _top_order(eq._row, context)
        return eq

    @property
    def terms(self) -> Dict[int, Expression]:
        if self._terms is None:
            context, den = self.context, self._den
            self._terms = {jv: Expression(context, p, den) for jv, p in self._row.items()}
        return self._terms

    @property
    def row(self) -> Dict[int, _Poly]:
        if self._row is None:
            self._clear()
        return self._row

    @property
    def den(self) -> _Poly:
        if self._row is None:
            self._clear()
        return self._den

    def _clear(self) -> None:
        if self._terms:
            self._den, nums = common_denominator(self._terms.values())
            self._row = dict(zip(self._terms, nums))
        else:
            self._row, self._den = {}, _pconst(1)

    def is_zero(self) -> bool:
        return not (self._row if self._terms is None else self._terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, LinearJetEquation) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __str__(self) -> str:
        terms = self.terms
        n = self.context.n if terms else 0
        return combination_str(
            (_jet_str(jv, n), terms[jv]) for jv in sorted(terms, reverse=True)
        ) + " = 0"


def combination(*parts: Tuple[Expression, Mapping[int, Expression]]) -> LinearJetEquation:
    """The equation sum f * terms over the (f, terms) parts."""
    out: Dict[int, Expression] = {}
    for f, terms in parts:
        unit = f.constant_value()
        for jv, c in terms.items():
            add_term(out, jv, c if unit == 1 else -c if unit == -1 else f * c)
    return LinearJetEquation(out)


def proportional(a: LinearJetEquation, b: LinearJetEquation) -> bool:
    """True iff a = f*b for a nonzero rational function f: the duplicate rule.

    Decided on the rows, without division: equal supports, then equal rows or
    every other row polynomial cross-multiplied against the leading ones.
    """
    ra, rb = a.row, b.row
    if ra.keys() != rb.keys():
        return False
    if ra == rb:
        return True
    lead = max(ra)
    la, lb = ra[lead], rb[lead]
    return all(p * lb == rb[jv] * la for jv, p in ra.items() if jv != lead)


def system_context(system: Iterable[LinearJetEquation]) -> Context:
    """The context of a system's coefficients (ValueError if it has none)."""
    for eq in system:
        if not eq.is_zero():
            return eq.context
    raise ValueError("a system without nonzero equations has no context")


def _step(eq: LinearJetEquation, i: int) -> int:
    """The key of xi^k_{mu+1_i} minus that of xi^k_mu, in the coordinates of
    a nonzero equation: one more in the order field and in the mu_i field.
    OrderOverflow when d_i of the equation would pass MAX_JET_ORDER; below
    it, no mu_i field can carry into the next."""
    n = eq.context.n
    if not 1 <= i <= n:
        raise ValueError(f"coordinate index {i} outside 1..{n}")
    if eq.order >= MAX_JET_ORDER:
        raise OrderOverflow(
            f"d_{i} of an order-{eq.order} equation exceeds the largest jet order {MAX_JET_ORDER}"
        )
    return 1 << _JW * (n + 1) | 1 << _JW * (n - i)


def _product_rule(eq: LinearJetEquation, terms: Mapping[int, object], i: int,
                  partials: Iterable) -> dict:
    """The total derivative of sum c*xi^k_mu, the terms (or row) of eq:
    c*xi^k_mu -> (d_i c)*xi^k_mu + c*xi^k_{mu+1_i}, given the partials d_i c
    in the order of terms."""
    out: dict = {}
    if not terms:
        return out
    step = _step(eq, i)
    for (jv, c), dc in zip(terms.items(), partials):
        if not dc.is_zero():
            add_term(out, jv, dc)
        add_term(out, jv + step, c)
    return out


def formal_derivative(eq: LinearJetEquation, i: int) -> LinearJetEquation:
    """Formal total derivative d_i: a*xi^k_mu -> (d_i a)*xi^k_mu + a*xi^k_{mu+1_i}.

    The coefficients are derived together (``symexpr.derivatives``), so each
    distinct denominator among them is deflated once.
    """
    terms = eq.terms
    return LinearJetEquation(_product_rule(eq, terms, i, derivatives(terms.values(), i)))


def formal_derivative_multi(eq: LinearJetEquation, mu: MultiIndex) -> LinearJetEquation:
    for i, e in enumerate(mu, start=1):
        for _ in range(e):
            eq = formal_derivative(eq, i)
    return eq


def row_derivative(eq: LinearJetEquation, i: int) -> LinearJetEquation:
    """d_i of the row over the same den: p*xi^k_mu -> (d_i p)*xi^k_mu + p*xi^k_{mu+1_i}.

    The row is den*E for the equation E, so this is d_i(den*E) over den: kernel
    derivatives and sums only, with no gcd and no quotient rule.
    """
    row, slot = eq.row, i - 1
    return LinearJetEquation.from_row(
        eq.context, _product_rule(eq, row, i, (p.diff(slot) for p in row.values())), eq.den
    )


def prolong(system: Sequence[LinearJetEquation], r: int) -> List[LinearJetEquation]:
    """The system together with the derivatives of its rows, |mu| <= r.

    Each equation E is cleared once to its row den*E (``LinearJetEquation``),
    and above level 0 the result holds d_mu(den*E) over den from
    ``row_derivative``.  Its top-order part is that of d_mu E, and the system
    has the same solutions as the one of the d_mu E wherever den != 0.  The
    input equations themselves come back at level 0, so ``prolong(s, 0) == s``.
    Each d_mu is formed once, by applying d_i only after d_j with j <= i.
    Zero equations and equations proportional to an earlier one are dropped.
    OrderOverflow, before any derivative is formed, when the result would
    pass MAX_JET_ORDER.
    """
    if r < 0:
        raise ValueError("prolongation order must be >= 0")
    n = system_context(system).n
    top = max(eq.order for eq in system)
    if top + r > MAX_JET_ORDER:
        raise OrderOverflow(
            f"prolonging order-{top} equations {r} times exceeds"
            f" the largest jet order {MAX_JET_ORDER}"
        )
    out: List[LinearJetEquation] = []
    kept: Dict[frozenset, List[LinearJetEquation]] = {}  # support -> kept equations

    def push(level: List[Tuple[LinearJetEquation, int]]) -> None:
        for eq, _ in level:
            bucket = kept.setdefault(frozenset(eq.row), [])
            if eq.row and not any(proportional(eq, k) for k in bucket):
                bucket.append(eq)
                out.append(eq)

    level = [(eq, 1) for eq in system]  # (d_mu E, largest i in mu)
    push(level)
    for _ in range(r):
        level = [(row_derivative(eq, i), i) for eq, j in level for i in range(j, n + 1)]
        push(level)
    return out


def symbol_dimension(
    system: Sequence[LinearJetEquation],
    at_order: int,
    sample_point: Optional[Sequence[Fraction]] = None,
    generic: bool = False,
) -> int:
    """dim g_q: solution-space dimension of the order-q coefficient matrix.

    Its n * sym_dim(n, q) columns are the jets of order q; only those that
    some row meets are built, as a zero column adds nothing to the rank.
    Every equation is read through its row (``LinearJetEquation.row``): the
    rank is unchanged when an equation is scaled by its nonzero den.  At the
    sample point (default: variable j at j + 2), written a/L with integers a
    and L the lcm of its denominators, each distinct row polynomial p is
    evaluated once, as the integer L^D * p(a/L) with one D for the whole
    matrix (the largest total degree among the rows' polynomials and dens),
    and the rank is taken in the integers (``linalg.rank_rational``).
    SingularPoint is raised where any equation's den vanishes, that is where
    any of its coefficients has a pole, so a row scaled by den never loses
    rank there silently.  ``generic`` asks instead for the exact rank of the
    rows over the function field (``linalg._reduce``).
    """
    from . import linalg

    context = system_context(system)
    n = context.n
    for eq in system:
        if eq.order > at_order:
            raise ValueError("system contains equations above the requested order")
    dim = n * sym_dim(n, at_order)
    rows = [eq for eq in system if not eq.is_zero() and eq.order == at_order]
    if not rows:
        return dim
    low = at_order << _JW * (n + 1)  # the least key of order q
    keys = sorted({jv for eq in rows for jv in eq.row if jv >= low})
    column = {jv: j for j, jv in enumerate(keys)}
    if generic:
        zero, one = context.zero(), _pconst(1)
    else:
        zero, point = 0, context.complete_point(sample_point)
        ints, scale = integer_point(point)
        degree = 0
        if scale != 1:  # L^D times every row: the rank is the one at a/L
            degree = max(p.total_degree() for eq in rows for p in (eq.den, *eq.row.values()))
        if not all(den.value(ints, scale, degree) for den in {eq.den for eq in rows}):
            raise SingularPoint(f"a coefficient has a pole at {point}")
    value: Dict[_Poly, object] = {}  # each distinct row polynomial is read once
    matrix = []
    for eq in rows:
        line = [zero] * len(column)
        for jv, p in eq.row.items():
            j = column.get(jv)
            if j is not None:
                v = value.get(p)
                if v is None:
                    v = Expression(context, p, one) if generic else p.value(ints, scale, degree)
                    value[p] = v
                line[j] = v
        matrix.append(line)
    rank = linalg._reduce(matrix, len(column)) if generic else linalg.rank_rational(matrix)
    return dim - rank


# ----------------------------------------------------------------------
# dimension tables
# ----------------------------------------------------------------------


def sym_dim(n: int, q: int) -> int:
    """dim S_qT* = C(q + n - 1, n - 1)."""
    return comb(q + n - 1, n - 1)


def lambda_dim(n: int, k: int) -> int:
    """dim Lambda^k T* = C(n, k)."""
    return comb(n, k)


def dim_table(n: int, f1: Optional[int] = None) -> Dict[str, object]:
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
    return {
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

    Every term is checked first; each d_mu(O_label) is then derived once,
    times the sum of its multipliers.  Returns the residual linear jet
    equation; the combination is an identity (a compatibility condition) iff
    the residual is the zero equation.
    """
    sums: Dict[Tuple[str, MultiIndex], Fraction] = {}
    for coeff, mu, label in cc:
        if label not in system:
            raise InputFormatError(f"CC references unknown equation label {quoted(label)}")
        eq = system[label]
        if eq.order + sum(mu) > max_order:
            raise OrderOverflow(
                f"d_{mu} of an order-{eq.order} equation exceeds max jet order {max_order}"
            )
        if not eq.is_zero():
            sums[label, mu] = sums.get((label, mu), 0) + coeff
    if not sums:
        raise InputFormatError("CC combination is empty")
    return combination(*(
        (system[label].context.rational(a), formal_derivative_multi(system[label], mu).terms)
        for (label, mu), a in sums.items() if a
    ))
