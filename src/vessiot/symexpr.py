"""Exact multivariate rational expressions.

The scalar domain of the whole engine: quotients of multivariate polynomials
over the rationals, in chart coordinates ``x1..xn`` plus declared parameter
symbols.  Every expression is kept in a canonical form (coprime
numerator/denominator pair, integer coefficients with unit content across the
pair, positive leading denominator coefficient under graded-lexicographic
order), so equality, zero-testing and constancy are decidable by direct
comparison.  The polynomial kernel therefore works over the integers only;
rational numbers appear at the API, as inputs and exact values.
"""

from __future__ import annotations

import re
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd as _igcd
from math import isqrt
from operator import add, gt, lt, neg, sub
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    DivisionByZero,
    DivisionByZeroLiteral,
    ExprSyntaxError,
    SingularPoint,
    UnknownIdentifier,
)

Monomial = tuple  # exponent tuple, one slot per context variable

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*")


class Context:
    """Variable environment: coordinates ``x1..xn`` plus named parameters.

    The variable order is x1 < x2 < ... < xn followed by the parameters in
    alphabetical order; this fixed order is what makes canonical forms
    reproducible.
    """

    __slots__ = ("n", "params", "names", "_index")

    def __init__(self, n: int, params: Iterable[str] = ()):
        if not 1 <= n <= 9:
            raise ValueError("ambient dimension must be between 1 and 9")
        params = tuple(sorted(set(params)))
        coords = tuple(f"x{i}" for i in range(1, n + 1))
        for p in params:
            if not _IDENT_RE.fullmatch(p):
                raise ValueError(f"invalid parameter name {p!r}")
            if p in coords:
                raise ValueError(f"parameter {p!r} collides with a coordinate")
        self.n = n
        self.params = params
        self.names = coords + params
        self._index = {name: i for i, name in enumerate(self.names)}

    @property
    def nvars(self) -> int:
        return len(self.names)

    def var_index(self, name: str) -> int:
        return self._index[name]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Context)
            and self.n == other.n
            and self.params == other.params
        )

    def __hash__(self) -> int:
        return hash((self.n, self.params))

    def __repr__(self) -> str:
        if self.params:
            return f"Context(n={self.n}, params={list(self.params)})"
        return f"Context(n={self.n})"

    # -- convenience constructors -------------------------------------

    def zero(self) -> "Expression":
        return Expression(self, _PZERO, _pconst(self.nvars, 1))

    def one(self) -> "Expression":
        return self.rational(Fraction(1))

    def rational(self, value) -> "Expression":
        value = Fraction(value)
        num = _pconst(self.nvars, value.numerator)
        den = _pconst(self.nvars, value.denominator)
        return Expression(self, num, den)

    def coordinate(self, i: int) -> "Expression":
        if not 1 <= i <= self.n:
            raise ValueError(f"coordinate index {i} outside 1..{self.n}")
        return self._variable(i - 1)

    def parameter(self, name: str) -> "Expression":
        if name not in self.params:
            raise ValueError(f"{name!r} is not a declared parameter")
        return self._variable(self._index[name])

    def _variable(self, slot: int) -> "Expression":
        mono = tuple(1 if j == slot else 0 for j in range(self.nvars))
        return Expression(self, _Poly({mono: 1}), _pconst(self.nvars, 1))

    def default_point(self) -> tuple:
        """Default sample point: variable j evaluates to j + 2 (so x^i = i + 1)."""
        return tuple(Fraction(j + 2) for j in range(self.nvars))


# ----------------------------------------------------------------------
# sparse multivariate polynomials (internal)
# ----------------------------------------------------------------------


class _Poly:
    """Sparse polynomial over the integers: exponent tuple -> nonzero int.

    Canonical pairs always scale to integer coefficients, so the kernel holds
    no rational coefficient; rationals appear only at the ``Expression`` API
    (``Context.rational``, ``constant_value``, ``evaluate``).
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def nvars(self) -> int:
        for mono in self.terms:
            return len(mono)
        return 0

    def __eq__(self, other) -> bool:
        return isinstance(other, _Poly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def leading(self) -> tuple:
        """(monomial, coefficient) maximal under grlex."""
        _, mono = max(zip(map(sum, self.terms), self.terms))
        return mono, self.terms[mono]

    def used_slots(self) -> set:
        return {j for j, exps in enumerate(zip(*self.terms)) if any(exps)}

    def __add__(self, other: "_Poly") -> "_Poly":
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono)
            if s is None:
                out[mono] = c
            else:
                s = s + c
                if s:
                    out[mono] = s
                else:
                    del out[mono]
        return _Poly(out)

    def __sub__(self, other: "_Poly") -> "_Poly":
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono)
            if s is None:
                out[mono] = -c
            else:
                s = s - c
                if s:
                    out[mono] = s
                else:
                    del out[mono]
        return _Poly(out)

    def __neg__(self) -> "_Poly":
        return _Poly({m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "_Poly") -> "_Poly":
        if not self.terms or not other.terms:
            return _PZERO
        out: dict = {}
        get = out.get
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(map(add, m1, m2))
                out[mono] = get(mono, 0) + c1 * c2
        return _Poly({m: c for m, c in out.items() if c})

    def pow(self, k: int) -> "_Poly":
        if k < 0:
            raise ValueError("negative polynomial power")
        result = _pconst(self.nvars(), 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def diff(self, slot: int) -> "_Poly":
        out: dict = {}
        for mono, c in self.terms.items():
            e = mono[slot]
            if e:
                out[mono[:slot] + (e - 1,) + mono[slot + 1 :]] = c * e
        return _Poly(out)

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        total = Fraction(0)
        for mono, c in self.terms.items():
            v = c
            for val, e in zip(point, mono):
                if e:
                    v *= val**e
            total += v
        return total

    def divexact(self, other: "_Poly") -> "_Poly":
        """Exact quotient with integer coefficients; ArithmeticError when none.

        When ``other`` is primitive, an integer quotient exists whenever any
        rational one does (Gauss's lemma).  The remainder's terms are taken in
        descending grlex order from a heap (Monagan & Pearce, CASC 2007), so no
        step rescans the remainder.  Monomials are handled as keys
        ``(-degree, -e1, ..., -en)``: ascending key order is descending grlex
        order, and the key of a product is the sum of the keys.
        """
        if not other.terms:
            raise ZeroDivisionError("polynomial division by zero")
        if not self.terms:
            return _PZERO
        (lead, lc), *tail = sorted(
            ((-sum(m), *map(neg, m)), c) for m, c in other.terms.items()
        )
        # an exact quotient has exponents in 0..deg_j(self) - deg_j(other) in
        # every slot j, and total degree deg(self) - deg(other); a quotient
        # term outside that box proves the division inexact and bounds the walk
        floor = tuple(map(sub, _max_degrees(other), _max_degrees(self)))
        upper = (0,) * len(lead)
        rem = {(-sum(m), *map(neg, m)): c for m, c in self.terms.items()}
        heap = list(rem)
        heapify(heap)
        out = {}
        while heap:
            key = heappop(heap)
            rc = rem.pop(key, 0)
            if not rc:
                continue
            q = tuple(map(sub, key, lead))
            if any(map(gt, q, upper)) or any(map(lt, q, floor)) or rc % lc:
                raise ArithmeticError("inexact polynomial division")
            qc = rc // lc
            out[tuple(map(neg, q[1:]))] = qc
            for tk, tc in tail:
                k = tuple(map(add, q, tk))
                s = rem.get(k)
                if s is None:
                    rem[k] = -qc * tc
                    heappush(heap, k)
                else:
                    s -= qc * tc
                    if s:
                        rem[k] = s
                    else:
                        del rem[k]
        return _Poly(out)


def _grlex_key(mono: Monomial) -> tuple:
    return (sum(mono), mono)


def _max_degrees(p: _Poly) -> tuple:
    """(total degree, degree in each slot), for a nonzero polynomial."""
    return (max(map(sum, p.terms)), *map(max, zip(*p.terms)))


_PZERO = _Poly({})


def _pconst(nvars: int, value: int) -> _Poly:
    if not value:
        return _PZERO
    return _Poly({(0,) * nvars: value})


def _primitive(p: _Poly, *cofactors: _Poly) -> tuple:
    """Divide nonzero p, and its cofactors, by the integer gcd of all their
    coefficients, signed so that p gets a positive leading coefficient."""
    content = _igcd(*p.terms.values(), *(c for f in cofactors for c in f.terms.values()))
    if p.leading()[1] < 0:
        content = -content
    if content == 1:
        return (p, *cofactors)
    return tuple(
        _Poly({m: c // content for m, c in f.terms.items()}) for f in (p, *cofactors)
    )


# -- multivariate gcd (primitive pseudo-remainder sequences) ----------


def _poly_gcd(a: _Poly, b: _Poly) -> _Poly:
    """Primitive gcd with positive leading coefficient; 1 for coprime inputs.

    Fast path: heuristic gcd by integer evaluation and balanced-digit
    interpolation, verified by exact division; primitive pseudo-remainder
    sequences as the deterministic fallback.
    """
    if a.is_zero():
        return _primitive(b)[0] if not b.is_zero() else _PZERO
    if b.is_zero():
        return _primitive(a)[0]
    if len(a.terms) == 1 or len(b.terms) == 1:
        return _monomial_gcd(a, b)
    if a.terms == b.terms:
        return _primitive(a)[0]
    a = _primitive(a)[0]
    b = _primitive(b)[0]
    heuristic = _heu_gcd(a, b)
    if heuristic is not None:
        return heuristic
    v = min(a.used_slots() | b.used_slots())
    return _primitive(_gcd_in(a, b, v))[0]


def _monomial_gcd(a: _Poly, b: _Poly) -> _Poly:
    """gcd when at least one operand is a single term: the shared monomial part."""
    shared = None
    for p in (a, b):
        for mono in p.terms:
            shared = (
                list(mono)
                if shared is None
                else [min(s, e) for s, e in zip(shared, mono)]
            )
    return _Poly({tuple(shared): 1})


# -- heuristic gcd over integer coefficients ---------------------------

_HEU_TRIES = 6


def _heu_gcd(f: _Poly, g: _Poly) -> Optional[_Poly]:
    """GCDHEU (Char, Geddes & Gonnet 1989); None when the heuristic gives up.

    Evaluates one variable at an integer xi, recurses on the images, lifts
    the image gcd back by balanced base-xi digits, and keeps the candidate
    only when it divides both inputs exactly.
    """
    # gcd splits as the igcd of all coefficients times gcd of the primitive
    # parts; the content must come off before evaluating, or the digit
    # interpolation at the outer level sees spurious integer factors
    ground = _igcd(*f.terms.values(), *g.terms.values())
    (f,) = _primitive(f)
    (g,) = _primitive(g)
    used = f.used_slots() | g.used_slots()
    if not used:
        return _pconst(f.nvars(), ground)
    v = min(used)
    xi = 2 * min(max(map(abs, f.terms.values())), max(map(abs, g.terms.values()))) + 29
    for _ in range(_HEU_TRIES):
        fe = _eval_at(f, v, xi)
        ge = _eval_at(g, v, xi)
        if fe.terms and ge.terms:
            h = _heu_gcd(fe, ge)
            if h is not None:
                cand = _primitive(_interp(h, v, xi))[0]
                try:
                    f.divexact(cand)
                    g.divexact(cand)
                except ArithmeticError:
                    pass
                else:
                    if ground != 1:
                        cand = _Poly({m: c * ground for m, c in cand.terms.items()})
                    return cand
        xi = xi * 73794 // 27011
    return None


def _eval_at(f: _Poly, v: int, xi: int) -> _Poly:
    out: dict = {}
    for mono, c in f.terms.items():
        key = mono[:v] + (0,) + mono[v + 1 :]
        out[key] = out.get(key, 0) + c * xi ** mono[v]
    return _Poly({m: c for m, c in out.items() if c})


def _interp(h: _Poly, v: int, xi: int) -> _Poly:
    """Recover the variable-v dependence from base-xi balanced digits."""
    out: dict = {}
    cur = h.terms
    e = 0
    half = xi // 2
    while cur:
        nxt: dict = {}
        for mono, c in cur.items():
            r = c % xi
            if r > half:
                r -= xi
            if r:
                out[mono[:v] + (e,) + mono[v + 1 :]] = r
            q = (c - r) // xi
            if q:
                nxt[mono] = q
        cur = nxt
        e += 1
    return _Poly(out)


def _gcd_in(a: _Poly, b: _Poly, v: int) -> _Poly:
    ua = _to_univ(a, v)
    ub = _to_univ(b, v)
    cont_a = _coeff_gcd(ua)
    cont_b = _coeff_gcd(ub)
    cont = _poly_gcd(cont_a, cont_b)
    ua = {d: c.divexact(cont_a) for d, c in ua.items()}
    ub = {d: c.divexact(cont_b) for d, c in ub.items()}
    if max(ua) < max(ub):
        ua, ub = ub, ua
    while ub:
        rem = _pseudo_rem(ua, ub)
        ua, ub = ub, _make_primitive(rem)
    g = _from_univ(ua, v)
    return cont * g


def _to_univ(p: _Poly, v: int) -> dict:
    """View as univariate in slot v: degree -> coefficient polynomial."""
    out: dict = {}
    for mono, c in p.terms.items():
        out.setdefault(mono[v], {})[mono[:v] + (0,) + mono[v + 1 :]] = c
    return {d: _Poly(bucket) for d, bucket in out.items()}


def _from_univ(u: dict, v: int) -> _Poly:
    out: dict = {}
    for d, coeff in u.items():
        for mono, c in coeff.terms.items():
            lifted = mono[:v] + (d,) + mono[v + 1 :]
            out[lifted] = c
    return _Poly(out)


def _coeff_gcd(u: dict) -> _Poly:
    g = _PZERO
    for coeff in u.values():
        g = _poly_gcd(g, coeff)
    return g


def _make_primitive(u: dict) -> dict:
    u = {d: c for d, c in u.items() if not c.is_zero()}
    if not u:
        return u
    cont = _coeff_gcd(u)
    return {d: c.divexact(cont) for d, c in u.items()}


def _pseudo_rem(ua: dict, ub: dict) -> dict:
    """Pseudo-remainder of the univariate views (coefficients are polynomials)."""
    db = max(ub)
    lc_b = ub[db]
    rem = dict(ua)
    while rem and max(rem) >= db:
        dr = max(rem)
        lc_r = rem[dr]
        shift = dr - db
        new: dict = {}
        for d, c in rem.items():
            new[d] = c * lc_b
        for d, c in ub.items():
            t = lc_r * c
            tgt = d + shift
            if tgt in new:
                s = new[tgt] - t
            else:
                s = -t
            new[tgt] = s
        rem = {d: c for d, c in new.items() if not c.is_zero()}
    return rem


def _poly_sqrt(p: _Poly) -> Optional[_Poly]:
    """Exact square root with positive leading coefficient, or None when p is
    not a perfect polynomial square.

    The root of an integer square has integer coefficients (Gauss's lemma),
    so a root coefficient that is not an integer means there is no root.
    """
    if p.is_zero():
        return p
    mono, coeff = p.leading()
    if coeff < 0 or any(e % 2 for e in mono):
        return None
    root = isqrt(coeff)
    if root * root != coeff:
        return None
    lead = tuple(e // 2 for e in mono)
    twice = 2 * root
    s = _Poly({lead: root})
    rem = p - s * s
    for _ in range(len(p.terms) * (len(p.terms) + 2) + 4):
        if rem.is_zero():
            return s
        rm, rc = rem.leading()
        q = tuple(a - b for a, b in zip(rm, lead))
        if any(e < 0 for e in q) or rc % twice:
            return None
        t = _Poly({q: rc // twice})
        # p - (s + t)^2 = rem - (2s + t) t
        rem = rem - (s + s + t) * t
        s = s + t
    return None


# ----------------------------------------------------------------------
# expressions
# ----------------------------------------------------------------------


class Expression:
    """Immutable rational expression in canonical form.

    All arithmetic is exact and renormalizes, so two expressions are equal
    as rational functions iff their stored numerator/denominator pairs are
    identical.
    """

    __slots__ = ("context", "num", "den")

    def __init__(self, context: Context, num: _Poly, den: _Poly):
        num, den = _canonical_pair(num, den)
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *args):
        raise AttributeError("Expression is immutable")

    # -- basic predicates ----------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self == self.context.one()

    def is_constant(self) -> bool:
        """True iff no coordinate x1..xn occurs in the numerator or denominator.

        Parameters count as constants.  Because the stored pair is coprime,
        this is the same as every coordinate partial derivative vanishing.
        """
        n = self.context.n
        return not any(any(m[:n]) for p in (self.num, self.den) for m in p.terms)

    def constant_value(self) -> Optional[Fraction]:
        """The value as an exact rational, when no variable appears at all."""
        if self.num.used_slots() or self.den.used_slots():
            return None
        one = (0,) * self.context.nvars
        return Fraction(self.num.terms.get(one, 0), self.den.terms[one])

    # -- arithmetic ------------------------------------------------------

    def _check(self, other: "Expression") -> None:
        if self.context != other.context:
            raise ValueError("expressions from different contexts")

    def __add__(self, other: "Expression") -> "Expression":
        # stored pairs are coprime, so only cross factors need cancelling
        # (same scheme as stdlib fractions);  the result pair is again coprime
        self._check(other)
        na, da, nb, db = self.num, self.den, other.num, other.den
        if da == db:
            t = na + nb
            g2 = _poly_gcd(t, da)
            if _is_unit_poly(g2) or t.is_zero():
                return _from_reduced(self.context, t, da)
            return _from_reduced(self.context, t.divexact(g2), da.divexact(g2))
        g = _poly_gcd(da, db)
        if _is_unit_poly(g):
            return _from_reduced(self.context, na * db + nb * da, da * db)
        s = da.divexact(g)
        t = na * db.divexact(g) + nb * s
        g2 = _poly_gcd(t, g)
        if _is_unit_poly(g2) or t.is_zero():
            return _from_reduced(self.context, t, s * db)
        return _from_reduced(self.context, t.divexact(g2), s * db.divexact(g2))

    def __sub__(self, other: "Expression") -> "Expression":
        return self + (-other)

    def __neg__(self) -> "Expression":
        return _from_reduced(self.context, -self.num, self.den)

    def __mul__(self, other: "Expression") -> "Expression":
        self._check(other)
        na, da, nb, db = self.num, self.den, other.num, other.den
        g1 = _poly_gcd(na, db)
        if not _is_unit_poly(g1):
            na = na.divexact(g1)
            db = db.divexact(g1)
        g2 = _poly_gcd(nb, da)
        if not _is_unit_poly(g2):
            nb = nb.divexact(g2)
            da = da.divexact(g2)
        return _from_reduced(self.context, na * nb, da * db)

    def __truediv__(self, other: "Expression") -> "Expression":
        self._check(other)
        if other.num.is_zero():
            raise DivisionByZero("division by an expression that normalizes to 0")
        na, da, nb, db = self.num, self.den, other.num, other.den
        g1 = _poly_gcd(na, nb)
        if not _is_unit_poly(g1):
            na = na.divexact(g1)
            nb = nb.divexact(g1)
        g2 = _poly_gcd(db, da)
        if not _is_unit_poly(g2):
            db = db.divexact(g2)
            da = da.divexact(g2)
        return _from_reduced(self.context, na * db, da * nb)

    def __pow__(self, k: int) -> "Expression":
        if not isinstance(k, int):
            raise TypeError("exponent must be an integer")
        if k == 0:
            return self.context.one()
        if self.num.is_zero():
            if k < 0:
                raise DivisionByZero("zero raised to a negative power")
            return self
        if k > 0:
            return _from_reduced(self.context, self.num.pow(k), self.den.pow(k))
        return _from_reduced(self.context, self.den.pow(-k), self.num.pow(-k))

    def diff(self, i: int) -> "Expression":
        """Exact partial derivative with respect to coordinate x^i (1-based)."""
        if not 1 <= i <= self.context.n:
            raise ValueError(f"coordinate index {i} outside 1..{self.context.n}")
        return self._diff_slot(i - 1)

    def _diff_slot(self, slot: int) -> "Expression":
        n, d = self.num, self.den
        dd = d.diff(slot)
        if dd.is_zero():
            return Expression(self.context, n.diff(slot), d)
        # deflate the shared factor of d and d' before the quotient rule
        g = _poly_gcd(d, dd)
        if _is_unit_poly(g):
            return Expression(self.context, n.diff(slot) * d - n * dd, d * d)
        e = d.divexact(g)
        return Expression(self.context, n.diff(slot) * e - n * dd.divexact(g), d * e)

    def sqrt(self) -> Optional["Expression"]:
        """Rational square root with positive leading coefficient, if one exists."""
        num = _poly_sqrt(self.num)
        den = _poly_sqrt(self.den)
        if num is None or den is None:
            return None
        return Expression(self.context, num, den)

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        """Exact value at a rational point (one value per context variable)."""
        if len(point) != self.context.nvars:
            raise ValueError(
                f"need {self.context.nvars} values, got {len(point)}"
            )
        point = tuple(Fraction(v) for v in point)
        den = self.den.evaluate(point)
        if den == 0:
            raise SingularPoint(f"denominator vanishes at {point}")
        return self.num.evaluate(point) / den

    def in_context(self, context: Context) -> "Expression":
        """Re-express in a larger context (same coordinates, superset of parameters)."""
        if context == self.context:
            return self
        if context.n != self.context.n or not set(self.context.params) <= set(
            context.params
        ):
            raise ValueError("target context does not extend the source context")
        mapping = [context.var_index(name) for name in self.context.names]

        def lift(p: _Poly) -> _Poly:
            out = {}
            for mono, c in p.terms.items():
                new = [0] * context.nvars
                for j, e in enumerate(mono):
                    new[mapping[j]] = e
                out[tuple(new)] = c
            return _Poly(out)

        return Expression(context, lift(self.num), lift(self.den))

    # -- identity ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Expression)
            and self.context == other.context
            and self.num.terms == other.num.terms
            and self.den.terms == other.den.terms
        )

    def __hash__(self) -> int:
        return hash((self.context, self.num, self.den))

    def __str__(self) -> str:
        names = self.context.names
        num_s = _poly_str(self.num, names)
        if _is_unit_poly(self.den):
            return num_s
        den_s = _poly_str(self.den, names)
        if len(self.num.terms) > 1:
            num_s = f"({num_s})"
        if not _is_atom(self.den, names):
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}"

    def __repr__(self) -> str:
        return f"Expression({str(self)!r})"


def _canonical_pair(num: _Poly, den: _Poly):
    if den.is_zero():
        raise DivisionByZero("zero denominator")
    if num.is_zero():
        return _PZERO, _unit_like(den)
    g = _poly_gcd(num, den)
    if not _is_unit_poly(g):
        num = num.divexact(g)
        den = den.divexact(g)
    den, num = _primitive(den, num)
    return num, den


def _from_reduced(context: Context, num: _Poly, den: _Poly) -> "Expression":
    """Build an Expression from an already-coprime numerator/denominator pair."""
    if den.is_zero():
        raise DivisionByZero("zero denominator")
    if num.is_zero():
        den = _unit_like(den)
    else:
        den, num = _primitive(den, num)
    expr = object.__new__(Expression)
    object.__setattr__(expr, "context", context)
    object.__setattr__(expr, "num", num)
    object.__setattr__(expr, "den", den)
    return expr


def _unit_like(den: _Poly) -> _Poly:
    return _pconst(den.nvars(), 1)


def _is_unit_poly(p: _Poly) -> bool:
    if len(p.terms) != 1:
        return False
    (mono, coeff), = p.terms.items()
    return coeff == 1 and not any(mono)


def _is_atom(p: _Poly, names) -> bool:
    """True when the polynomial prints as a single /-safe token (int or bare variable)."""
    if len(p.terms) != 1:
        return False
    (mono, coeff), = p.terms.items()
    nz = [(j, e) for j, e in enumerate(mono) if e]
    if not nz:
        return coeff > 0
    return coeff == 1 and len(nz) == 1 and nz[0][1] == 1


def _poly_str(p: _Poly, names) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for mono in sorted(p.terms, key=_grlex_key, reverse=True):
        coeff = p.terms[mono]
        factors = []
        for j, e in enumerate(mono):
            if e == 1:
                factors.append(names[j])
            elif e > 1:
                factors.append(f"{names[j]}^{e}")
        mag = abs(coeff)
        if factors:
            body = "*".join(factors)
            if mag != 1:
                body = f"{mag}*{body}"
        else:
            body = str(mag)
        parts.append((coeff < 0, body))
    first_neg, first = parts[0]
    out = ("-" if first_neg else "") + first
    for neg, body in parts[1:]:
        out += (" - " if neg else " + ") + body
    return out


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|([-+*/^()]))")


def _tokenize(text: str) -> Iterator[tuple]:
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {text[at]!r}", at)
        if m.group(1) is not None:
            yield ("int", int(m.group(1)), m.start(1))
        elif m.group(2) is not None:
            yield ("ident", m.group(2), m.start(2))
        else:
            yield ("op", m.group(3), m.start(3))
        pos = m.end()
    yield ("end", None, len(text))


class _Parser:
    """Recursive-descent parser for the expression grammar.

    Precedence: ``^`` > unary ``-`` > ``*``/``/`` > ``+``/``-``, all binary
    operators left-associative; ``^`` only takes integer literal exponents.
    """

    def __init__(self, text: str, context: Context):
        self.tokens = list(_tokenize(text))
        self.pos = 0
        self.context = context

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, val, at = self.peek()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}", at)
        return self.advance()

    def parse(self) -> Expression:
        expr = self.sum()
        kind, val, at = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {val!r}", at)
        return expr

    def sum(self) -> Expression:
        left = self.product()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                right = self.product()
                left = left + right if val == "+" else left - right
            else:
                return left

    def product(self) -> Expression:
        left = self.unary()
        while True:
            kind, val, at = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                right = self.unary()
                if val == "*":
                    left = left * right
                else:
                    if right.is_zero():
                        raise DivisionByZeroLiteral(
                            f"denominator is zero (at position {at})"
                        )
                    left = left / right
            else:
                return left

    def unary(self) -> Expression:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return -self.unary()
        return self.power()

    def power(self) -> Expression:
        base = self.atom()
        while True:
            kind, val, at = self.peek()
            if kind == "op" and val == "^":
                self.advance()
                exp = self.exponent()
                if exp < 0 and base.is_zero():
                    raise DivisionByZeroLiteral(
                        f"zero raised to a negative power (at position {at})"
                    )
                base = base**exp
            else:
                return base

    def exponent(self) -> int:
        kind, val, at = self.peek()
        if kind == "int":
            self.advance()
            return val
        if kind == "op" and val == "-":
            self.advance()
            kind, val, at = self.peek()
            if kind != "int":
                raise ExprSyntaxError("expected integer exponent", at)
            self.advance()
            return -val
        if kind == "op" and val == "(":
            self.advance()
            value = self.exponent()
            self.expect_op(")")
            return value
        raise ExprSyntaxError("expected integer exponent", at)

    def atom(self) -> Expression:
        kind, val, at = self.advance()
        if kind == "int":
            return self.context.rational(val)
        if kind == "ident":
            if val in self.context._index:
                idx = self.context._index[val]
                if idx < self.context.n:
                    return self.context.coordinate(idx + 1)
                return self.context.parameter(val)
            raise UnknownIdentifier(f"unknown identifier {val!r}", at)
        if kind == "op" and val == "(":
            expr = self.sum()
            self.expect_op(")")
            return expr
        raise ExprSyntaxError(
            "expected integer, identifier or parenthesized expression", at
        )


def parse(text: str, n: int, params: Iterable[str] = ()) -> Expression:
    """Parse expression text over coordinates x1..xn and the given parameters."""
    return parse_in(text, Context(n, params))


def parse_in(text: str, context: Context) -> Expression:
    return _Parser(text, context).parse()
