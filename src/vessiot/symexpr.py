"""Exact multivariate rational expressions.

The scalar domain of the whole engine: quotients of multivariate polynomials
over the rationals, in chart coordinates ``x1..xn`` plus declared parameter
symbols.  Every expression is kept in a canonical form (coprime
numerator/denominator pair, integer coefficients with unit content across the
pair, positive leading denominator coefficient under graded-lexicographic
order), so equality, zero-testing and constancy are decidable by direct
comparison.  The polynomial kernel therefore works over the integers only;
rational numbers appear at the API, as inputs and exact values.

Each monomial is one packed integer key (Monagan & Pearce, CASC 2007).  Over
v variables the key has v + 1 fields of ``_W`` bits: the total degree in the
most significant one, then the exponents of x1..xn and of the parameters in
descending significance.  So the key of a product of monomials is the sum of
their keys, and integer order is graded-lexicographic order.  The top bit of
each field is a guard bit above every value the field holds: total degrees
stay within MAX_TOTAL_DEGREE = 2^(_W - 1) - 1, so a sum of two keys never
carries from one field into the next, and in (a | guards) - b each field keeps
its guard bit exactly when its exponent in a is at least the one in b.  A
nonconstant key's degree field is its highest nonzero one, so the key's bit
length tells how many variables it has.
"""

from __future__ import annotations

import re
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd as _igcd
from math import comb, isqrt, lcm
from typing import Iterable, Optional, Sequence

from .errors import (
    DivisionByZero,
    DivisionByZeroLiteral,
    ExprSyntaxError,
    InputTooLarge,
    SingularPoint,
    UnknownIdentifier,
    quoted,
)

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*")


class Context:
    """Variable environment: coordinates ``x1..xn`` plus named parameters.

    The variable order is x1 < x2 < ... < xn followed by the parameters in
    alphabetical order; this fixed order is what makes canonical forms
    reproducible.
    """

    __slots__ = ("n", "params", "names", "_index", "_coordinates", "_keys", "_atoms")

    def __init__(self, n: int, params: Iterable[str] = ()):
        if not 1 <= n <= 9:
            raise ValueError("ambient dimension must be between 1 and 9")
        params = tuple(sorted(set(params)))
        coords = tuple(f"x{i}" for i in range(1, n + 1))
        for p in params:
            if not _IDENT_RE.fullmatch(p):
                raise ValueError(f"invalid parameter name {quoted(p)}")
            if p in coords:
                raise ValueError(f"parameter {p!r} collides with a coordinate")
        self.n = n
        self.params = params
        self.names = coords + params
        self._index = {name: i for i, name in enumerate(self.names)}
        # the coordinate fields of a key: n fields above the parameters' ones
        self._coordinates = _ones(n - 1) * _FIELD << _W * len(params)
        # name -> the key of that variable, and its single-term kernel polynomial
        self._keys = {
            name: _pack(tuple(int(j == slot) for j in range(len(self.names))))
            for slot, name in enumerate(self.names)
        }
        self._atoms = {name: _Poly({key: 1}) for name, key in self._keys.items()}

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
        return _from_reduced(self, _PZERO, _pconst(1))

    def one(self) -> "Expression":
        return self.rational(Fraction(1))

    def rational(self, value) -> "Expression":
        value = Fraction(value)
        den = value.denominator
        return _from_reduced(self, _pconst(value.numerator), _pconst(den), (den, {}))

    def coordinate(self, i: int) -> "Expression":
        if not 1 <= i <= self.n:
            raise ValueError(f"coordinate index {i} outside 1..{self.n}")
        return self._variable(i - 1)

    def parameter(self, name: str) -> "Expression":
        if name not in self.params:
            raise ValueError(f"{name!r} is not a declared parameter")
        return self._variable(self._index[name])

    def _variable(self, slot: int) -> "Expression":
        return _from_reduced(self, self._atoms[self.names[slot]], _pconst(1))

    def default_point(self) -> tuple:
        """Default sample point: variable j evaluates to j + 2 (so x^i = i + 1)."""
        return tuple(Fraction(j + 2) for j in range(self.nvars))

    def complete_point(self, point: Optional[Sequence] = None) -> tuple:
        """The given values as Fractions, followed by the default point's values
        for the variables they leave out; the default point when none is given."""
        point = () if point is None else tuple(Fraction(v) for v in point)
        if len(point) > self.nvars:
            raise ValueError(f"need at most {self.nvars} values, got {len(point)}")
        return point + self.default_point()[len(point):]


def integer_point(point: Sequence[Fraction]) -> tuple:
    """(a, scale) with point = a / scale: scale the lcm of the denominators
    and a the list of integer numerators over it (scale 1 for an integer point)."""
    scale = lcm(*(v.denominator for v in point))
    return [v.numerator * (scale // v.denominator) for v in point], scale


# ----------------------------------------------------------------------
# packed monomials (internal)
# ----------------------------------------------------------------------

_W = 32  # bits per field of a monomial key, the top one a guard bit
_FIELD = (1 << _W) - 1


def _pack(mono: Sequence[int]) -> int:
    """The key of an exponent vector: its total degree, then each exponent."""
    key = sum(mono)
    for e in mono:
        key = key << _W | e
    return key


def _unpack(key: int, nvars: int) -> tuple:
    """The exponent vector of a key over nvars variables."""
    return tuple([key >> shift & _FIELD for shift in range(_W * (nvars - 1), -1, -_W)])


def _nvars(key: int) -> int:
    """How many variables a nonconstant key has; 0 for the constant key."""
    return max(key.bit_length() - 1, 0) // _W


def _degree(key: int) -> int:
    return key >> _W * _nvars(key)


def _ones(nvars: int) -> int:
    """The lowest bit of every field of a key over nvars variables, the
    degree field included."""
    return ((1 << _W * (nvars + 1)) - 1) // _FIELD


def _check_degree(lead: int) -> None:
    """InputTooLarge when the key of a product's leading monomial, the sum of
    its factors' leading keys, has a total degree past MAX_TOTAL_DEGREE."""
    degree = _degree(lead)
    if degree > MAX_TOTAL_DEGREE:
        raise InputTooLarge(
            f"product of total degree {degree} exceeds the limit of {MAX_TOTAL_DEGREE}"
        )


# ----------------------------------------------------------------------
# sparse multivariate polynomials (internal)
# ----------------------------------------------------------------------


def _merge(out: dict, other: "_Poly", sign: int) -> dict:
    """out += sign * other (sign = 1 or -1), in place, for terms of a
    polynomial the caller owns; a key whose sum is 0 is deleted.  The one
    polynomial-sum loop.  A term new to out is stored as it is: a sign
    product per term would copy each long coefficient."""
    for mono, c in other.terms.items():
        if sign < 0:
            c = -c
        s = out.get(mono)
        if s is None:
            out[mono] = c
        else:
            s += c
            if s:
                out[mono] = s
            else:
                del out[mono]
    return out


class _Poly:
    """Sparse polynomial over the integers: monomial key -> nonzero int.

    Canonical pairs always scale to integer coefficients, so the kernel holds
    no rational coefficient; rationals appear only at the ``Expression`` API
    (``Context.rational``, ``constant_value``, ``evaluate``).
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, _Poly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def leading(self) -> tuple:
        """(monomial, coefficient) maximal under grlex."""
        mono = max(self.terms)
        return mono, self.terms[mono]

    def used_slots(self) -> set:
        used = 0
        for mono in self.terms:
            used |= mono
        nvars = _nvars(used)
        return {j for j in range(nvars) if used >> _W * (nvars - 1 - j) & _FIELD}

    def __add__(self, other: "_Poly") -> "_Poly":
        return _Poly(_merge(dict(self.terms), other, 1))

    def __sub__(self, other: "_Poly") -> "_Poly":
        return _Poly(_merge(dict(self.terms), other, -1))

    def __neg__(self) -> "_Poly":
        return _Poly({m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "_Poly") -> "_Poly":
        if not self.terms or not other.terms:
            return _PZERO
        if len(self.terms) == 1 or len(other.terms) == 1:
            single, p = (self, other) if len(self.terms) == 1 else (other, self)
            ((shift, c),) = single.terms.items()
            if shift:
                _check_degree(shift + max(p.terms))
                return _Poly({m + shift: v * c for m, v in p.terms.items()})
            if c == 1:
                return p
            return _Poly({m: v * c for m, v in p.terms.items()})
        if len(self.terms) * len(other.terms) > MAX_MUL_PAIRS:
            raise InputTooLarge(
                f"product of {len(self.terms)} by {len(other.terms)} terms exceeds"
                f" the limit of {MAX_MUL_PAIRS} term pairs"
            )
        _check_degree(max(self.terms) + max(other.terms))
        out: dict = {}
        get = out.get
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = m1 + m2
                out[mono] = get(mono, 0) + c1 * c2
        return _Poly({m: c for m, c in out.items() if c})

    def pow(self, k: int) -> "_Poly":
        if k < 0:
            raise ValueError("negative polynomial power")
        degree = k * self.total_degree()
        if degree > MAX_POWER_DEGREE:
            raise InputTooLarge(
                f"power of total degree {degree} exceeds the limit of {MAX_POWER_DEGREE}"
            )
        if len(self.terms) == 1:  # k times every field of the key: one term, no term budget
            ((mono, c),) = self.terms.items()
            return _Poly({mono * k: c**k})
        # at most one term per multiset of k base terms, and per monomial of
        # total degree <= degree in the slots the base uses
        slots = len(self.used_slots())
        terms = min(comb(len(self.terms) + k - 1, k), comb(degree + slots, slots)) if k else 1
        if terms > MAX_POWER_TERMS:
            raise InputTooLarge(f"power of up to {terms} terms exceeds the limit of {MAX_POWER_TERMS}")
        result = _pconst(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def diff(self, slot: int) -> "_Poly":
        for mono in self.terms:  # every nonconstant key has the same fields
            if mono:
                top = _W * _nvars(mono)
                break
        else:
            return _PZERO
        shift = top - _W * (slot + 1)
        step = 1 << top | 1 << shift  # one off the exponent and off the degree
        out: dict = {}
        for mono, c in self.terms.items():
            e = mono >> shift & _FIELD
            if e:
                out[mono - step] = c * e
        return _Poly(out)

    def total_degree(self) -> int:
        return _degree(max(self.terms, default=0))

    def value(self, point: Sequence[int], scale: int, degree: int) -> int:
        """scale^degree * self(point / scale) for integer point values, one per
        variable: the sum of c * point^e * scale^(degree - |e|) over the terms,
        an integer when degree is at least the total degree (any degree when
        scale is 1)."""
        total = 0
        for mono, c in self.terms.items():
            for val in reversed(point):  # the last variable has the lowest field
                e = mono & _FIELD
                if e:
                    c *= val**e
                mono >>= _W
            if scale != 1:
                c *= scale ** (degree - mono)  # what is left of the key is |e|
            total += c
        return total

    def divexact(self, other: "_Poly") -> "_Poly":
        """Exact quotient with integer coefficients; ArithmeticError when none.

        When ``other`` is primitive, an integer quotient exists whenever any
        rational one does (Gauss's lemma).  The remainder's terms are taken in
        descending grlex order from a heap of negated keys (Monagan & Pearce,
        CASC 2007), so no step rescans the remainder.
        """
        if not other.terms:
            raise ZeroDivisionError("polynomial division by zero")
        if not self.terms:
            return _PZERO
        lead, lc = other.leading()
        tail = [(m, c) for m, c in other.terms.items() if m != lead]
        guards = _ones(_nvars(max(self.terms) | lead)) << _W - 1
        # an exact quotient has exponents in 0..deg_j(self) - deg_j(other) in
        # every slot j, and total degree deg(self) - deg(other); a quotient
        # term outside that box proves the division inexact and bounds the walk.
        # (a | guards) - b keeps the guard bit of each field where a >= b.
        box = (_max_degrees(self) | guards) - _max_degrees(other)
        if box & guards != guards:
            raise ArithmeticError("inexact polynomial division")
        # the lowest grlex term of a product is the product of the lowest
        # terms, so the divisor's must divide the dividend's
        low, first = min(other.terms), min(self.terms)
        if ((first | guards) - low) & guards != guards or self.terms[first] % other.terms[low]:
            raise ArithmeticError("inexact polynomial division")
        rem = dict(self.terms)
        heap = [-m for m in rem]
        heapify(heap)
        out = {}
        while heap:
            key = -heappop(heap)
            rc = rem.pop(key, 0)
            if not rc:
                continue
            q = (key | guards) - lead
            if q & guards != guards or (box - (q ^ guards)) & guards != guards or rc % lc:
                raise ArithmeticError("inexact polynomial division")
            q ^= guards
            qc = rc // lc
            out[q] = qc
            for tk, tc in tail:
                k = q + tk
                s = rem.get(k)
                if s is None:
                    rem[k] = -qc * tc
                    heappush(heap, -k)
                else:
                    s -= qc * tc
                    if s:
                        rem[k] = s
                    else:
                        del rem[k]
        return _Poly(out)


def _max_degrees(p: _Poly) -> int:
    """The key whose every field is that field's largest value over the
    monomials of p (a nonzero polynomial): its total degree, then its degree
    in each variable."""
    top = max(p.terms)
    shift = _W * _nvars(top)
    out = top >> shift << shift
    while shift:
        shift -= _W
        out |= max(m >> shift & _FIELD for m in p.terms) << shift
    return out


_PZERO = _Poly({})
_UNIT = _Poly({0: 1})


def _pconst(value: int) -> _Poly:
    if not value:
        return _PZERO
    return _Poly({0: value})


def _primitive(p: _Poly, *cofactors: _Poly) -> tuple:
    """(content, p/content, *cofactors/content) for nonzero p: the content is
    the integer gcd of all their coefficients, signed so that p/content gets a
    positive leading coefficient."""
    content = _igcd(*p.terms.values(), *(c for f in cofactors for c in f.terms.values()))
    if p.leading()[1] < 0:
        content = -content
    if content == 1:
        return (1, p, *cofactors)
    return (content, *(
        _Poly({m: c // content for m, c in f.terms.items()}) for f in (p, *cofactors)
    ))


# -- multivariate gcd ---------------------------------------------------


def _cancel(a: _Poly, b: _Poly) -> tuple:
    """(a/g, b/g, g) for the gcd g of a and b (not both zero): primitive, with
    a positive leading coefficient, and 1 for coprime inputs, which come back
    unchanged.  The one gcd entry point, and the one place where a common
    factor is divided out.

    Each path takes the quotients from its own construction of g, in order:
    a unit operand (the polynomial 1); a zero operand; a single-term operand;
    equal primitive parts; a trial division of the primitive part of higher
    total degree by the other one, whose exact quotient is that operand's
    cofactor (a primitive operand of degree 1 is irreducible, so when it does
    not divide, g is 1); then the heuristic gcd, whose verified candidate
    comes with both cofactors.
    InputTooLarge when the heuristic gives up; no known input reaches that.
    """
    if _is_unit_poly(a) or _is_unit_poly(b):
        return a, b, _UNIT
    if not a.terms:
        cb, g = _primitive(b)
        return a, _pconst(cb), g
    if not b.terms:
        ca, g = _primitive(a)
        return _pconst(ca), b, g
    if len(a.terms) == 1 or len(b.terms) == 1:
        shared = _monomial_gcd(a, b)
        if shared:
            a, b = (_Poly({m - shared: c for m, c in p.terms.items()}) for p in (a, b))
        return a, b, _Poly({shared: 1})
    ca, pa = _primitive(a)
    cb, pb = _primitive(b)
    if pa.terms == pb.terms:  # equal up to a constant factor, sign included
        return _pconst(ca), _pconst(cb), pa
    da, db = _degree(max(pa.terms)), _degree(max(pb.terms))
    # of equal degrees, only associates divide, and those were taken above
    if da < db:
        quotient = _trial_quotient(pb, pa)
        if quotient is not None:
            return _pconst(ca), quotient * _pconst(cb), pa
    elif db < da:
        quotient = _trial_quotient(pa, pb)
        if quotient is not None:
            return quotient * _pconst(ca), _pconst(cb), pb
    if min(da, db) == 1:
        return a, b, _pconst(1)
    found = _heu_gcd(pa, pb)
    if found is None:
        raise InputTooLarge(
            f"gcd of {len(a.terms)} and {len(b.terms)} terms: the heuristic gave up"
            f" after {_HEU_TRIES} evaluation points"
        )
    g, qa, qb = found
    return qa * _pconst(ca), qb * _pconst(cb), g


def _trial_quotient(t: _Poly, s: _Poly) -> Optional[_Poly]:
    """t/s when the primitive s divides t exactly, else None.

    When s divides t, t(1, ..., 1) is a multiple of s(1, ..., 1), so sums of
    coefficients that are not refuse the division before it starts.
    """
    ss, st = sum(s.terms.values()), sum(t.terms.values())
    if st % ss if ss else st:
        return None
    try:
        return t.divexact(s)
    except ArithmeticError:
        return None


def _monomial_gcd(a: _Poly, b: _Poly) -> int:
    """Key of the gcd when at least one operand is a single term: the shared
    monomial part.  Only the fields the single term uses are scanned, so a
    constant operand returns at once."""
    single, other = (a, b) if len(a.terms) == 1 else (b, a)
    (mono,) = single.terms
    top = _W * _nvars(mono)
    shared = degree = 0
    for shift in range(0, top, _W):
        e = mono >> shift & _FIELD
        if e:
            e = min(e, min(m >> shift & _FIELD for m in other.terms))
            shared |= e << shift
            degree += e
    return shared | degree << top


# -- denominators as products of linear forms ---------------------------
#
# A factorization (c, bases) stands for c * prod(L^k for L, k in bases.items()):
# c a nonzero integer, each base L a distinct primitive polynomial of total
# degree 1 with a positive leading coefficient (a lone variable counts), k >= 1.
# A base is irreducible, so distinct ones are coprime: the gcd of two such
# polynomials is prod L^min, and a polynomial shares with one only the bases
# that divide it.  Their product is primitive (Gauss), so c is the content.
# The dicts are shared between expressions and never written once made.

_ONE = (1, {})  # the factorization of the polynomial 1


def _linear_factors(p: _Poly) -> Optional[tuple]:
    """The factorization of a nonzero constant, single-term or total-degree-1
    polynomial; None for any other."""
    if len(p.terms) == 1:
        ((mono, c),) = p.terms.items()
        top = _W * _nvars(mono)
        return c, {
            _Poly({1 << top | 1 << shift: 1}): mono >> shift & _FIELD
            for shift in range(0, top, _W) if mono >> shift & _FIELD
        }
    if _degree(max(p.terms)) != 1:
        return None
    c, base = _primitive(p)
    return c, {base: 1}


def _power_factors(f: Optional[tuple], k: int) -> Optional[tuple]:
    """The factorization of the k-th power (k >= 0); None for None."""
    if f is None:
        return None
    c, bases = f
    return c**k, {base: e * k for base, e in bases.items()} if k else {}


def _product_factors(f: Optional[tuple], g: Optional[tuple]) -> Optional[tuple]:
    """The factorization of the product; None when either is None."""
    if f is None or g is None:
        return None
    (c, a), (d, b) = f, g
    if not b or not a:
        return c * d, a or b
    out = dict(a)
    for base, k in b.items():
        out[base] = out.get(base, 0) + k
    return c * d, out


def _minus(bases: dict, shared: dict) -> dict:
    return {base: k - shared.get(base, 0) for base, k in bases.items() if k > shared.get(base, 0)}


def _coprime_parts(a: _Poly, fa: Optional[tuple], b: _Poly, fb: Optional[tuple]) -> tuple:
    """(a/g, b/g, g, and their factorizations) for g = gcd(a, b) and fa, fb the
    factorizations of a and b: g is the product of their shared bases, with no
    gcd run.  When either is None, ``_cancel``'s triple and three Nones."""
    if fa is None or fb is None:
        return (*_cancel(a, b), None, None, None)
    (c, ba), (d, bb) = fa, fb
    shared = {base: min(k, bb[base]) for base, k in ba.items() if base in bb}
    if not shared:
        return a, b, _UNIT, fa, fb, _ONE
    fa, fb = (c, _minus(ba, shared)), (d, _minus(bb, shared))
    return _expand(*fa), _expand(*fb), _expand(1, shared), fa, fb, (1, shared)


def _expand(c: int, bases: dict) -> _Poly:
    """The polynomial c * prod L^k, one product by a base at a time, each held
    to MAX_MUL_PAIRS and MAX_TOTAL_DEGREE like every other product."""
    p = _pconst(c)
    for base, k in bases.items():
        for _ in range(k):
            p = p * base
    return p


def _divide_out(n: _Poly, d: _Poly, f: Optional[tuple],
                only: Optional[Iterable[_Poly]] = None) -> tuple:
    """(n/h, d/h, f/h) for h = gcd(n, d) and f the factorization of d, when no
    base of f outside ``only`` (all when None) can divide n: trial divisions by
    linear bases, no gcd.  d and f as they are when h is 1, as for a constant
    n.  When f is None, ``_cancel`` of a nonzero n, and None for f/h."""
    if f is None:
        return (*_cancel(n, d)[:2], None) if n.terms else (n, d, None)
    c, bases = f
    if not bases or not any(n.terms):
        return n, d, f
    shared = {}
    for base in bases if only is None else only:
        j, k = 0, bases[base]
        while j < k and (q := _trial_quotient(n, base)) is not None:
            n, j = q, j + 1
        if j:
            shared[base] = j
    if not shared:
        return n, d, f
    f = c, _minus(bases, shared)
    return n, _expand(*f), f


def _deflate(f: tuple, slot: int) -> tuple:
    """(e, d'', the factorization of d*e, the bases free of x_i) for d the
    product f, d' its nonzero x_i-derivative and g = gcd(d, d'): d = g*c*e and
    d' = g*c*d'' for e the product of the bases L that involve x_i and d'' the
    sum of k_L * dL/dx_i times the others.  Modulo each such L, n'*e - n*d'' is
    -n*d'', not 0 for n coprime to d, so only the bases free of x_i can divide it."""
    c, bases = f
    e, de, grown, free = _UNIT, _PZERO, dict(bases), []
    for base, k in bases.items():
        slope = base.diff(slot)
        if slope.terms:
            de, e = de * base + e * _pconst(k * slope.terms[0]), e * base
            grown[base] = k + 1
        else:
            free.append(base)
    return e, de, (c, grown), free


# -- heuristic gcd over integer coefficients ---------------------------

_HEU_TRIES = 6


def _heu_gcd(f: _Poly, g: _Poly) -> Optional[tuple]:
    """GCDHEU (Char, Geddes & Gonnet 1989) on primitive f and g with positive
    leading coefficients: (h, f/h, g/h) for their gcd h, or None when the
    heuristic gives up.

    Evaluates one variable at an integer xi, recurses on the images (their
    gcd keeps its integer content, which the digits need), lifts the image gcd
    back by balanced base-xi digits, and keeps the candidate only when it
    divides both inputs exactly; those divisions are the cofactors.  The
    candidate 1 divides everything and is taken unchecked, and an input equal
    to the candidate has cofactor 1 with no division: the other division
    verifies the candidate.
    """
    used = 0
    for p in (f, g):
        for mono in p.terms:
            used |= mono
    if not used:
        return f, f, g  # primitive constants: f = g = 1
    # the key of the first variable either one uses: a one in its field, the
    # highest nonzero field below the degree, and a one in the degree field
    top = _W * _nvars(used)
    below = used & ((1 << top) - 1)  # the variables' fields
    var = 1 << top | 1 << (below.bit_length() - 1) // _W * _W
    xi = 2 * min(max(map(abs, f.terms.values())), max(map(abs, g.terms.values()))) + 29
    for _ in range(_HEU_TRIES):
        fe = _eval_at(f, var, xi)
        ge = _eval_at(g, var, xi)
        if fe.terms and ge.terms:
            cfe, fe = _primitive(fe)
            cge, ge = _primitive(ge)
            image = _heu_gcd(fe, ge)
            if image is not None:
                h = image[0] * _pconst(_igcd(cfe, cge))
                _, cand = _primitive(_interp(h, var, xi))
                if _is_unit_poly(cand):
                    return cand, f, g
                try:
                    return cand, *(
                        _pconst(1) if p.terms == cand.terms else p.divexact(cand)
                        for p in (f, g)
                    )
                except ArithmeticError:
                    pass
        xi = xi * 73794 // 27011
    return None


def _eval_at(f: _Poly, var: int, xi: int) -> _Poly:
    """f at xi in the variable whose key is var."""
    shift = (var & -var).bit_length() - 1
    out: dict = {}
    for mono, c in f.terms.items():
        e = mono >> shift & _FIELD
        key = mono - e * var
        out[key] = out.get(key, 0) + c * xi**e
    return _Poly({m: c for m, c in out.items() if c})


def _interp(h: _Poly, var: int, xi: int) -> _Poly:
    """Recover the dependence on the variable whose key is var from base-xi
    balanced digits."""
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
                out[mono + e * var] = r
            q = (c - r) // xi
            if q:
                nxt[mono] = q
        cur = nxt
        e += 1
    return _Poly(out)


def _poly_sqrt(p: _Poly) -> Optional[_Poly]:
    """Exact square root with positive leading coefficient, or None when p is
    not a perfect polynomial square.

    The root of an integer square has integer coefficients (Gauss's lemma),
    so a root coefficient that is not an integer means there is no root.
    """
    if p.is_zero():
        return p
    mono, coeff = p.leading()
    ones = _ones(_nvars(mono))
    if coeff < 0 or mono & ones:  # an odd exponent
        return None
    root = isqrt(coeff)
    if root * root != coeff:
        return None
    lead = mono >> 1  # every field even: each one halves
    guards = ones << _W - 1
    twice = 2 * root
    s = _Poly({lead: root})
    rem = p - s * s
    for _ in range(len(p.terms) * (len(p.terms) + 2) + 4):
        if rem.is_zero():
            return s
        rm, rc = rem.leading()
        q = (rm | guards) - lead
        if q & guards != guards or rc % twice:
            return None
        t = _Poly({q ^ guards: rc // twice})
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
    identical.  ``factors`` is the denominator's factorization into linear
    bases where construction gives it (the parser's divisors, and negation,
    products, quotients, sums and derivatives of such expressions), else None;
    arithmetic over it runs no gcd.
    """

    __slots__ = ("context", "num", "den", "factors")

    def __init__(self, context: Context, num: _Poly, den: _Poly):
        if num.terms and den.terms:  # _fill settles a zero num or den
            num, den, _ = _cancel(num, den)
        _fill(self, context, num, den)

    def __setattr__(self, *args):
        raise AttributeError("Expression is immutable")

    # -- basic predicates ----------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        """True iff no coordinate x1..xn occurs in the numerator or denominator.

        Parameters count as constants.  Because the stored pair is coprime,
        this is the same as every coordinate partial derivative vanishing.
        """
        mask = self.context._coordinates
        return not any(m & mask for p in (self.num, self.den) for m in p.terms)

    def constant_value(self) -> Optional[Fraction]:
        """The value as an exact rational, when no variable appears at all."""
        if any(self.num.terms) or any(self.den.terms):  # 0 is the key of 1
            return None
        return Fraction(self.num.terms.get(0, 0), self.den.terms[0])

    def fixed_sign(self) -> int:
        """+1 or -1 when the value has that sign wherever it is defined and
        nonzero, for every real value of every variable (parameters too);
        0 when no such certificate is found.

        Certified: numerator and denominator each have even exponents only
        and coefficients of one sign.  Nonzero constants are the base case.
        """
        sign = 1
        odd = _ones(self.context.nvars)
        for p in (self.num, self.den):
            signs = {c > 0 for c in p.terms.values()}
            if len(signs) != 1 or any(m & odd for m in p.terms):
                return 0
            sign = sign if signs.pop() else -sign
        return sign

    # -- arithmetic ------------------------------------------------------

    def _check(self, other: "Expression") -> None:
        if self.context != other.context:
            raise ValueError("expressions from different contexts")

    def __add__(self, other: "Expression") -> "Expression":
        # stored pairs are coprime, so only cross factors need cancelling
        # (same scheme as stdlib fractions);  the result pair is again coprime
        self._check(other)
        na, da, nb, db = self.num, self.den, other.num, other.den
        fa, fb = self.factors, other.factors
        if da == db:
            return _from_reduced(self.context, *_divide_out(na + nb, da, fa if fa else fb))
        # da = s*g and db = e*g; of g, only the part coprime to t stays
        s, e, g, fs, fe, fg = _coprime_parts(da, fa, db, fb)
        t = na * e + nb * s
        f = _product_factors(fs, fe)
        if _is_unit_poly(g):
            return _from_reduced(self.context, t, s * e, f)
        t, h, fh = _divide_out(t, g, fg)
        return _from_reduced(self.context, t, s * (e * h), _product_factors(f, fh))

    def __sub__(self, other: "Expression") -> "Expression":
        return self + (-other)

    def __neg__(self) -> "Expression":
        # negation keeps the pair coprime, its content and the sign of den
        return _store(object.__new__(Expression), self.context, -self.num, self.den, self.factors)

    def __mul__(self, other: "Expression") -> "Expression":
        self._check(other)
        return self._times(other.num, other.den, other.factors)

    def __truediv__(self, other: "Expression") -> "Expression":
        self._check(other)
        if other.num.is_zero():
            raise DivisionByZero("division by an expression that normalizes to 0")
        # the swapped pair is coprime too; its content and sign settle in _fill
        return self._times(other.den, other.num, _linear_factors(other.num), other.factors)

    def _times(self, nb: _Poly, db: _Poly, fb: Optional[tuple],
               fnb: Optional[tuple] = None) -> "Expression":
        """self * nb/db for a coprime pair nb, db (db nonzero), with fb the
        factorization of db and fnb the one of nb, each None when not known.
        A numerator meets a factored denominator in trial divisions by its
        bases, and two factorizations meet in their exponents: no gcd.
        The operand 1/1 gives self."""
        if _is_unit_poly(nb) and _is_unit_poly(db):
            return self
        na, db, fb = _divide_out(self.num, db, fb)
        if fnb is None:
            nb, da, fa = _divide_out(nb, self.den, self.factors)
        else:
            nb, da, _, _, fa, _ = _coprime_parts(nb, fnb, self.den, self.factors)
        return _from_reduced(self.context, na * nb, da * db, _product_factors(fa, fb))

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
            return _from_reduced(
                self.context, self.num.pow(k), self.den.pow(k), _power_factors(self.factors, k)
            )
        return _from_reduced(
            self.context, self.den.pow(-k), self.num.pow(-k),
            _power_factors(_linear_factors(self.num), -k),
        )

    def diff(self, i: int) -> "Expression":
        """Exact partial derivative with respect to coordinate x^i (1-based):
        the one-expression case of ``derivatives``."""
        return derivatives((self,), i)[0]

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
        ints, scale = integer_point(point)
        degree = max(self.num.total_degree(), self.den.total_degree())
        den = self.den.value(ints, scale, degree)
        if den == 0:
            raise SingularPoint(f"denominator vanishes at {point}")
        return Fraction(self.num.value(ints, scale, degree), den)

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
                for j, e in enumerate(_unpack(mono, self.context.nvars)):
                    new[mapping[j]] = e
                out[_pack(new)] = c
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
        return self.render({})

    def render(self, memo: dict) -> str:
        """The text of self, with memo the {id(poly): text} of the kernel
        polynomials already printed in one rendering call: expressions that
        share a numerator or denominator object print it once.  A memo lives
        for one call only, while the objects its keys name are alive."""
        names = self.context.names
        texts = []
        for p in (self.num,) if _is_unit_poly(self.den) else (self.num, self.den):
            s = memo.get(id(p))
            if s is None:
                s = memo[id(p)] = _poly_str(p, names)
            texts.append(s)
        if len(texts) == 1:
            return texts[0]
        num_s, den_s = texts
        if len(self.num.terms) > 1:
            num_s = f"({num_s})"
        if not _is_atom(self.den):
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}"

    def __repr__(self) -> str:
        return f"Expression({str(self)!r})"


def common_denominator(exprs: Iterable[Expression]) -> tuple:
    """(e, [e*x for each x]) as kernel polynomials: the lcm e of the
    denominators of one or more expressions, and each expression over it.

    Kernel arithmetic needs no gcd and no content step, so a chain can stay
    polynomial and reduce once, as ``Expression(context, numerator, e^k)``.
    Each e*x is num * (e/den), with the cofactor e/den taken from the lcm's
    own construction: no further gcd and no division.  Over factored
    denominators, the shared part comes from their exponents: no gcd at all.
    """
    exprs = list(exprs)
    lcm, f = exprs[0].den, exprs[0].factors
    one = _pconst(1)
    cofactors = [one]
    for x in exprs[1:]:
        # lcm = rest*g and x.den = grow*g, so the new lcm is lcm*grow = x.den*rest
        rest, grow, _, _, fg, _ = _coprime_parts(lcm, f, x.den, x.factors)
        f = _product_factors(f, fg)
        cofactors = [c * grow for c in cofactors] + [rest]
        lcm = lcm * grow
    return lcm, [x.num * c for x, c in zip(exprs, cofactors)]


def derivatives(exprs: Iterable[Expression], i: int) -> list:
    """The exact partial derivative of each expression with respect to
    coordinate x^i (1-based), in order: the one quotient rule.

    n/d -> (n' e - n d'') / (d e), where d = g e and d' = g d'' for the gcd
    g of d and d', deflated first.  The deflation runs once per distinct
    denominator, so expressions sharing one (the coefficients of a jet
    equation) pay for one gcd; a d free of x^i needs none, and no lookup.
    A factored d is deflated from its exponents (``_deflate``), and only its
    bases free of x^i are tried against the new numerator: no gcd.
    """
    slot = i - 1
    out = []
    deflated: dict = {}  # den -> (e, d'', factorization of d e, bases free of x^i)
    for x in exprs:
        if not 0 <= slot < x.context.n:
            raise ValueError(f"coordinate index {i} outside 1..{x.context.n}")
        num, den, f = x.num, x.den, x.factors
        dd = den.diff(slot)
        if not dd.terms:
            out.append(_from_reduced(x.context, *_divide_out(num.diff(slot), den, f)))
            continue
        pair = deflated.get(den)
        if pair is None:
            pair = deflated[den] = (
                (*_cancel(den, dd)[:2], None, None) if f is None else _deflate(f, slot)
            )
        e, de, f, free = pair
        t = num.diff(slot) * e - num * de
        out.append(_from_reduced(x.context, *_divide_out(t, den * e, f, free)))
    return out


def cancel_bases(x: Expression, *polys: _Poly) -> tuple:
    """(d/h, p_1/h_1, p_2/h_2, ...) for x's denominator d and h = h_1 h_2 ...
    the gcd of d and p_1 p_2 ...: each p_k in turn gives up the bases left in
    d that divide it, in trial divisions by linear bases with no gcd run.
    (d, p_1, p_2, ...) when d is not factored."""
    d, f = x.den, x.factors
    if f is None:
        return (d, *polys)
    out = []
    for p in polys:
        p, d, f = _divide_out(p, d, f)
        out.append(p)
    return (d, *out)


def curl_numerator(e: _Poly, de: Sequence[_Poly], f: _Poly, i: int, g: _Poly, j: int) -> _Poly:
    """e^2 (d_i (f/e) - d_j (g/e)) = (d_i f - d_j g) e - f d_i e + g d_j e, with
    no gcd, for kernel polynomials over one denominator e (``common_denominator``);
    ``de[s]`` is d_s e, so that many curls over one e differentiate it once."""
    return (f.diff(i) - g.diff(j)) * e - f * de[i] + g * de[j]


def _from_reduced(context: Context, num: _Poly, den: _Poly,
                  factors: Optional[tuple] = None) -> "Expression":
    """Build an Expression from an already-coprime numerator/denominator pair,
    with the denominator's factorization when it is known."""
    return _fill(object.__new__(Expression), context, num, den, factors)


def _fill(expr: "Expression", context: Context, num: _Poly, den: _Poly,
          factors: Optional[tuple] = None) -> "Expression":
    """Store a coprime pair in expr, scaled to unit content across the pair and
    a positive leading denominator coefficient.  A factored denominator's
    content is the factorization's constant, signed as its leading
    coefficient, so only the numerator's coefficients are read."""
    if den.is_zero():
        raise DivisionByZero("zero denominator")
    if num.is_zero():
        den, factors = _UNIT, _ONE
    elif _is_unit_poly(den):  # over 1 the pair is scaled already
        factors = _ONE
    elif factors is None:
        _, den, num = _primitive(den, num)
    else:
        c, bases = factors
        content = _igcd(c, *num.terms.values())
        if c < 0:
            content = -content
        if content != 1:
            den, num = (_Poly({m: v // content for m, v in p.terms.items()}) for p in (den, num))
            factors = c // content, bases
    return _store(expr, context, num, den, factors)


def _store(expr: "Expression", context: Context, num: _Poly, den: _Poly,
           factors: Optional[tuple]) -> "Expression":
    """Store a pair already in the canonical form of ``_fill`` in expr."""
    _set_context(expr, context)
    _set_num(expr, num)
    _set_den(expr, den)
    _set_factors(expr, factors)
    return expr


# the slots' own setters, which Expression.__setattr__ does not reach
_set_context, _set_num, _set_den, _set_factors = (
    Expression.__dict__[name].__set__ for name in Expression.__slots__
)


def _is_unit_poly(p: _Poly) -> bool:
    terms = p.terms
    return len(terms) == 1 and terms.get(0) == 1


def _is_atom(p: _Poly) -> bool:
    """True when the polynomial prints as a single /-safe token (int or bare variable)."""
    if len(p.terms) != 1:
        return False
    (mono, coeff), = p.terms.items()
    if not mono:
        return coeff > 0
    return coeff == 1 and _degree(mono) == 1


def _poly_str(p: _Poly, names) -> str:
    if p.is_zero():
        return "0"
    parts = []
    top = _W * len(names)
    for mono in sorted(p.terms, reverse=True):
        coeff = p.terms[mono]
        factors = []
        shift = top
        for name in names:
            shift -= _W
            e = mono >> shift & _FIELD
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
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


def add_term(terms: dict, key, coeff) -> None:
    """terms[key] += coeff, inserting key when absent: the one accumulator of
    a sparse sum (Expression or kernel polynomial coefficients)."""
    if key in terms:
        terms[key] = terms[key] + coeff
    else:
        terms[key] = coeff


def combination_str(terms) -> str:
    """``c*basis + ...`` over (basis, coefficient) pairs, "0" for none: a
    coefficient 1 or -1 prints as its sign, a non-integer in parentheses."""
    parts = []
    for basis, coeff in terms:
        s = str(coeff)
        if not s.lstrip("-").isdigit():
            s = f"({s})"
        if basis:
            s = s[:-1] if s in ("1", "-1") else f"{s}*"
        parts.append(s + basis)
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

# one token per match, after its leading whitespace; the last group catches a
# character outside the grammar
_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|([-+*/^()])|(\S))")


def _tokenize(text: str) -> list:
    """(kind, value, position) for each token of text, then ("end", None,
    len(text)); ExprSyntaxError at the first character outside the grammar or
    the first integer literal longer than MAX_LITERAL_DIGITS."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        digits, ident, op, bad = m.groups()
        at = m.end() - len(op or ident or digits or bad)  # the token ends the match
        if op:
            tokens.append(("op", op, at))
        elif ident:
            tokens.append(("ident", ident, at))
        elif digits:
            if len(digits) > MAX_LITERAL_DIGITS:
                raise ExprSyntaxError(f"integer literal longer than {MAX_LITERAL_DIGITS} digits", at)
            tokens.append(("int", int(digits), at))
        else:
            raise ExprSyntaxError(f"unexpected character {bad!r}", at)
    tokens.append(("end", None, len(text)))
    return tokens


# Input budget.  Each nesting level costs the recursive descent at most five
# stack frames, so MAX_NESTING keeps a parse far below the interpreter's default
# recursion limit.  The interpreter refuses to convert integer text longer than
# 4,300 digits, and a power expands before anything else runs on it:
# (x1+x2+1)^100 already has 5,151 terms.  Every product, quotient and power the
# parser builds, and the value of every sum, keeps each coefficient within
# 10^MAX_LITERAL_DIGITS in magnitude, so neither a product of long literals nor
# a chain such as 10^1000^1000 runs past the first step that breaks it.  A power
# is also held to MAX_POWER_TERMS terms, bounded before it expands:
# (x1+...+x6+1)^12 would have 18,564.  Every polynomial product, in the parser
# and in the engine alike, is held to MAX_MUL_PAIRS term pairs (len(a)*len(b)):
# the parser's own (x1+x2+1)^100 needs 703 * 2,145 = 1,507,935 in its last step,
# while the Christoffel chain of a metric with that w11 would multiply 5,151 by
# ~5,000 terms, many times over.  A product's total degree is held to
# MAX_TOTAL_DEGREE, the most a packed field holds below its guard bit;
# x1^100*x1^100*... in a section of MAX_SECTION_BYTES reaches about 1.4 * 10^7.
MAX_NESTING = 100
MAX_LITERAL_DIGITS = 1000
MAX_EXPONENT = 1000
MAX_POWER_DEGREE = 100
MAX_POWER_TERMS = 10_000
MAX_MUL_PAIRS = 2_000_000
MAX_TOTAL_DEGREE = 2 ** (_W - 1) - 1
# A section file is read whole before it is parsed; the largest one in use, a
# 3,000-deep parenthesised component, is about 6 KB.
MAX_SECTION_BYTES = 1_000_000
_COEFF_LIMIT = 10**MAX_LITERAL_DIGITS


def _within_budget(value: _Poly | Expression) -> _Poly | Expression:
    """value itself, a kernel polynomial or an Expression; InputTooLarge if a
    coefficient of it (of its numerator or denominator) exceeds
    10^MAX_LITERAL_DIGITS in magnitude.  A polynomial p stands for its
    canonical pair (p, 1), so both routes of the parser read the same numbers."""
    for poly in (value,) if type(value) is _Poly else (value.num, value.den):
        if poly.terms and max(map(abs, poly.terms.values())) > _COEFF_LIMIT:
            raise InputTooLarge(f"coefficient beyond 10^{MAX_LITERAL_DIGITS} in magnitude")
    return value


class _Parser:
    """Recursive-descent parser for the expression grammar: ``parse_in``
    runs it on every text that ``_scan`` declines, and it is the reference
    that the scan is tested against.

    Precedence: ``^`` > unary ``-`` > ``*``/``/`` > ``+``/``-``, all binary
    operators left-associative; ``^`` only takes integer literal exponents.
    Parentheses and unary minus nest at most ``MAX_NESTING`` deep.

    A subtree without ``/`` or a negative power is carried as a bare kernel
    polynomial p, whose canonical pair is (p, 1): ``+``, ``-``, ``*`` and
    ``^k`` (k >= 0) on two of them need no gcd and no content step.  A value
    becomes an ``Expression`` at ``/``, at a negative power, when it meets
    an ``Expression`` operand, or once at the end of ``parse``.  Both routes
    hold a value to the same budgets, with the same messages.

    The operand of ``/`` is parsed with ``track``: each rule then returns the
    pair (value, factorization), the latter for a polynomial value that is a
    constant times powers of linear forms (None otherwise), and the division
    multiplies by 1/value with that factorization.  Only divisors pay for it.
    """

    def __init__(self, text: str, context: Context):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.context = context
        self.depth = 0

    def nest(self, at: int) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExprSyntaxError(f"nesting deeper than {MAX_NESTING} levels", at)

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

    def lift(self, value: _Poly | Expression) -> Expression:
        """value as an Expression: a polynomial p becomes its pair (p, 1)."""
        if type(value) is _Poly:
            return _from_reduced(self.context, value, _pconst(1))
        return value

    def parse(self) -> Expression:
        value = self.sum()
        kind, val, at = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {quoted(val)}", at)
        return self.lift(value)

    def sum(self, track: bool = False):
        """Each polynomial operand merges into terms the loop owns, with no
        copy and no budget check per term; the budget reads the value the
        sum returns.  The operands are atoms, products and powers, each
        already checked, so n of them stay within n * 10^MAX_LITERAL_DIGITS
        on the way.  The ``Expression`` operands are summed apart, each
        partial sum checked: their denominators multiply, so a sum such as
        1/(10^999 + 1) + 1/(10^999 + 3) + ... must stop at its first step
        past the budget.  The two parts meet once, at the end."""
        value = self.product(track)
        if track:
            value, factors = value
        poly, rational = (value, None) if type(value) is _Poly else (_PZERO, value)
        owned = None
        while True:
            kind, val, _ = self.peek()
            if kind != "op" or val not in "+-":
                break
            self.advance()
            factors = None  # read off the value at the end
            right = self.product()
            if type(right) is not _Poly:
                if rational is None:
                    rational = right if val == "+" else -right
                else:
                    rational = _within_budget(rational + right if val == "+" else rational - right)
                continue
            if owned is None:  # a copy: atoms are shared polynomials
                owned = dict(poly.terms)
                poly = _Poly(owned)
            _merge(owned, right, 1 if val == "+" else -1)
        if rational is None:
            value = _within_budget(poly)
        elif poly.terms:
            value = _within_budget(rational + self.lift(poly))
        else:
            value = rational
        if not track:
            return value
        if factors is None and type(value) is _Poly and value.terms:
            factors = _linear_factors(value)
        return value, factors

    def product(self, track: bool = False):
        left = self.unary(track)
        if track:
            left, factors = left
        while True:
            kind, val, at = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                if val == "*":
                    right = self.unary(track)
                    if track:
                        right, more = right
                        factors = _product_factors(factors, more)
                    if type(left) is not type(right):
                        left, right = self.lift(left), self.lift(right)
                    left = _within_budget(left * right)
                else:
                    right, divisor = self.unary(True)
                    if right.is_zero():
                        raise DivisionByZeroLiteral(
                            f"denominator is zero (at position {at})"
                        )
                    if divisor is None:
                        left = _within_budget(self.lift(left) / self.lift(right))
                    else:  # times 1/right, whose denominator is factored
                        left = _within_budget(self.lift(left)._times(_UNIT, right, divisor))
                    factors = None
            else:
                return (left, factors) if track else left

    def unary(self, track: bool = False):
        kind, val, at = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            self.nest(at)
            value = self.unary(track)
            self.depth -= 1
            if track:
                value, f = value
                return -value, f and (-f[0], f[1])
            return -value
        return self.power(track)

    def power(self, track: bool = False):
        base = self.atom(track)
        if track:
            base, factors = base
        while True:
            kind, val, at = self.peek()
            if kind == "op" and val == "^":
                self.advance()
                exp = self.exponent()
                if abs(exp) > MAX_EXPONENT:
                    raise ExprSyntaxError(f"exponent beyond +-{MAX_EXPONENT}", at)
                if exp < 0:
                    if base.is_zero():
                        raise DivisionByZeroLiteral(
                            f"zero raised to a negative power (at position {at})"
                        )
                    base = self.lift(base)
                if track:
                    factors = _power_factors(factors, exp) if exp >= 0 else None
                base = _within_budget(base.pow(exp) if type(base) is _Poly else base**exp)
            else:
                return (base, factors) if track else base

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
            self.nest(at)
            value = self.exponent()
            self.expect_op(")")
            self.depth -= 1
            return value
        raise ExprSyntaxError("expected integer exponent", at)

    def atom(self, track: bool = False):
        kind, val, at = self.advance()
        if kind == "int":
            value = _pconst(val)
        elif kind == "ident":
            value = self.context._atoms.get(val)
            if value is None:
                raise UnknownIdentifier(f"unknown identifier {quoted(val)}", at)
        elif kind == "op" and val == "(":
            self.nest(at)
            value = self.sum(track)
            self.expect_op(")")
            self.depth -= 1
            return value
        else:
            raise ExprSyntaxError(
                "expected integer, identifier or parenthesized expression", at
            )
        if not track:
            return value
        return value, _linear_factors(value) if value.terms else None


# one factor of an integer polynomial per match, after its operator: an
# integer literal, or a name with an optional ^digits; the last group catches
# any other character, and with it the text goes to the descent
_SCAN_RE = re.compile(r"\s*([-+*]?)\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)(?:\s*\^\s*(\d+))?|(\S))")


def _scan(text: str, context: Context) -> Optional[_Poly]:
    """The integer polynomial that text spells in the scan grammar, else None.

    The text is ``[-]term {(+|-) term}``, a term is ``factor {* factor}``,
    and a factor is an integer literal or a name of the context with an
    optional ``^digits``.  Each term is one coefficient times one packed key.
    The scan never raises: where ``_Parser`` would raise, it returns None at
    the step where the descent checks the same budget, read at call time:
    a literal's length, a power's exponent and degree, the coefficient after
    each product, the total degree after each factor, and the value of the
    sum.  So every error, message and position comes from the descent.
    """
    keys = context._keys
    top = _W * context.nvars  # a key's total degree is its field above top
    terms: dict = {}
    coeff = None
    for op, digits, name, exp, _ in _SCAN_RE.findall(text):
        if op == "*":
            if coeff is None:
                return None
        elif op or coeff is None:  # a term starts
            if coeff is not None:
                add_term(terms, key, coeff)
            elif op == "+":
                return None
            coeff, key = (-1 if op == "-" else 1), 0
        else:
            return None
        if digits:
            if len(digits) > MAX_LITERAL_DIGITS:
                return None
            coeff *= int(digits)
            if abs(coeff) > _COEFF_LIMIT:
                return None
        elif name in keys:
            factor = keys[name]
            if exp:
                if len(exp) > MAX_LITERAL_DIGITS:
                    return None
                k = int(exp)
                if k > MAX_EXPONENT or k > MAX_POWER_DEGREE:
                    return None
                factor *= k
            key += factor
            if key >> top > MAX_TOTAL_DEGREE:
                return None
        else:  # an unknown name or a character outside the grammar
            return None
    if coeff is None:
        return None
    add_term(terms, key, coeff)
    terms = {m: c for m, c in terms.items() if c}
    if terms and max(map(abs, terms.values())) > _COEFF_LIMIT:
        return None
    return _Poly(terms)


def parse(text: str, n: int, params: Iterable[str] = ()) -> Expression:
    """Parse expression text over coordinates x1..xn and the given parameters."""
    return parse_in(text, Context(n, params))


def parse_in(text: str, context: Context) -> Expression:
    """The canonical Expression of text over context.

    An integer polynomial in the scan grammar (``_scan``) is read straight
    into packed monomials; any other text, and every error, goes through the
    recursive descent ``_Parser``, which gives the same pair on both.
    """
    poly = _scan(text, context)
    if poly is None:
        return _Parser(text, context).parse()
    return _from_reduced(context, poly, _UNIT)
