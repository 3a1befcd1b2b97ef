"""Seeded generators and independent oracles shared by the test modules."""

from __future__ import annotations

import random
from fractions import Fraction

from vessiot.errors import DegenerateMetric, SingularPoint
from vessiot.jetcalc import JetVariable, LinearJetEquation, decode_jet
from vessiot.lieops import GeometricSection, ObjectKind, section
from vessiot.symexpr import Context, Expression, _pack, _Poly, _unpack, parse_in


def random_expression(ctx: Context, rng: random.Random, depth: int = 3) -> Expression:
    expr, _ = random_expression_with_history(ctx, rng, depth)
    return expr


def random_expression_with_history(ctx: Context, rng: random.Random, depth: int = 3):
    """An expression plus a closure replaying its construction on raw Fractions.

    The closure evaluates the unnormalized operation history, so comparing it
    with Expression.evaluate checks that normalization preserves values.
    """
    if depth == 0 or rng.random() < 0.25:
        choice = rng.randrange(3 if ctx.params else 2)
        if choice == 0:
            k = Fraction(rng.randint(-6, 6))
            return ctx.rational(k), (lambda point, k=k: k)
        if choice == 1:
            i = rng.randint(1, ctx.n)
            return ctx.coordinate(i), (lambda point, i=i: point[i - 1])
        name = rng.choice(ctx.params)
        slot = ctx.var_index(name)
        return ctx.parameter(name), (lambda point, slot=slot: point[slot])

    op = rng.choice("++-**/^")
    if op == "^":
        base, base_fn = random_expression_with_history(ctx, rng, depth - 1)
        k = rng.randint(0, 3)
        return base**k, (lambda point, fn=base_fn, k=k: fn(point) ** k)
    left, left_fn = random_expression_with_history(ctx, rng, depth - 1)
    for _ in range(30):
        right, right_fn = random_expression_with_history(ctx, rng, depth - 1)
        if op != "/" or not right.is_zero():
            break
    else:
        right, right_fn = ctx.one(), (lambda point: Fraction(1))
    if op == "+":
        return left + right, (lambda p, f=left_fn, g=right_fn: f(p) + g(p))
    if op == "-":
        return left - right, (lambda p, f=left_fn, g=right_fn: f(p) - g(p))
    if op == "*":
        return left * right, (lambda p, f=left_fn, g=right_fn: f(p) * g(p))
    return left / right, (lambda p, f=left_fn, g=right_fn: f(p) / g(p))


def jv(k: int, *mu: int) -> int:
    """The key of the jet variable xi^k_mu, mu given by its entries."""
    return JetVariable(k, mu)


def jet_order(key: int, n: int) -> int:
    """|mu| of the jet variable xi^k_mu with this key, in n coordinates."""
    return sum(decode_jet(key, n)[1])


def bumped(key: int, n: int, i: int) -> int:
    """The key of xi^k_(mu + 1_i) from that of xi^k_mu, through the decoded
    fields rather than the one addition the formal derivative makes."""
    k, mu = decode_jet(key, n)
    return jv(k, *(e + (j == i) for j, e in enumerate(mu, start=1)))


def scaled(eq: LinearJetEquation, factor: Expression) -> LinearJetEquation:
    """The equation with every coefficient multiplied by factor."""
    return LinearJetEquation({jv: c * factor for jv, c in eq.terms.items()})


def random_poly(rng: random.Random, draws: int, exps=(3, 3, 2), bound: int = 9) -> _Poly:
    """A kernel polynomial in three slots from ``draws`` random terms: a repeated
    monomial keeps its last coefficient and zero coefficients drop; 1 if none is left."""
    terms = {}
    for _ in range(draws):
        mono = tuple(rng.randint(0, e) for e in exps)
        terms[mono] = rng.randint(-bound, bound)
    return packed({m: c for m, c in terms.items() if c} or {(0, 0, 0): 1})


def packed(terms: dict) -> _Poly:
    """The kernel polynomial of {exponent tuple: coefficient}."""
    return _Poly({_pack(m): c for m, c in terms.items()})


def unpacked(p: _Poly, nvars: int) -> list:
    """The terms of a kernel polynomial over nvars variables, as
    (exponent tuple, coefficient) pairs."""
    return [(_unpack(m, nvars), c) for m, c in p.terms.items()]


def shared_factor_pair(rng: random.Random) -> tuple:
    """(g*a, g*b) for random g, a, b of 4, 5 and 5 draws in x1, x2, a."""
    g, a, b = (random_poly(rng, k) for k in (4, 5, 5))
    return g * a, g * b


def random_point(ctx: Context, rng: random.Random):
    return tuple(
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(ctx.nvars)
    )


def random_nonzero_rational(rng: random.Random) -> Fraction:
    value = Fraction(0)
    while value == 0:
        value = Fraction(rng.randint(-8, 8), rng.randint(1, 8))
    return value


def _small_component(ctx: Context, rng: random.Random) -> Expression:
    """A mild rational expression: polynomial of degree <= 1 or its reciprocal."""
    c0 = rng.randint(-3, 3)
    c1 = rng.randint(-2, 2)
    c2 = rng.randint(-2, 2)
    text = f"{c0} + {c1}*x1 + {c2}*x2"
    expr = parse_in(text, ctx)
    if not expr.is_zero() and rng.random() < 0.3:
        shifted = expr + ctx.rational(5 if rng.random() < 0.5 else -7)
        if not shifted.is_zero():
            return ctx.one() / shifted
    return expr


def random_product_section(rng: random.Random, ctx: Context = None) -> GeometricSection:
    """A nondegenerate PRODUCT_TRIPLE_2D section with small rational components."""
    ctx = ctx or Context(2)
    from vessiot.lieops import nondegeneracy

    while True:
        w1 = _small_component(ctx, rng)
        w2 = _small_component(ctx, rng)
        w3 = _small_component(ctx, rng)
        if w3.is_zero():
            continue
        sec = section(ObjectKind.PRODUCT_TRIPLE_2D, [w1, w2, w3])
        if not nondegeneracy(sec).is_zero():
            return sec


def constant_c_product_section(rng: random.Random, ctx: Context = None):
    """A section with a known constant c: returns (section, expected c).

    Families: constant triples (c = 0) and (0, 0, k/(x2 - x1 + b)^2)
    (c = -2/k), the second family scaled through the zero-order components.
    """
    ctx = ctx or Context(2)
    if rng.random() < 0.4:
        while True:
            u = Fraction(rng.randint(-3, 3))
            v = Fraction(rng.randint(-3, 3))
            w = random_nonzero_rational(rng)
            if 1 - u * v != 0:
                break
        sec = section(
            ObjectKind.PRODUCT_TRIPLE_2D,
            [ctx.rational(u), ctx.rational(v), ctx.rational(w)],
        )
        return sec, ctx.zero()
    k = random_nonzero_rational(rng)
    b = Fraction(rng.randint(-4, 4))
    t = parse_in("x2 - x1", ctx) + ctx.rational(b)
    w3 = ctx.rational(k) / (t * t)
    sec = section(ObjectKind.PRODUCT_TRIPLE_2D, [ctx.zero(), ctx.zero(), w3])
    return sec, ctx.rational(Fraction(-2) / k)


def degenerate(metric) -> bool:
    """True iff det(w) of the metric vanishes identically."""
    try:
        metric.det
    except DegenerateMetric:
        return True
    return False


def random_metric(rng: random.Random, ctx: Context = None):
    """A nondegenerate 2D metric with small polynomial components."""
    from vessiot.curvature import Metric2D

    ctx = ctx or Context(2)

    def comp(base: int) -> Expression:
        c0 = rng.randint(1, 4) if base else rng.randint(-2, 2)
        c1 = rng.randint(-2, 2)
        c2 = rng.randint(-2, 2)
        return parse_in(f"{c0} + {c1}*x1 + {c2}*x2", ctx)

    while True:
        metric = Metric2D(comp(1), comp(1), comp(0))
        if not degenerate(metric):
            return metric


def random_connection(rng: random.Random, ctx: Context = None):
    from vessiot.curvature import IJ, Connection2D

    ctx = ctx or Context(2)
    comps = {}
    for k in (1, 2):
        for i, j in IJ:
            c0 = rng.randint(-2, 2)
            c1 = rng.randint(-2, 2)
            c2 = rng.randint(-2, 2)
            comps[(k, i, j)] = parse_in(f"{c0} + {c1}*x1 + {c2}*x2", ctx)
    return Connection2D(comps)


def riemann_component(data, k: int, l: int, i: int, j: int) -> Expression:
    """rho^k_{l,ij} of a CurvatureData for any index order, from the stored i < j."""
    if i == j:
        return data.phi_12.context.zero()
    if i < j:
        return data.riemann[(k, l, i, j)]
    return -data.riemann[(k, l, j, i)]


def evaluate_or_none(expr: Expression, point):
    try:
        return expr.evaluate(point)
    except SingularPoint:
        return None
