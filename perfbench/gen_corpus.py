"""Seeded corpus generator for the benchmark pool.

    python3 perfbench/gen_corpus.py

Writes ``perfbench/corpus/pool.json``: every generated section as text, the
workload it belongs to, its family, and the expected answers.  The section
text comes from the standard library alone (``random.Random(seed)``), so the
same seed gives the same bytes.  Expected answers never come from the engine:
known-answer families carry their hand-derived constants, and the random
families carry values computed here with sympy at fixed rational points
(sympy is only imported by this build script, never by a benchmark run).
The pool is built from seed ``SEED``; ``selftest.py`` checks that the
committed texts still come from it.
"""

from __future__ import annotations

import json
import os
import random
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from corpus import CC_SPECS, POOL_PATH  # noqa: E402
from oracle import evaluate  # noqa: E402


SEED = 0  # the committed pool, its digests and every plan are tied to it

# Rational probe points; an answer is checked by evaluating both sides there.
POINTS_2D = [(Fraction(7, 3), Fraction(11, 5)), (Fraction(-5, 7), Fraction(13, 4))]
POINTS_1D = [(Fraction(7, 3),), (Fraction(-5, 7),)]
# jetcalc.symbol_dimension samples variable j at j + 2 by default.
DEFAULT_POINT = {1: (2,), 2: (2, 3), 3: (2, 3, 4)}

# dim g_3 of the twice-prolonged Medolaghi system at a nondegenerate point:
# Killing and product systems are of finite type (g_2 = 0); the contact pair
# (alpha, d alpha) gives strict contact fields, g_q = q + 2.
SYMBOL_DIM_3 = {"PRODUCT_TRIPLE_2D": 0, "METRIC_2D": 0, "CONTACT_PAIR_3D": 5}

KEYS = {
    "METRIC_2D": ("w11", "w22", "w12"),
    "PRODUCT_TRIPLE_2D": ("w1", "w2", "w3"),
    "ONE_FORM_1D": ("alpha", "gamma"),
    "CHRISTOFFEL_1D": ("gamma", "nu"),
    "CHRISTOFFEL_2D": ("g1_11", "g1_12", "g1_22", "g2_11", "g2_12", "g2_22"),
    "CONTACT_PAIR_3D": ("a1", "a2", "a3", "b23", "b31", "b12"),
}
DIM = {"METRIC_2D": 2, "PRODUCT_TRIPLE_2D": 2, "ONE_FORM_1D": 1,
       "CHRISTOFFEL_1D": 1, "CHRISTOFFEL_2D": 2, "CONTACT_PAIR_3D": 3}


# ----------------------------------------------------------------------
# section text (stdlib only)
# ----------------------------------------------------------------------


def section_text(kind: str, comps: dict) -> str:
    lines = [f"kind = {kind}", f"n = {DIM[kind]}"]
    lines += [f"{key} = {comps[key]}" for key in KEYS[kind] if key in comps]
    return "\n".join(lines) + "\n"


def poly_text(coeffs: dict) -> str:
    """Polynomial text from {exponent tuple: int}, highest degree first."""
    parts = []
    for mono in sorted(coeffs, key=lambda m: (-sum(m), [-e for e in m])):
        c = coeffs[mono]
        if c == 0:
            continue
        factors = [f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(mono) if e]
        body = "*".join(factors)
        mag = abs(c)
        term = body if (body and mag == 1) else (f"{mag}*{body}" if body else str(mag))
        parts.append(("- " if c < 0 else "+ ") + term)
    if not parts:
        return "0"
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def monomials(nvars: int, degree: int):
    if nvars == 1:
        return [(degree,)]
    return [(first,) + rest for first in range(degree, -1, -1)
            for rest in monomials(nvars - 1, degree - first)]


def dense_poly(rng: random.Random, nvars: int, degree: int, offset: int = 0) -> dict:
    """Every monomial of total degree <= degree, coefficients in {-1, 1}, plus
    an offset on the constant term."""
    coeffs = {}
    for d in range(degree + 1):
        for mono in monomials(nvars, d):
            coeffs[mono] = rng.choice((-1, 1))
    zero = (0,) * nvars
    coeffs[zero] += offset
    return coeffs


def linear_text(rng: random.Random) -> str:
    """a + b*x1 + c*x2 with coefficients in -2..2."""
    coeffs = {(0, 0): rng.randint(-2, 2)}
    for mono in ((1, 0), (0, 1)):
        coeffs[mono] = rng.randint(-2, 2)
    return poly_text(coeffs)


def nonzero_fraction(rng: random.Random, lo: int = -6, hi: int = 6) -> Fraction:
    while True:
        value = Fraction(rng.randint(lo, hi), rng.randint(1, 4))
        if value:
            return value


def frac_text(value: Fraction) -> str:
    return str(value) if value.denominator == 1 else f"({value})"


def gen_metric_dense(rng, degree):
    return {"w11": poly_text(dense_poly(rng, 2, degree, offset=6)),
            "w22": poly_text(dense_poly(rng, 2, degree, offset=6)),
            "w12": poly_text(dense_poly(rng, 2, degree))}


def gen_metric_constant(rng):
    while True:
        a, c, b = rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-3, 3)
        if a * c - b * b != 0:
            return {"w11": str(a), "w22": str(c), "w12": str(b)}


def gen_half_plane(rng):
    a = nonzero_fraction(rng)
    return {"w11": f"{frac_text(a)}/x2^2", "w22": f"{frac_text(a)}/x2^2", "w12": "0"}, a


def gen_product_random(rng):
    """Mild components (degree <= 1, or the reciprocal of a shifted one),
    kept nondegenerate at the jet sample point (2, 3)."""
    def comp():
        text = linear_text(rng)
        if text != "0" and rng.random() < 0.3:
            return f"1/({text} {rng.choice(('+ 5', '- 7'))})"
        return text
    while True:
        w1, w2, w3 = comp(), comp(), comp()
        point = {"x1": Fraction(2), "x2": Fraction(3)}
        try:
            v1, v2, v3 = (evaluate(t, point) for t in (w1, w2, w3))
        except ZeroDivisionError:
            continue
        if w3 != "0" and v3 != 0 and 1 - v1 * v2 != 0:
            return {"w1": w1, "w2": w2, "w3": w3}


def gen_product_projective(rng):
    k = nonzero_fraction(rng)
    b = rng.randint(-4, 4)
    shift = f" + {b}" if b > 0 else (f" - {-b}" if b < 0 else "")
    return {"w1": "0", "w2": "0", "w3": f"{frac_text(k)}/(x2 - x1{shift})^2"}, k


def gen_product_constant(rng):
    while True:
        u, v = rng.randint(-3, 3), rng.randint(-3, 3)
        if 1 - u * v != 0:
            w = nonzero_fraction(rng)
            return {"w1": str(u), "w2": str(v), "w3": str(w)}


def gen_contact(rng):
    """alpha = k (dx1 - x3 dx2) + dh, beta = m dx2^dx3: constants (k/m, 0)."""
    k, m = nonzero_fraction(rng, -4, 4), nonzero_fraction(rng, -4, 4)
    h = {mono: rng.randint(-2, 2) for d in (1, 2) for mono in monomials(3, d)}
    grad = []
    for i in range(3):
        g = {}
        for mono, c in h.items():
            if mono[i]:
                low = tuple(e - 1 if j == i else e for j, e in enumerate(mono))
                g[low] = g.get(low, 0) + c * mono[i]
        grad.append(g)
    grad[0][(0, 0, 0)] = grad[0].get((0, 0, 0), 0) + k
    grad[1][(0, 0, 1)] = grad[1].get((0, 0, 1), 0) - k
    # alpha^beta = a1*m must not vanish at the jet sample point (2, 3, 4)
    if sum(c * 2 ** e1 * 3 ** e2 * 4 ** e3 for (e1, e2, e3), c in grad[0].items()) == 0:
        return gen_contact(rng)
    a1, a2, a3 = (poly_text(g) for g in grad)
    return {"a1": a1, "a2": a2, "a3": a3, "b23": str(m), "b31": "0", "b12": "0"}, k / m


def poly1(rng, degree):
    coeffs = {(d,): rng.randint(-3, 3) for d in range(degree + 1)}
    coeffs[(degree,)] = rng.choice((-2, -1, 1, 2))
    return coeffs


def deriv1(coeffs):
    return {(e - 1,): c * e for (e,), c in coeffs.items() if e}


def gen_one_form(rng, integrable):
    alpha = poly1(rng, rng.randint(1, 3))
    a_text, da_text = poly_text(alpha), poly_text(deriv1(alpha))
    if integrable:
        # alpha' - gamma*alpha = c*alpha^2  <=>  gamma = alpha'/alpha - c*alpha
        c = nonzero_fraction(rng)
        gamma = f"({da_text})/({a_text}) - {frac_text(c)}*({a_text})"
        return {"alpha": a_text, "gamma": gamma}, c
    return {"alpha": a_text, "gamma": poly_text(poly1(rng, 1))}, None


def gen_christoffel_1d(rng, integrable):
    g = poly1(rng, rng.randint(1, 2))
    g_text = poly_text(g)
    if integrable:
        nu = f"{poly_text(deriv1(g))} - (1/2)*({g_text})^2"
    else:
        nu = poly_text(poly1(rng, 2))
    return {"gamma": g_text, "nu": nu}


def gen_christoffel_2d(rng, flat):
    keys = KEYS["CHRISTOFFEL_2D"]
    if flat:
        # product of two 1D connections: Gamma^1_11(x1), Gamma^2_22(x2)
        comps = dict.fromkeys(keys, "0")
        comps["g1_11"] = poly_text({(d, 0): rng.randint(-2, 2) for d in range(3)})
        comps["g2_22"] = poly_text({(0, d): rng.randint(-2, 2) for d in range(3)})
        return comps
    return {key: linear_text(rng) for key in keys}


# ----------------------------------------------------------------------
# pool layout
# ----------------------------------------------------------------------


def generate(seed: int) -> list:
    """All pool entries (without answers) in a fixed order."""
    rng = random.Random(seed)
    pool = []

    def add(pid, workload, family, kind, comps, **known):
        pool.append({"id": pid, "workload": workload, "family": family, "kind": kind,
                     "text": section_text(kind, comps), "known": known})

    for degree in (1, 2, 3):
        for i in range(16):
            add(f"ml-d{degree}-{i:02d}", "metric_ladder", f"dense_d{degree}",
                "METRIC_2D", gen_metric_dense(rng, degree))
    for i in range(6):
        add(f"ml-const-{i:02d}", "metric_ladder", "constant_metric", "METRIC_2D",
            gen_metric_constant(rng), c1="0")
    for i in range(6):
        comps, a = gen_half_plane(rng)
        add(f"ml-half-{i:02d}", "metric_ladder", "half_plane", "METRIC_2D", comps,
            c1=str(-1 / a))

    for i in range(40):
        add(f"cb-prod-{i:02d}", "catalog_batch", "product_random", "PRODUCT_TRIPLE_2D",
            gen_product_random(rng))
    for i in range(10):
        comps, k = gen_product_projective(rng)
        add(f"cb-proj-{i:02d}", "catalog_batch", "product_projective",
            "PRODUCT_TRIPLE_2D", comps, c=str(Fraction(-2) / k))
    for i in range(8):
        add(f"cb-pconst-{i:02d}", "catalog_batch", "product_constant",
            "PRODUCT_TRIPLE_2D", gen_product_constant(rng), c="0")
    for i in range(10):
        comps, c_prime = gen_contact(rng)
        add(f"cb-contact-{i:02d}", "catalog_batch", "contact", "CONTACT_PAIR_3D", comps,
            c_prime=str(c_prime), c_second="0")
    for i in range(10):
        comps, c = gen_one_form(rng, integrable=i % 2 == 0)
        extra = {"c": str(c)} if c is not None else {}
        add(f"cb-oneform-{i:02d}", "catalog_batch",
            "one_form_known" if c is not None else "one_form_random",
            "ONE_FORM_1D", comps, **extra)
    for i in range(8):
        integrable = i % 2 == 0
        add(f"cb-chr1-{i:02d}", "catalog_batch",
            "projective_known" if integrable else "projective_random",
            "CHRISTOFFEL_1D", gen_christoffel_1d(rng, integrable))
    for i in range(8):
        flat = i % 2 == 0
        add(f"cb-chr2-{i:02d}", "catalog_batch",
            "connection_flat" if flat else "connection_linear",
            "CHRISTOFFEL_2D", gen_christoffel_2d(rng, flat))

    for i in range(10):
        add(f"js-prod-{i:02d}", "jet_systems", "product_random", "PRODUCT_TRIPLE_2D",
            gen_product_random(rng))
    for i in range(3):
        comps, _ = gen_product_projective(rng)
        add(f"js-proj-{i:02d}", "jet_systems", "product_projective",
            "PRODUCT_TRIPLE_2D", comps)
    add("js-pflat-00", "jet_systems", "product_flat", "PRODUCT_TRIPLE_2D",
        {"w1": "0", "w2": "0", "w3": "1"})
    for i in range(8):
        add(f"js-metric-{i:02d}", "jet_systems", "dense_d1", "METRIC_2D",
            gen_metric_dense(rng, 1))
    for i in range(4):
        add(f"js-mconst-{i:02d}", "jet_systems", "constant_metric", "METRIC_2D",
            gen_metric_constant(rng))
    for i in range(2):
        comps, _ = gen_half_plane(rng)
        add(f"js-half-{i:02d}", "jet_systems", "half_plane", "METRIC_2D", comps)
    for i in range(6):
        comps, _ = gen_contact(rng)
        add(f"js-contact-{i:02d}", "jet_systems", "contact", "CONTACT_PAIR_3D", comps)
    return pool


# ----------------------------------------------------------------------
# sympy oracle (build time only)
# ----------------------------------------------------------------------


def _sympy_env():
    import sympy

    xs = sympy.symbols("x1 x2 x3")
    return sympy, xs


def _sym(sympy, xs, text):
    return sympy.sympify(text.replace("^", "**"), locals={f"x{i + 1}": x for i, x in enumerate(xs)})


def _components(sympy, xs, entry):
    comps = {}
    for line in entry["text"].splitlines():
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in KEYS[entry["kind"]]:
            comps[key] = _sym(sympy, xs, value)
    return comps


def _values(sympy, xs, expr, points):
    out = []
    for point in points:
        value = expr.subs({xs[i]: sympy.Rational(v.numerator, v.denominator)
                           for i, v in enumerate(point)})
        if not value.is_Rational:
            raise ValueError(f"no finite rational value at {point}: {value}")
        out.append(str(value))
    return out


def _constant(sympy, xs, expr):
    expr = sympy.cancel(sympy.together(expr))
    if expr.free_symbols & set(xs):
        return None
    return str(expr)


def gaussian_curvature(sympy, xs, E, G, F):
    """Brioschi formula: K from the first fundamental form E, F, G."""
    u, v = xs[0], xs[1]
    Eu, Ev, Gu, Gv, Fu, Fv = (sympy.diff(E, u), sympy.diff(E, v), sympy.diff(G, u),
                              sympy.diff(G, v), sympy.diff(F, u), sympy.diff(F, v))
    Evv, Guu, Fuv = sympy.diff(E, v, 2), sympy.diff(G, u, 2), sympy.diff(F, u, v)
    m1 = sympy.Matrix([
        [-Evv / 2 + Fuv - Guu / 2, Eu / 2, Fu - Ev / 2],
        [Fv - Gu / 2, E, F],
        [Gv / 2, F, G],
    ])
    m2 = sympy.Matrix([[0, Ev / 2, Gu / 2], [Ev / 2, E, F], [Gu / 2, F, G]])
    return (m1.det() - m2.det()) / (E * G - F * F) ** 2


def metric_answer(sympy, xs, entry):
    c = _components(sympy, xs, entry)
    E, G, F = c["w11"], c["w22"], c["w12"]
    K = gaussian_curvature(sympy, xs, E, G, F)
    # evaluate K at a point first, to avoid simplifying the symbolic quotient
    values = _values(sympy, xs, K, POINTS_2D)
    const = entry["known"].get("c1")
    if const is None and len(set(values)) == 1:
        const = _constant(sympy, xs, K)
    return {"K_at": values, "det_at": _values(sympy, xs, E * G - F * F, POINTS_2D),
            "c1": const}


def product_answer(sympy, xs, entry):
    c = _components(sympy, xs, entry)
    w1, w2, w3 = c["w1"], c["w2"], c["w3"]
    x1, x2 = xs[0], xs[1]
    u = sympy.symbols("u4:10")
    w4, w5, w6, w7, w8, w9 = u
    eqs = [
        sympy.diff(w1, x1) - (w5 - w1 * w4), sympy.diff(w1, x2) - (w6 - w1 * w5),
        sympy.diff(w2, x1) - (w9 - w2 * w8), sympy.diff(w2, x2) - (w8 - w2 * w7),
        sympy.diff(w3, x1) - w3 * (w4 + w8), sympy.diff(w3, x2) - w3 * (w5 + w7),
    ]
    sol = sympy.solve(eqs, u, dict=True)[0]
    witness = w3 * (1 - w1 * w2)
    c_prime = (sympy.diff(sol[w4], x2) - sympy.diff(sol[w5], x1)) / witness
    c_second = (sympy.diff(sol[w7], x1) - sympy.diff(sol[w8], x2)) / witness
    out = {"c_prime_at": _values(sympy, xs, c_prime, POINTS_2D),
           "c_second_at": _values(sympy, xs, c_second, POINTS_2D)}
    known = entry["known"].get("c")
    if known is not None:
        out["c"] = known
    elif len(set(out["c_prime_at"])) == 1 and len(set(out["c_second_at"])) == 1:
        cp, cs = _constant(sympy, xs, c_prime), _constant(sympy, xs, c_second)
        out["c"] = cp if cp is not None and cp == cs else None
    else:
        out["c"] = None
    return out


def one_form_answer(sympy, xs, entry):
    c = _components(sympy, xs, entry)
    alpha, gamma = c["alpha"], c["gamma"]
    quotient = (sympy.diff(alpha, xs[0]) - gamma * alpha) / alpha ** 2
    return {"c": entry["known"].get("c"), "c_at": _values(sympy, xs, quotient, POINTS_1D)}


def projective_answer(sympy, xs, entry):
    c = _components(sympy, xs, entry)
    gamma, nu = c["gamma"], c["nu"]
    residual = sympy.diff(gamma, xs[0]) - gamma ** 2 / 2 - nu
    return {"residual_at": _values(sympy, xs, residual, POINTS_1D),
            "zero": sympy.expand(residual) == 0}


def connection_answer(sympy, xs, entry):
    c = _components(sympy, xs, entry)
    gam = {}
    for key, value in c.items():
        k, ij = key[1], key[3:]
        gam[(int(k), int(ij[0]), int(ij[1]))] = value
        gam[(int(k), int(ij[1]), int(ij[0]))] = value
    x = {1: xs[0], 2: xs[1]}

    def rho(k, l, i, j):
        total = sympy.diff(gam[(k, l, j)], x[i]) - sympy.diff(gam[(k, l, i)], x[j])
        for r in (1, 2):
            total += gam[(r, l, j)] * gam[(k, r, i)] - gam[(r, l, i)] * gam[(k, r, j)]
        return sympy.expand(total)

    riemann = {f"r{k}_{l},12": rho(k, l, 1, 2) for k in (1, 2) for l in (1, 2)}
    return {"riemann_at": {name: _values(sympy, xs, value, POINTS_2D)
                           for name, value in sorted(riemann.items())},
            "flat": all(v == 0 for v in riemann.values())}


# -- jet systems: Medolaghi equations as Lie derivatives, formal prolongation,
#    symbol rank and CC residual, all on sympy coefficients ------------------


def _medolaghi(sympy, xs, kind, c):
    """{label: {(k, mu): coefficient}} for the infinitesimal Lie equations."""
    n = DIM[kind]
    x = xs[:n]

    def jet(k, *coords):
        mu = [0] * n
        for i in coords:
            mu[i - 1] += 1
        return (k, tuple(mu))

    def add(eq, key, value):
        eq[key] = eq.get(key, 0) + value

    out = {}
    if kind == "METRIC_2D":
        w = {(1, 1): c["w11"], (2, 2): c["w22"], (1, 2): c["w12"], (2, 1): c["w12"]}
        for label, (i, j) in (("11", (1, 1)), ("22", (2, 2)), ("12", (1, 2))):
            eq = {}
            for r in (1, 2):  # (L_xi w)_ij
                add(eq, jet(r, i), w[(r, j)])
                add(eq, jet(r, j), w[(i, r)])
                add(eq, jet(r), sympy.diff(w[(i, j)], x[r - 1]))
            out[label] = eq
    elif kind == "CONTACT_PAIR_3D":
        a = {1: c["a1"], 2: c["a2"], 3: c["a3"]}
        b = {(2, 3): c["b23"], (3, 1): c["b31"], (1, 2): c["b12"]}
        for (i, j), v in list(b.items()):
            b[(j, i)] = -v
        for i in (1, 2, 3):
            b[(i, i)] = 0
        for i in (1, 2, 3):  # (L_xi alpha)_i
            eq = {}
            for r in (1, 2, 3):
                add(eq, jet(r, i), a[r])
                add(eq, jet(r), sympy.diff(a[i], x[r - 1]))
            out[f"a{i}"] = eq
        for i, j in ((2, 3), (3, 1), (1, 2)):  # (L_xi beta)_ij
            eq = {}
            for r in (1, 2, 3):
                add(eq, jet(r, i), b[(r, j)])
                add(eq, jet(r, j), b[(i, r)])
                add(eq, jet(r), sympy.diff(b[(i, j)], x[r - 1]))
            out[f"b{i}{j}"] = eq
    else:  # PRODUCT_TRIPLE_2D, Medolaghi form of the product structure
        w1, w2, w3 = c["w1"], c["w2"], c["w3"]
        d = lambda f, i: sympy.diff(f, x[i - 1])  # noqa: E731
        out["1"] = {jet(1, 2): 1, jet(2, 2): w1, jet(1, 1): -w1, jet(2, 1): -w1 * w1,
                    jet(1): d(w1, 1), jet(2): d(w1, 2)}
        out["2"] = {jet(2, 1): 1, jet(1, 1): w2, jet(2, 2): -w2, jet(1, 2): -w2 * w2,
                    jet(1): d(w2, 1), jet(2): d(w2, 2)}
        out["3"] = {jet(1, 1): w3, jet(2, 2): w3, jet(2, 1): w1 * w3, jet(1, 2): w2 * w3,
                    jet(1): d(w3, 1), jet(2): d(w3, 2)}
    return out


def _formal_d(sympy, x, eq, i):
    out = {}
    for (k, mu), coeff in eq.items():
        out[(k, mu)] = out.get((k, mu), 0) + sympy.diff(coeff, x[i - 1])
        up = tuple(e + 1 if j == i - 1 else e for j, e in enumerate(mu))
        out[(k, up)] = out.get((k, up), 0) + coeff
    return out


def jet_answer(sympy, xs, entry):
    kind = entry["kind"]
    n = DIM[kind]
    x = xs[:n]
    system = _medolaghi(sympy, xs, kind, _components(sympy, xs, entry))
    point = {x[i]: v for i, v in enumerate(DEFAULT_POINT[n])}
    # order-3 symbol: top-order part of every second formal derivative
    rows = []
    for eq in system.values():
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                deq = _formal_d(sympy, x, _formal_d(sympy, x, eq, i), j)
                rows.append(deq)
    top = sorted({(k, mu) for row in rows for (k, mu) in row if sum(mu) == 3})
    matrix = sympy.Matrix([[row.get(var, 0) for var in top] for row in rows]).subs(point)
    variables = n * len(monomials(n, 3))
    symbol_dim = variables - matrix.rank()
    # compatibility combination sum a * d_mu(O_label)
    acc = {}
    for term in CC_SPECS[kind].split(","):
        sign = -1 if term.startswith("-") else 1
        body = term.lstrip("+-")
        mult, _, rest = body.partition("d")
        coeff = sign * (int(mult) if mult else 1)
        digits, _, label = rest.partition("O")
        eq = system[label]
        for ch in digits:
            eq = _formal_d(sympy, x, eq, int(ch))
        for key, value in eq.items():
            acc[key] = acc.get(key, 0) + coeff * value
    cc_zero = all(sympy.cancel(sympy.together(v)) == 0 for v in acc.values())
    expected_dim = SYMBOL_DIM_3[kind]
    if symbol_dim != expected_dim:
        raise SystemExit(f"{entry['id']}: sympy symbol dim {symbol_dim} != {expected_dim}")
    return {"symbol_dim": symbol_dim, "cc_zero": cc_zero, "top_order": 3}


def answers(entry) -> dict:
    sympy, xs = _sympy_env()
    kind = entry["kind"]
    if entry["workload"] == "jet_systems":
        return jet_answer(sympy, xs, entry)
    if kind == "METRIC_2D":
        return metric_answer(sympy, xs, entry)
    if kind == "PRODUCT_TRIPLE_2D":
        return product_answer(sympy, xs, entry)
    if kind == "CONTACT_PAIR_3D":
        return {"c_prime": entry["known"]["c_prime"], "c_second": "0"}
    if kind == "ONE_FORM_1D":
        return one_form_answer(sympy, xs, entry)
    if kind == "CHRISTOFFEL_1D":
        return projective_answer(sympy, xs, entry)
    return connection_answer(sympy, xs, entry)


def build() -> dict:
    pool = generate(SEED)
    for entry in pool:
        entry["expect"] = answers(entry)
        del entry["known"]
    return {"seed": SEED, "points_1d": [[str(v) for v in p] for p in POINTS_1D],
            "points_2d": [[str(v) for v in p] for p in POINTS_2D], "sections": pool}


def dump(data: dict) -> str:
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


def main() -> int:
    os.makedirs(os.path.dirname(POOL_PATH), exist_ok=True)
    with open(POOL_PATH, "w", encoding="utf-8") as fh:
        fh.write(dump(build()))
    print(f"wrote {POOL_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
