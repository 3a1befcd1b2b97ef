"""Differential tests of the expression parser against sympy.

Random grammar trees over x1, x2 and a parameter ``a`` are rendered to text
with the parentheses their precedence needs, plus redundant ones, unary-minus
chains and every exponent spelling, then parsed with ``parse_in`` and compared
with the same tree built in sympy and cancelled.  Polynomial trees stay on the
parser's kernel-polynomial route to the end; rational trees switch to
``Expression`` at their first ``/`` or negative power, often part way up, so
both routes and the switch between them run.

Trees are drawn by hypothesis with a fixed derivation (``derandomize``) and no
shrinking phase, so every run checks the same cases and a failure reports at
once.  sympy and hypothesis are test-only dependencies: without them the
module is skipped.
"""

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

from hypothesis import assume, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from oracle_support import oracle_settings, poly_sympy  # noqa: E402
from vessiot.errors import DivisionByZeroLiteral  # noqa: E402
from vessiot.symexpr import Context, _is_unit_poly, parse_in  # noqa: E402

CTX = Context(2, ["a"])
SYMS = sympy.symbols(CTX.names)
SYMBOL = dict(zip(CTX.names, SYMS))

ORACLE = oracle_settings(150)

# precedence levels of the grammar, loosest first
SUM, PRODUCT, UNARY, POWER, ATOM = range(5)

_leaves = st.sampled_from([
    ("var", "x1"), ("int", 2), ("var", "x2"), ("int", 0), ("var", "a"), ("int", 1), ("int", 12),
])


@st.composite
def _tree(draw, depth: int, exponents: list, operators: str):
    """A tree of at most depth levels below its root; an operator node is
    drawn most often, so that trees of several levels are common."""
    shape = draw(st.sampled_from(["op", "op", "op", "neg", "pow", "paren", "leaf"]))
    if depth == 0 or shape == "leaf":
        return draw(_leaves)
    child = _tree(depth - 1, exponents, operators)
    if shape == "op":
        return (draw(st.sampled_from(operators)), draw(child), draw(child))
    if shape == "pow":
        return ("pow", draw(child), draw(st.sampled_from(exponents)), draw(st.booleans()))
    return (shape, draw(st.integers(1, 3)), draw(child))


polynomial_trees = _tree(4, [2, 0, 3, 1], "+-*")
rational_trees = _tree(4, [-1, 2, 0, -2, 3, 1], "+-*//")


def render(node, need: int = SUM) -> str:
    """Expression text for a tree, parenthesised where precedence needs it."""
    kind = node[0]
    if kind == "int":
        return str(node[1])
    if kind == "var":
        return node[1]
    if kind == "paren":
        return "(" * node[1] + render(node[2]) + ")" * node[1]
    if kind == "neg":
        text, level = "-" * node[1] + render(node[2], UNARY), UNARY
    elif kind == "pow":
        _, base, k, wrapped = node
        exponent = f"({k})" if wrapped else str(k)
        text, level = render(base, POWER) + "^" + exponent, POWER
    elif kind in "+-":
        text, level = render(node[1], SUM) + f" {kind} " + render(node[2], PRODUCT), SUM
    else:
        text, level = render(node[1], PRODUCT) + kind + render(node[2], UNARY), PRODUCT
    return f"({text})" if level < need else text


class Undefined(Exception):
    """The tree divides by an expression that is identically zero."""


def value(node):
    """The tree's value built in sympy; Undefined at a division by zero."""
    kind = node[0]
    if kind == "int":
        return sympy.Integer(node[1])
    if kind == "var":
        return SYMBOL[node[1]]
    if kind == "paren":
        return value(node[2])
    if kind == "neg":
        return (-1) ** node[1] * value(node[2])
    if kind == "pow":
        base, k = value(node[1]), node[2]
        if k < 0 and sympy.cancel(base) == 0:
            raise Undefined
        return base**k
    left, right = value(node[1]), value(node[2])
    if kind == "+":
        return left + right
    if kind == "-":
        return left - right
    if kind == "*":
        return left * right
    if sympy.cancel(right) == 0:
        raise Undefined
    return left / right


def degree_bound(node) -> int:
    """A bound on the total degree of the tree's numerator and denominator."""
    kind = node[0]
    if kind in ("int", "var"):
        return int(kind == "var")
    if kind in ("paren", "neg"):
        return degree_bound(node[2])
    if kind == "pow":
        return abs(node[2]) * degree_bound(node[1])
    if kind in "+-":
        return max(degree_bound(node[1]), degree_bound(node[2]))
    return degree_bound(node[1]) + degree_bound(node[2])


def assert_matches(text: str, reference) -> None:
    e = parse_in(text, CTX)
    num, den = poly_sympy(e.num, SYMS), poly_sympy(e.den, SYMS)
    assert sympy.cancel(num / den - reference) == 0, text
    # canonical: coprime, unit content across the pair, positive leading
    # denominator coefficient
    assert sympy.gcd(num, den).is_number, text
    assert sympy.gcd_list([*e.num.terms.values(), *e.den.terms.values()]) == 1, text
    assert e.den.leading()[1] > 0, text
    assert parse_in(str(e), CTX) == e, text


class TestParserOracle:
    @ORACLE
    @given(polynomial_trees)
    def test_polynomial_trees(self, tree):
        assume(degree_bound(tree) <= 12)
        text = render(tree)
        assert_matches(text, sympy.expand(value(tree)))
        assert _is_unit_poly(parse_in(text, CTX).den), text

    @ORACLE
    @given(rational_trees)
    def test_rational_trees(self, tree):
        assume(degree_bound(tree) <= 12)
        text = render(tree)
        try:
            reference = value(tree)
        except Undefined:
            with pytest.raises(DivisionByZeroLiteral):
                parse_in(text, CTX)
            return
        assert_matches(text, reference)

    def test_renderer_covers_every_form(self):
        tree = ("-", ("neg", 2, ("var", "x1")),
                ("/", ("paren", 2, ("int", 3)), ("pow", ("+", ("var", "a"), ("int", 1)), -2, True)))
        assert render(tree) == "--x1 - ((3))/(a + 1)^(-2)"
        assert_matches(render(tree), value(tree))
