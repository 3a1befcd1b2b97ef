"""The exit-code contract, fuzzed over near-valid section files.

Each example draws two section files of one kind: components from a small
grammar (depth at most 3 over the kind's coordinates, a declared parameter
and a few literals, with + - * / and powers -2..3), sometimes with the
kind's extra keys.  The first goes through ``compute``, ``curvature`` and
``check-cc`` (a combination of the kind's labels, orders 1 and 2), and the
pair through ``equivalence`` at a sample point of small integers.  Every
call exits 0, 1 or 2, never 3; a pass or an obstruction prints one JSON
report; stderr is short and never a traceback.

Two smaller runs hold the same contract at the jet-order ceiling and for
``dims``: ``check-cc`` with ``--max-order`` from 0 to 17 (1 to 16 are
accepted) and CC terms whose order lands just below, on, or past it, over
sections of nesting depth 1; and ``dims`` with well-formed and malformed
``--n`` and ``--f1``.  A third sends ``equivalence`` over the bundled
metric and product sections ``--sample-point`` text with too few or too many
coordinates, empty parts, ``1/0``, exponents, digit runs at and just past
``MAX_LITERAL_DIGITS`` above or below the line, NUL and non-ASCII digits,
as ``--sample-point=TEXT`` and, when the text starts with ``-``, as
``--sample-point TEXT`` too.  A fourth sends ``compute`` a 1D section with
one component exactly at an input budget of the expression parser, or one
past it: nesting depth ``MAX_NESTING``, a literal of ``MAX_LITERAL_DIGITS``
digits, an exponent of ``MAX_EXPONENT`` and a power of total degree
``MAX_POWER_DEGREE``.  At the bound the call exits 0 or 1, past it 2.

Each run is fixed: derandomized, no example database, no shrinking, and a
fixed example count.
"""

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from vessiot import cli, symexpr
from vessiot.lieops import ObjectKind
from vessiot.symexpr import MAX_LITERAL_DIGITS

SECTIONS = Path(__file__).resolve().parent.parent / "sections"
REPORT_KEYS = {"command", "inputs", "result", "residuals", "verdict"}
LITERALS = ("0", "1", "2", "1/2", "-1")
PARAM = "a"


def expressions(n: int, depth: int = 3):
    """Expression text of nesting depth at most ``depth``."""
    atoms = st.sampled_from([f"x{i}" for i in range(1, n + 1)] + [PARAM, *LITERALS])
    if depth == 0:
        return atoms
    inner = expressions(n, depth - 1)
    binary = st.tuples(inner, st.sampled_from("+-*/"), inner).map(
        lambda t: f"({t[0]} {t[1]} {t[2]})"
    )
    power = st.tuples(inner, st.integers(-2, 3)).map(lambda t: f"({t[0]})^{t[1]}")
    return st.one_of(atoms, binary, power)


@st.composite
def section_text(draw, kind: ObjectKind, depth: int = 3) -> str:
    spec = kind.spec
    lines = [f"kind = {kind.value}", f"params = {PARAM}"]
    if draw(st.booleans()):
        lines.append(f"n = {spec.dim}")
    for key in spec.keys:
        lines.append(f"{key} = {draw(expressions(spec.dim, depth))}")
    for key in spec.extras:
        if draw(st.booleans()):
            lines.append(f"{key} = {draw(expressions(spec.dim, depth))}")
    return "\n".join(lines) + "\n"


@st.composite
def cc_spec(draw, kind: ObjectKind) -> str:
    spec = kind.spec
    coordinate = st.integers(1, spec.dim).map(str)
    term = st.tuples(
        st.sampled_from(["", "+", "-", "2", "-3"]),
        st.lists(coordinate, min_size=1, max_size=2).map("".join),
        st.sampled_from(spec.labels),
    ).map(lambda t: f"{t[0]}d{t[1]}O{t[2]}")
    return ",".join(draw(st.lists(term, min_size=1, max_size=3)))


@st.composite
def ceiling_cc_spec(draw, kind: ObjectKind, max_order: int) -> str:
    """One or two CC terms of 1 to max_order + 1 derivatives, most of them
    within two of the ceiling: the equations are of order 1 or 2."""
    spec = kind.spec
    count = st.one_of(st.integers(max(1, max_order - 2), max_order + 1), st.integers(1, 3))
    term = st.tuples(
        st.sampled_from(["", "-", "2"]),
        count.flatmap(lambda k: st.lists(st.integers(1, spec.dim).map(str),
                                         min_size=k, max_size=k)).map("".join),
        st.sampled_from(spec.labels),
    ).map(lambda t: f"{t[0]}d{t[1]}O{t[2]}")
    return ",".join(draw(st.lists(term, min_size=1, max_size=2)))


@st.composite
def ceiling_cases(draw):
    kind = draw(st.sampled_from(list(ObjectKind)))
    max_order = draw(st.sampled_from(range(18)))
    return draw(section_text(kind, depth=1)), draw(ceiling_cc_spec(kind, max_order)), max_order


@st.composite
def dims_argv(draw):
    n = draw(st.one_of(st.integers(-1, 11).map(str), st.sampled_from(["", "2.5", "x", "9" * 60])))
    argv = ["dims", "--n", n] if draw(st.integers(0, 9)) else ["dims"]
    f1 = draw(st.one_of(
        st.none(), st.integers(-2, 40).map(str), st.sampled_from(["9" * 1000, "9" * 1001, "1/2"])
    ))
    return argv if f1 is None else argv + ["--f1", f1]


# pairs of one kind: the metrics of opposite determinant sign read both at the
# point, where the half-plane's may have a pole; the Euclidean pair passes
EQUIVALENCE_PAIRS = [
    ("metric_half_plane", "metric_indefinite"),
    ("metric_euclidean", "metric_euclidean"),
    ("product_projective", "product_flat"),
]
_RUN = "9" * MAX_LITERAL_DIGITS
POINT_PARTS = (
    "", " ", "3", "-1", " 1/2 ", "-3/4", "0.5", ".5", "+7", "--1", "1/2/3", "1/0", "0/0",
    "1e5", "1E-3", "2.5e1", "inf", "nan", "1\x00", "\x00", "\u0661\u0662", "\uff12", "\u00b3",
    "\u00bd", _RUN, _RUN + "9", "-" + _RUN, f"1/{_RUN}", f"1/{_RUN}9", f"{_RUN}9/7",
)


@st.composite
def equivalence_points(draw):
    """Two bundled sections of one kind and --sample-point text of zero to
    four comma-separated parts, most often two: the sections' dimension."""
    pair = draw(st.sampled_from(EQUIVALENCE_PAIRS))
    count = draw(st.sampled_from([0, 1, 2, 2, 2, 3, 4]))
    part = st.one_of(st.integers(-3, 5).map(str), st.sampled_from(POINT_PARTS))
    return pair, ",".join(draw(st.lists(part, min_size=count, max_size=count)))


BUDGETS = ("MAX_NESTING", "MAX_LITERAL_DIGITS", "MAX_EXPONENT", "MAX_POWER_DEGREE")
# (base, its total degree): each degree divides MAX_POWER_DEGREE
POWER_BASES = (
    ("x1", 1), ("(x1 + 1)", 1), ("(x1 - 2)", 1), ("(x1^2 - 2)", 2), ("(2*x1^4)", 4), ("(x1^5 + x1)", 5),
)
# over a linear base, a negative power and a divisor keep its factorization
POWER_FORMS = ("{b}^{s}{k}", "1/{b}^{k}", "x1/((x1 + 1)^{j}*{b}^{k})")


@st.composite
def budget_text(draw, name: str, past: bool) -> str:
    """Expression text over x1 exactly at the budget ``name``, or one past it."""
    bound = getattr(symexpr, name)
    sign = st.sampled_from(["", "-"])
    if name == "MAX_NESTING":
        text = "x1"
        for paren in draw(st.lists(st.booleans(), min_size=bound + past, max_size=bound + past)):
            text = f"({text})" if paren else f"-{text}"
        return text
    if name == "MAX_LITERAL_DIGITS":
        literal = draw(st.sampled_from("123456789")) * (bound + past)
        return draw(st.sampled_from([literal, f"{literal}*x1", f"x1/{literal}"]))
    if name == "MAX_EXPONENT":  # a constant base: x1^1000 is past MAX_POWER_DEGREE
        base = draw(st.sampled_from(["1", "(-1)", "2", "(1/2)", "(-3)"]))
        return f"{base}^{draw(sign)}{bound + past}"
    base, degree = draw(st.sampled_from(POWER_BASES))
    return draw(st.sampled_from(POWER_FORMS)).format(
        b=base, s=draw(sign), k=bound // degree + past, j=draw(st.integers(1, bound))
    )


@st.composite
def cases(draw):
    kind = draw(st.sampled_from(list(ObjectKind)))
    point = draw(st.lists(st.integers(-3, 5), min_size=kind.spec.dim, max_size=kind.spec.dim))
    return (
        draw(section_text(kind)),
        draw(section_text(kind)),
        draw(cc_spec(kind)),
        ",".join(map(str, point)),
    )


def run(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def check_contract(argv: list) -> tuple:
    code, out, err = run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    if code in (0, 1):
        report = json.loads(out)
        assert isinstance(report, dict) and set(report) == REPORT_KEYS, argv
    assert len(err.encode("utf-8")) < 300, (argv, err)
    assert "Traceback" not in err, (argv, err)
    return code, out, err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def fixed_run(examples: int):
    return settings(
        derandomize=True,
        database=None,
        phases=(Phase.explicit, Phase.generate),
        max_examples=examples,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )


@fixed_run(300)
@given(case=cases())
def test_exit_code_contract(workdir, case):
    left_text, right_text, cc, point = case
    left, right = workdir / "left.section", workdir / "right.section"
    left.write_text(left_text, encoding="utf-8")
    right.write_text(right_text, encoding="utf-8")
    check_contract(["compute", "--section", str(left)])
    check_contract(["curvature", "--section", str(left)])
    check_contract(["check-cc", "--section", str(left), "--cc", cc, "--max-order", "4"])
    check_contract(
        ["equivalence", "--left", str(left), "--right", str(right), "--sample-point", point]
    )


@fixed_run(60)
@given(case=ceiling_cases())
def test_check_cc_at_the_order_ceiling(workdir, case):
    text, cc, max_order = case
    path = workdir / "ceiling.section"
    path.write_text(text, encoding="utf-8")
    check_contract(["check-cc", "--section", str(path), "--cc", cc, "--max-order", str(max_order)])


@fixed_run(60)
@given(argv=dims_argv())
def test_dims_argv(argv):
    check_contract(argv)


@fixed_run(60)
@given(case=equivalence_points())
def test_sample_point_text(case):
    (left, right), point = case
    argv = ["equivalence", "--left", str(SECTIONS / f"{left}.section"),
            "--right", str(SECTIONS / f"{right}.section")]
    joined = check_contract([*argv, f"--sample-point={point}"])
    if point.startswith("-"):
        spaced = check_contract([*argv, "--sample-point", point])
        if re.match(r"-[0-9./]", point):
            assert spaced == joined, point


@pytest.mark.parametrize("past", [False, True], ids=["at", "past"])
@pytest.mark.parametrize("name", BUDGETS)
@fixed_run(6)
@given(data=st.data())
def test_compute_at_each_budget(workdir, name, past, data):
    text = data.draw(budget_text(name, past))
    path = workdir / "budget.section"
    path.write_text(f"kind = ONE_FORM_1D\nalpha = x1\ngamma = {text}\n", encoding="utf-8")
    code, _, err = check_contract(["compute", "--section", str(path)])
    assert code == 2 if past else code in (0, 1), (text[:80], err)
    assert not past or str(getattr(symexpr, name)) in err, err  # refused by that budget
