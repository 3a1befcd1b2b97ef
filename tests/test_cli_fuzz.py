"""The exit-code contract, fuzzed over near-valid section files.

Each example draws two section files of one kind: components from a small
grammar (depth at most 3 over the kind's coordinates, a declared parameter
and a few literals, with + - * / and powers -2..3), sometimes with the
kind's extra keys.  The first goes through ``compute``, ``curvature`` and
``check-cc`` (a combination of the kind's labels, orders 1 and 2), and the
pair through ``equivalence`` at a sample point of small integers.  Every
call exits 0, 1 or 2, never 3; a pass or an obstruction prints one JSON
report; stderr is short and never a traceback.

The run is fixed: derandomized, no example database, no shrinking, and a
fixed example count.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from vessiot import cli
from vessiot.lieops import ObjectKind

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
def section_text(draw, kind: ObjectKind) -> str:
    spec = kind.spec
    lines = [f"kind = {kind.value}", f"params = {PARAM}"]
    if draw(st.booleans()):
        lines.append(f"n = {spec.dim}")
    for key in spec.keys:
        lines.append(f"{key} = {draw(expressions(spec.dim))}")
    for key in spec.extras:
        if draw(st.booleans()):
            lines.append(f"{key} = {draw(expressions(spec.dim))}")
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


def check_contract(argv: list) -> None:
    code, out, err = run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    if code in (0, 1):
        report = json.loads(out)
        assert isinstance(report, dict) and set(report) == REPORT_KEYS, argv
    assert len(err.encode("utf-8")) < 300, (argv, err)
    assert "Traceback" not in err, (argv, err)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(
    derandomize=True,
    database=None,
    phases=(Phase.explicit, Phase.generate),
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
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
