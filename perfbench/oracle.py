"""Engine-independent answer checks.

Every report the benchmark collects is compared here with the expected answer
stored in ``corpus/pool.json`` (hand-derived for the known-answer families,
sympy-derived values at fixed rational points for the random ones) or, for the
bundled sections, with the results the README states.  Expression strings in
a report are evaluated with ``ast`` and ``fractions`` only, never with the
engine.
"""

from __future__ import annotations

import ast
import json
from fractions import Fraction
from typing import Dict, Optional, Sequence

_OPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
}


def evaluate(text: str, names: Dict[str, Fraction]) -> Fraction:
    """Exact value of an expression in the section/report grammar."""
    tree = ast.parse(text.replace("^", "**"), mode="eval")
    return _eval(tree.body, names)


def _eval(node, names) -> Fraction:
    if isinstance(node, ast.BinOp):
        left, right = _eval(node.left, names), _eval(node.right, names)
        if isinstance(node.op, ast.Pow):
            if right.denominator != 1:
                raise ValueError("non-integer exponent")
            return left ** int(right)
        return _OPS[type(node.op)](left, right)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        value = _eval(node.operand, names)
        return -value if isinstance(node.op, ast.USub) else value
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return Fraction(node.value)
    if isinstance(node, ast.Name) and node.id in names:
        return names[node.id]
    raise ValueError(f"unsupported expression node {ast.dump(node)}")


def point_names(point: Sequence[Fraction]) -> Dict[str, Fraction]:
    return {f"x{i + 1}": Fraction(v) for i, v in enumerate(point)}


def components(text: str) -> Dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, _, value = line.split("#", 1)[0].partition("=")
        if value:
            out[key.strip()] = value.strip()
    return out


class Mismatch(Exception):
    """An output disagrees with its expected answer."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


def _same_values(text: str, expected: Sequence[str], points, what: str) -> None:
    for point, want in zip(points, expected):
        got = evaluate(text, point_names(point))
        _require(got == Fraction(want), f"{what} = {got} at {point}, expected {want}")


# ----------------------------------------------------------------------
# per-command checks against pool answers
# ----------------------------------------------------------------------


class Oracle:
    """Checks outputs of pool items; ``pool`` is the parsed corpus/pool.json."""

    def __init__(self, pool: dict):
        self.sections = {e["id"]: e for e in pool["sections"]}
        self.points = {1: [tuple(Fraction(v) for v in p) for p in pool["points_1d"]],
                       2: [tuple(Fraction(v) for v in p) for p in pool["points_2d"]]}

    def check(self, item: dict, code: Optional[int], stdout: str) -> None:
        """Raise Mismatch unless (exit code, stdout) answer the item correctly."""
        op = item["op"]
        if op == "jet":
            return self._check_jet(self.sections[item["sections"][0]], code, stdout)
        _require(code in (0, 1), f"exit code {code}")
        payload = json.loads(stdout)
        if op == "equivalence":
            return self._check_equivalence(item, code, payload)
        entry = self.sections[item["sections"][0]]
        report = payload["result"]["report"] if op == "curvature" else payload["result"]
        if op == "curvature" and entry["kind"] == "METRIC_2D":
            self._check_metric_curvature(entry, payload["result"])
        check = getattr(self, "_compute_" + entry["kind"].lower())
        check(entry, report, payload)
        want = 0 if report["integrable"] else 1
        _require(code == want, f"exit code {code} for integrable={report['integrable']}")

    # -- metrics: Gaussian curvature K (Brioschi formula) ----------------

    def _compute_metric_2d(self, entry, report, payload):
        expect = entry["expect"]
        if expect["c1"] is not None:
            _require(report["integrable"], "constant curvature reported non-integrable")
            _require(Fraction(report["constants"]["c1"]) == Fraction(expect["c1"]),
                     f"c1 = {report['constants']['c1']}, expected {expect['c1']}")
            _require(report["constants"]["c2"] == "0", "c2 != 0")
        else:
            _require(not report["integrable"], "non-constant curvature reported integrable")
            _same_values(report["residual"], expect["K_at"], self.points[2], "residual")

    def _check_metric_curvature(self, entry, result):
        expect, points = entry["expect"], self.points[2]
        comps = components(entry["text"])
        _same_values(result["det"], expect["det_at"], points, "det")
        curv = result["curvature"]
        _require(curv["phi_12"] == "0", "phi_12 != 0 for a Levi-Civita connection")
        for point, k_text in zip(points, expect["K_at"]):
            names, K = point_names(point), Fraction(k_text)
            w = {key: evaluate(comps[key], names) for key in ("w11", "w22", "w12")}
            # n = 2: R^k_{l,12} = K (delta^k_1 w_l2 - delta^k_2 w_l1), Ric = K w
            want = {
                ("riemann", "r1_1,12"): K * w["w12"], ("riemann", "r1_2,12"): K * w["w22"],
                ("riemann", "r2_1,12"): -K * w["w11"], ("riemann", "r2_2,12"): -K * w["w12"],
                ("ricci", "r11"): K * w["w11"], ("ricci", "r22"): K * w["w22"],
                ("ricci", "r12"): K * w["w12"], ("ricci", "r21"): K * w["w12"],
                ("sym", "s11"): K * w["w11"], ("sym", "s22"): K * w["w22"],
                ("sym", "s12"): K * w["w12"],
            }
            for (group, name), value in want.items():
                got = evaluate(curv[group][name], names)
                _require(got == value, f"{group}.{name} = {got} at {point}, expected {value}")

    # -- product triple --------------------------------------------------

    def _compute_product_triple_2d(self, entry, report, payload):
        expect, points = entry["expect"], self.points[2]
        jacobi = [str(Fraction(a) - Fraction(b))
                  for a, b in zip(expect["c_prime_at"], expect["c_second_at"])]
        _require(len(report["jacobi_residuals"]) == 1, "one Jacobi residual expected")
        _same_values(report["jacobi_residuals"][0], jacobi, points, "jacobi residual")
        if expect["c"] is not None:
            _require(report["integrable"], "constant c reported non-integrable")
            _require(Fraction(report["constants"]["c"]) == Fraction(expect["c"]),
                     f"c = {report['constants']['c']}, expected {expect['c']}")
            return
        _require(not report["integrable"], "non-constant c reported integrable")
        try:
            _same_values(report["residual"], expect["c_prime_at"], points, "residual")
        except Mismatch:
            # c' constant at the probes: the residual is c''
            _require(len(set(expect["c_prime_at"])) == 1, "residual is not c'")
            _same_values(report["residual"], expect["c_second_at"], points, "residual")

    def _check_equivalence(self, item, code, payload):
        left, right = (self.sections[s]["expect"]["c"] for s in item["sections"])
        obstructed = (Fraction(left) == 0) != (Fraction(right) == 0)
        status = "Obstructed" if obstructed else "NecessaryConditionsPass"
        _require(payload["result"]["status"] == status,
                 f"status {payload['result']['status']}, expected {status}")
        _require(code == (1 if obstructed else 0), f"exit code {code}")

    # -- the other kinds -------------------------------------------------

    def _compute_contact_pair_3d(self, entry, report, payload):
        expect = entry["expect"]
        _require(report["integrable"], "contact pair reported non-integrable")
        for name in ("c_prime", "c_second"):
            got = Fraction(report["constants"][name])
            _require(got == Fraction(expect[name]), f"{name} = {got}, expected {expect[name]}")

    def _compute_one_form_1d(self, entry, report, payload):
        expect = entry["expect"]
        if expect["c"] is not None:
            _require(report["integrable"], "constant c reported non-integrable")
            _require(Fraction(report["constants"]["c"]) == Fraction(expect["c"]),
                     f"c = {report['constants']['c']}, expected {expect['c']}")
        else:
            _require(not report["integrable"], "non-constant c reported integrable")
            _same_values(report["residual"], expect["c_at"], self.points[1], "residual")

    def _compute_christoffel_1d(self, entry, report, payload):
        expect = entry["expect"]
        _require(report["kind"] == "PROJECTIVE_1D", "kind")
        _require(report["integrable"] == expect["zero"], "projective verdict")
        if not expect["zero"]:
            _same_values(report["residual"], expect["residual_at"], self.points[1],
                         "residual")

    def _compute_christoffel_2d(self, entry, report, payload):
        expect, points = entry["expect"], self.points[2]
        _require(report["integrable"] == expect["flat"], "flatness verdict")
        nonzero = [name for name, values in sorted(expect["riemann_at"].items())
                   if any(Fraction(v) for v in values)]
        listed = [line.split(" = ", 1) for line in payload["residuals"]]
        _require([name for name, _ in listed] == nonzero,
                 f"nonzero components {[n for n, _ in listed]}, expected {nonzero}")
        for name, text in listed:
            _same_values(text, expect["riemann_at"][name], points, name)
        if nonzero:
            _same_values(report["residual"], expect["riemann_at"][nonzero[0]], points,
                         "residual")

    # -- jet systems ------------------------------------------------------

    def _check_jet(self, entry, code, stdout):
        _require(code == 0, f"jet pipeline status {code}")
        fields = dict(line.split(" ", 1) for line in stdout.splitlines())
        expect = entry["expect"]
        _require(int(fields["top_order"]) == expect["top_order"], "top order")
        _require(int(fields["symbol_dim"]) == expect["symbol_dim"],
                 f"symbol dim {fields['symbol_dim']}, expected {expect['symbol_dim']}")
        _require((fields["cc_zero"] == "True") == expect["cc_zero"],
                 f"cc_zero {fields['cc_zero']}, expected {expect['cc_zero']}")


# ----------------------------------------------------------------------
# the bundled sections: README results
# ----------------------------------------------------------------------


def check_cli(item: dict, code: Optional[int], stdout: str, stderr: str) -> None:
    """Check one cli_corpus call against its hand-written expectation."""
    expect = item["expect"]
    if "traceback" in stderr.lower():
        raise Mismatch("traceback on stderr")
    codes = expect["exit"] if isinstance(expect["exit"], list) else [expect["exit"]]
    _require(code in codes, f"exit code {code}, expected {codes}")
    if code == 2:
        _require(stdout == "", "usage error printed a report")
        return
    payload = json.loads(stdout)
    result = payload["result"]
    for path, want in expect.get("fields", {}).items():
        value = payload
        for part in path.split("."):
            value = value[part]
        _require(value == want, f"{path} = {value!r}, expected {want!r}")
    for path, want in expect.get("constants", {}).items():
        value = payload
        for part in path.split("."):
            value = value[part]
        _require(Fraction(value) == Fraction(want), f"{path} = {value}, expected {want}")
    if "reason" in expect:
        _require(any(expect["reason"] in r for r in result["reasons"]),
                 f"no reason mentioning {expect['reason']!r}")
