import json
import time
from pathlib import Path

import pytest

from vessiot import cli, curvature, structure, symexpr
from vessiot.cli import build_parser, main
from vessiot.symexpr import parse

SECTIONS = Path(__file__).resolve().parent.parent / "sections"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestCompute:
    def test_projective_product_constant(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--section", str(SECTIONS / "product_projective.section")
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["constants"]["c"] == "-2"
        assert payload["verdict"] == "integrable"
        assert sorted(payload) == ["command", "inputs", "residuals", "result", "verdict"]

    def test_flat_product(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--section", str(SECTIONS / "product_flat.section")
        )
        assert code == 0
        assert json.loads(out)["result"]["constants"]["c"] == "0"

    def test_metric_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--section", str(SECTIONS / "metric_half_plane.section")
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["constants"] == {"c1": "-1", "c2": "0"}

    def test_one_form_with_gamma(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--section", str(SECTIONS / "one_form_dilatation.section")
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["kind"] == "AFFINE_1D"
        assert payload["result"]["constants"]["c"] == "-1"

    def test_contact_section(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--section", str(SECTIONS / "contact_standard.section")
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["constants"] == {"c_prime": "1", "c_second": "0"}

    def test_projective_1d_section(self, capsys, tmp_path):
        path = write(
            tmp_path, "proj.section", "kind = CHRISTOFFEL_1D\ngamma = 0\nnu = 0\n"
        )
        code, out, _ = run_cli(capsys, "compute", "--section", path)
        assert code == 0
        assert json.loads(out)["result"]["kind"] == "PROJECTIVE_1D"

    def test_non_integrable_exit_code(self, capsys, tmp_path):
        path = write(
            tmp_path,
            "bad.section",
            "kind = PRODUCT_TRIPLE_2D\nw1 = 0\nw2 = 0\nw3 = 1/(x2 - x1)^3\n",
        )
        code, out, _ = run_cli(capsys, "compute", "--section", path)
        assert code == 1
        payload = json.loads(out)
        assert payload["verdict"] == "non-integrable"
        assert payload["result"]["residual"] is not None

    def test_christoffel_2d_flatness(self, capsys, tmp_path):
        flat = write(
            tmp_path,
            "flat.section",
            "kind = CHRISTOFFEL_2D\n"
            + "\n".join(f"{k} = 0" for k in ("g1_11", "g1_12", "g1_22", "g2_11", "g2_12", "g2_22")),
        )
        code, out, _ = run_cli(capsys, "compute", "--section", flat)
        assert code == 0
        assert json.loads(out)["result"]["kind"] == "AFFINE_2D"


class TestEquivalence:
    def test_product_obstruction(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "equivalence",
            "--left",
            str(SECTIONS / "product_flat.section"),
            "--right",
            str(SECTIONS / "product_projective.section"),
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["verdict"] == "Obstructed"
        assert payload["result"]["reasons"]

    def test_metric_determinant_obstruction(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "equivalence",
            "--left",
            str(SECTIONS / "metric_euclidean.section"),
            "--right",
            str(SECTIONS / "metric_indefinite.section"),
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["verdict"] == "Obstructed"
        assert any("determinant" in r for r in payload["result"]["reasons"])
        assert payload["result"]["sample_point"] == ["2", "3"]

    def test_self_equivalence_passes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "equivalence",
            "--left",
            str(SECTIONS / "product_flat.section"),
            "--right",
            str(SECTIONS / "product_flat.section"),
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "NecessaryConditionsPass"

    def test_sample_point_override(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "equivalence",
            "--left",
            str(SECTIONS / "metric_euclidean.section"),
            "--right",
            str(SECTIONS / "metric_indefinite.section"),
            "--sample-point",
            "5,7",
        )
        assert code == 1
        assert json.loads(out)["result"]["sample_point"] == ["5", "7"]

    def test_zero_determinant_at_sample_point_passes(self, capsys, tmp_path):
        # det(w) = x1 - 1 vanishes at (1, 3): no sign can be read there
        path = write(
            tmp_path, "shifted.section", "kind = METRIC_2D\nw11 = x1 - 1\nw22 = 1\nw12 = 0\n"
        )
        code, out, _ = run_cli(
            capsys,
            "equivalence",
            "--left",
            path,
            "--right",
            str(SECTIONS / "metric_euclidean.section"),
            "--sample-point",
            "1,3",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "NecessaryConditionsPass"
        assert payload["result"]["sample_point"] == ["1", "3"]

    def test_sample_point_wrong_length_exit_two(self, capsys):
        code, out, err = run_cli(
            capsys,
            "equivalence",
            "--left",
            str(SECTIONS / "metric_euclidean.section"),
            "--right",
            str(SECTIONS / "metric_half_plane.section"),
            "--sample-point",
            "1,2,3",
        )
        assert code == 2
        assert out == ""
        assert "needs 2 coordinates" in err

    def test_reflected_metric_passes(self, capsys, tmp_path):
        # det = x1 vs -x1 differ in sign at (2, 3), yet (x1, x2) -> (-x1, x2)
        # pulls one metric back to the other
        left = write(tmp_path, "left.section", "kind = METRIC_2D\nw11 = x1\nw22 = 1\nw12 = 0\n")
        right = write(tmp_path, "right.section", "kind = METRIC_2D\nw11 = -x1\nw22 = 1\nw12 = 0\n")
        code, out, _ = run_cli(capsys, "equivalence", "--left", left, "--right", right)
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "NecessaryConditionsPass"
        assert payload["result"]["sample_point"] == ["2", "3"]

    def test_not_integrable_input(self, capsys, tmp_path):
        path = write(
            tmp_path,
            "warped.section",
            "kind = PRODUCT_TRIPLE_2D\nw1 = 0\nw2 = 0\nw3 = 1/(x2 - x1)^3\n",
        )
        code, out, _ = run_cli(
            capsys,
            "equivalence",
            "--left",
            path,
            "--right",
            str(SECTIONS / "product_flat.section"),
        )
        assert code == 1
        assert json.loads(out)["verdict"] == "NotIntegrable"


class TestHostileInput:
    def test_deep_parentheses_exit_two(self, capsys, tmp_path):
        w3 = "(" * 3000 + "1" + ")" * 3000
        path = write(
            tmp_path, "deep.section", f"kind = PRODUCT_TRIPLE_2D\nw1 = 0\nw2 = 0\nw3 = {w3}\n"
        )
        code, out, err = run_cli(capsys, "compute", "--section", path)
        assert code == 2
        assert out == ""
        assert "nesting" in err

    @pytest.mark.parametrize(
        "w3, message",
        [
            ("(x1 + x2 + 1)^3000", "exponent"),
            ("(x1 + x2 + 1)^1000", "degree"),
            ("1" * 10_000, "literal"),
        ],
    )
    def test_input_budget_exit_two(self, capsys, tmp_path, w3, message):
        path = write(
            tmp_path, "big.section", f"kind = PRODUCT_TRIPLE_2D\nw1 = 0\nw2 = 0\nw3 = {w3}\n"
        )
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "compute", "--section", path)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("k", [12, 20])
    def test_power_term_budget_exit_two(self, capsys, tmp_path, k):
        # six slots: two coordinates and four parameters, like x1 + ... + x6
        path = write(
            tmp_path, "terms.section",
            f"kind = PRODUCT_TRIPLE_2D\nparams = a, b, c, d\nw1 = 0\nw2 = 0\n"
            f"w3 = (x1 + x2 + a + b + c + d + 1)^{k}\n",
        )
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "compute", "--section", path)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert "terms" in err and "Traceback" not in err

    def test_product_pair_budget_exit_two(self, capsys, tmp_path):
        # within every parser cap (degree 100, 5,151 terms), but the Christoffel
        # chain multiplies 5,151 by 5,050 terms
        path = write(
            tmp_path, "dense.section",
            "kind = METRIC_2D\nw11 = (x1 + x2 + 1)^100\nw22 = 1\nw12 = 0\n",
        )
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "compute", "--section", path)
        assert time.perf_counter() - start < 15.0
        assert code == 2
        assert out == ""
        assert "term pairs" in err and "Traceback" not in err

    def test_gcd_give_up_exit_two(self, capsys, monkeypatch):
        monkeypatch.setattr(symexpr, "_heu_gcd", lambda f, g: None)
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "compute", "--section", str(SECTIONS / "product_projective.section")
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert "gcd" in err and "Traceback" not in err

    def test_coefficient_budget_exit_two(self, capsys, tmp_path):
        path = write(
            tmp_path, "big.section", "kind = METRIC_2D\nw11 = 10^1000^5\nw22 = -1\nw12 = 0\n"
        )
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "equivalence", "--left", path,
            "--right", str(SECTIONS / "metric_euclidean.section"),
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert "coefficient beyond 10^1000 in magnitude" in err and "Traceback" not in err

    def test_coefficients_within_budget_accepted(self, capsys, tmp_path):
        path = write(
            tmp_path, "wide.section",
            "kind = METRIC_2D\nw11 = 9^1000*x1 + 7^1000*x2^2\n"
            "w22 = 8^1000*x2 + 3^1000*x1*x2\nw12 = 5^1000*x1 + 1\n",
        )
        code, out, err = run_cli(capsys, "curvature", "--section", path)
        assert code == 1
        assert err == ""
        assert json.loads(out)["verdict"] == "non-integrable"

    @pytest.mark.parametrize("params", ["x1", "1a"])
    def test_bad_params_header_exit_two(self, capsys, tmp_path, params):
        path = write(
            tmp_path, "params.section",
            f"kind = PRODUCT_TRIPLE_2D\nparams = {params}\nw1 = 0\nw2 = 0\nw3 = 1\n",
        )
        code, out, err = run_cli(capsys, "compute", "--section", path)
        assert code == 2
        assert out == ""
        assert "params" in err and "Traceback" not in err


class TestDims:
    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_nonpositive_n_exit_two(self, capsys, n):
        code, out, err = run_cli(capsys, "dims", "--n", n)
        assert code == 2
        assert out == ""
        assert "--n must be at least 1" in err

    @pytest.mark.parametrize("n", ["10", "15000"])
    def test_n_beyond_nine_exit_two(self, capsys, n):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "dims", "--n", n)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert f"--n must be at least 1 and at most 9, got {n}" in err
        assert run_cli(capsys, "dims", "--n", "9")[0] == 0

    def test_emission_failure_exit_three(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise ValueError("cannot emit")

        monkeypatch.setattr(cli.json, "dumps", refuse)
        code, out, err = run_cli(capsys, "dims", "--n", "2")
        assert code == 3
        assert out == ""
        assert err == "vessiot: internal error: ValueError: cannot emit\n"

    def test_dimension_diagram(self, capsys):
        code, out, _ = run_cli(capsys, "dims", "--n", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["dim_F2"] == 1
        assert payload["result"]["dim_S2Tstar_F1"] == 9
        assert payload["result"]["dim_S3Tstar_T"] == 8

    def test_explicit_f1(self, capsys):
        code, out, _ = run_cli(capsys, "dims", "--n", "2", "--f1", "4")
        assert code == 0
        assert json.loads(out)["result"]["dim_F2"] == 4 * 3 - 8

    def test_negative_f1_exit_two(self, capsys):
        code, out, err = run_cli(capsys, "dims", "--n", "2", "--f1", "-5")
        assert code == 2
        assert out == ""
        assert "--f1 must be at least 0" in err
        assert run_cli(capsys, "dims", "--n", "2", "--f1", "0")[0] == 0

    def test_huge_f1_exit_two(self, capsys):
        # past 10^1000 the report's 45*f1 nears the interpreter's digit limit
        code, out, err = run_cli(capsys, "dims", "--n", "9", "--f1", "9" * 4299)
        assert code == 2
        assert out == ""
        assert "--f1 must be at least 0 and below 10^1000" in err and "Traceback" not in err
        assert run_cli(capsys, "dims", "--n", "9", "--f1", "9" * 1000)[0] == 0


class TestCheckCC:
    def test_killing_identity(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "check-cc",
            "--section",
            str(SECTIONS / "metric_euclidean.section"),
            "--cc",
            "d11O22,+d22O11,-2d12O12",
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "identity"

    def test_product_identity(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "check-cc",
            "--section",
            str(SECTIONS / "product_flat.section"),
            "--cc",
            "d11O1,+d22O2,-d12O3",
        )
        assert code == 0

    def test_broken_cc_exit_one(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "check-cc",
            "--section",
            str(SECTIONS / "product_flat.section"),
            "--cc",
            "d11O1,+d22O2,+d12O3",
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["verdict"] == "nonzero-residual"
        assert payload["residuals"]

    @pytest.mark.parametrize("digits", [1001, 5000])
    def test_long_multiplier_exit_two(self, capsys, digits):
        code, out, err = run_cli(
            capsys,
            "check-cc",
            "--section",
            str(SECTIONS / "product_flat.section"),
            "--cc",
            "9" * digits + "d11O1",
        )
        assert code == 2
        assert out == ""
        assert "multiplier longer than 1000 digits" in err

    def test_longest_multiplier_runs(self, capsys):
        m = "9" * 1000
        code, out, _ = run_cli(
            capsys,
            "check-cc",
            "--section",
            str(SECTIONS / "product_flat.section"),
            "--cc",
            f"{m}d11O1,+{m}d22O2,-{m}d12O3",
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "identity"

    def test_max_order_env(self, capsys, monkeypatch):
        monkeypatch.setenv("VESSIOT_MAX_ORDER", "2")
        code, _, err = run_cli(
            capsys,
            "check-cc",
            "--section",
            str(SECTIONS / "product_flat.section"),
            "--cc",
            "d112O1",
        )
        assert code == 2
        assert "max jet order" in err

    def test_max_order_flag_overrides(self, capsys, monkeypatch):
        monkeypatch.setenv("VESSIOT_MAX_ORDER", "2")
        code, _, _ = run_cli(
            capsys,
            "check-cc",
            "--section",
            str(SECTIONS / "product_flat.section"),
            "--cc",
            "d112O1",
            "--max-order",
            "4",
        )
        assert code == 1  # runs; residual nonzero


class TestCurvature:
    def test_half_plane(self, capsys):
        code, out, _ = run_cli(
            capsys, "curvature", "--section", str(SECTIONS / "metric_half_plane.section")
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["report"]["constants"] == {"c1": "-1", "c2": "0"}
        assert payload["result"]["curvature"]["ricci"]["r11"] == "-1/(x2^2)"

    def test_indefinite_metric_det(self, capsys):
        code, out, _ = run_cli(
            capsys, "curvature", "--section", str(SECTIONS / "metric_indefinite.section")
        )
        assert code == 0
        assert json.loads(out)["result"]["det"] == "-1"

    def test_wrong_kind(self, capsys):
        code, _, err = run_cli(
            capsys, "curvature", "--section", str(SECTIONS / "product_flat.section")
        )
        assert code == 2
        assert "METRIC_2D" in err

    def test_chain_runs_once(self, capsys, monkeypatch):
        # the curvature data and the constants share one Christoffel->Riemann chain
        calls = []
        original = curvature.riemann

        def counting(conn):
            calls.append(conn)
            return original(conn)

        monkeypatch.setattr(curvature, "riemann", counting)
        path = str(SECTIONS / "metric_half_plane.section")
        code, out, _ = run_cli(capsys, "curvature", "--section", path)
        assert code == 0
        assert len(calls) == 1
        k = "-1/(x2^2)"
        expected = {
            "command": "curvature",
            "inputs": {"section": path},
            "residuals": [],
            "result": {
                "curvature": {
                    "phi_12": "0",
                    "ricci": {"r11": k, "r12": "0", "r21": "0", "r22": k},
                    "riemann": {
                        "r1_1,12": "0", "r1_2,12": k, "r2_1,12": "1/(x2^2)", "r2_2,12": "0",
                    },
                    "sym": {"s11": k, "s12": "0", "s22": k},
                },
                "det": "1/(x2^4)",
                "report": {
                    "constants": {"c1": "-1", "c2": "0"},
                    "integrable": True,
                    "jacobi_residuals": [],
                    "kind": "METRIC_2D",
                    "residual": None,
                },
            },
            "verdict": "integrable",
        }
        assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


class TestReportHygiene:
    def test_byte_determinism(self, capsys):
        _, first, _ = run_cli(
            capsys, "compute", "--section", str(SECTIONS / "product_projective.section")
        )
        _, second, _ = run_cli(
            capsys, "compute", "--section", str(SECTIONS / "product_projective.section")
        )
        assert first == second

    def test_expression_strings_reparse(self, capsys):
        _, out, _ = run_cli(
            capsys, "curvature", "--section", str(SECTIONS / "metric_half_plane.section")
        )
        payload = json.loads(out)
        r11 = parse(payload["result"]["curvature"]["ricci"]["r11"], 2)
        assert r11 == parse("-1/x2^2", 2)

    def test_text_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "compute",
            "--section",
            str(SECTIONS / "product_projective.section"),
            "--format",
            "text",
        )
        assert code == 0
        assert "c: -2" in out
        assert "verdict: integrable" in out

    def test_missing_file_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--section", "no/such/file.section")
        assert code == 2
        assert err

    def test_malformed_section_exit_two(self, capsys, tmp_path):
        path = write(tmp_path, "bad.section", "kind = METRIC_2D\nw11 = 1\n")
        code, _, err = run_cli(capsys, "compute", "--section", path)
        assert code == 2
        assert "missing component" in err

    def test_syntax_error_in_component(self, capsys, tmp_path):
        path = write(
            tmp_path, "bad.section", "kind = METRIC_2D\nw11 = 1 +\nw22 = 1\nw12 = 0\n"
        )
        code, _, err = run_cli(capsys, "compute", "--section", path)
        assert code == 2

    def test_internal_error_exit_three(self, capsys, monkeypatch):
        def broken(sec, extras):
            raise RuntimeError("Jacobi identity c' = c'' violated")

        monkeypatch.setattr(structure, "structure_report", broken)
        code, out, err = run_cli(
            capsys, "compute", "--section", str(SECTIONS / "product_flat.section")
        )
        assert code == 3
        assert out == ""
        assert err == "vessiot: internal error: RuntimeError: Jacobi identity c' = c'' violated\n"
        assert "Traceback" not in err

    def test_unknown_command_exit_two(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_parser_built_once(self, capsys):
        parser = build_parser()
        assert main(["frobnicate"]) == 2
        assert run_cli(capsys, "dims", "--n", "2")[0] == 0
        assert build_parser() is parser

    def test_degenerate_section_exit_two(self, capsys, tmp_path):
        path = write(
            tmp_path, "deg.section", "kind = METRIC_2D\nw11 = 1\nw22 = 1\nw12 = 1\n"
        )
        code, _, err = run_cli(capsys, "compute", "--section", path)
        assert code == 2
        assert "witness" in err or "det" in err
