import json
import os
import threading
import time
from pathlib import Path

import pytest

from vessiot import cli, curvature, structure, symexpr
from vessiot.cli import build_parser, main
from vessiot.jetcalc import MAX_ORDER_LIMIT
from vessiot.symexpr import _pconst, parse

SECTIONS = Path(__file__).resolve().parent.parent / "sections"
METRIC_BODY = "w11 = 1\nw22 = 1\nw12 = 0\n"
# a refused token this long is quoted to 40 characters in the message
LONG = "z" * 200_000


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
        # the refused point is not echoed: 100 coordinates of 1,000 digits each
        code, _, err = run_cli(
            capsys,
            "equivalence",
            "--left",
            str(SECTIONS / "metric_euclidean.section"),
            "--right",
            str(SECTIONS / "metric_half_plane.section"),
            "--sample-point",
            ",".join(["9" * 1000] * 100),
        )
        assert code == 2
        assert "needs 2 coordinates, got 100" in err and len(err.encode()) < 300

    @pytest.mark.parametrize(
        "point, shown",
        [("-1/2,3", ["-1/2", "3"]), ("1" * 1000 + ",2", ["1" * 1000, "2"])],
        ids=["fraction", "1000-digits"],
    )
    def test_sample_point_accepted(self, capsys, point, shown):
        code, out, err = run_cli(
            capsys, "equivalence",
            "--left", str(SECTIONS / "metric_euclidean.section"),
            "--right", str(SECTIONS / "metric_indefinite.section"),
            f"--sample-point={point}",
        )
        assert code == 1
        assert err == ""
        assert json.loads(out)["result"]["sample_point"] == shown

    @pytest.mark.parametrize("point", ["-1/2,3", "-1,1", "-3/4,1", "-1.5,2"])
    def test_sample_point_space_form(self, capsys, point):
        # argparse alone takes -1 and -1.5 for values, and -1/2,3 for an option
        pair = ("--left", str(SECTIONS / "metric_euclidean.section"),
                "--right", str(SECTIONS / "metric_indefinite.section"))
        spaced = run_cli(capsys, "equivalence", *pair, "--sample-point", point)
        joined = run_cli(capsys, "equivalence", *pair, f"--sample-point={point}")
        assert spaced == joined
        assert spaced[0] == 1 and spaced[2] == ""

    def test_sample_point_before_an_option_exit_two(self, capsys):
        code, out, err = run_cli(
            capsys, "equivalence",
            "--left", str(SECTIONS / "metric_euclidean.section"),
            "--right", str(SECTIONS / "metric_indefinite.section"),
            "--sample-point", "--format", "json",
        )
        assert (code, out) == (2, "")
        assert "--sample-point: expected one argument" in err

    @pytest.mark.parametrize(
        "point, position",
        [
            ("1e5000,2", 1), ("1E2,3", 1), ("1" * 1001 + ",2", 1), ("2,1/" + "3" * 1001, 2),
            ("0." + "1" * 1001 + ",2", 1), ("2," + "7" * 10**6, 2), ("1/0,2", 1),
            ("x" * 10**6 + ",2", 1), ("\U000e0001" * 1000 + ",2", 1),
        ],
        ids=[
            "exponent", "capital-exponent", "long-numerator", "long-denominator", "long-decimal",
            "million-digits", "zero-denominator", "long-garbage", "escaped-characters",
        ],
    )
    def test_sample_point_budget_exit_two(self, capsys, point, position):
        # Fraction() would build 10**5000 before anything checked it
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "equivalence",
            "--left", str(SECTIONS / "metric_euclidean.section"),
            "--right", str(SECTIONS / "metric_indefinite.section"),
            f"--sample-point={point}",
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert "bad sample point" in err and "internal error" not in err
        # the refused coordinate is named by its position and quoted in part only
        assert f"bad sample point: coordinate {position} " in err
        assert len(err.encode()) < 300

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

    def test_gcd_give_up_exit_two(self, capsys, monkeypatch, tmp_path):
        # the shared factor x1^2 + x2 is neither operand, so no trial division
        # finds it and the heuristic runs
        path = write(
            tmp_path, "shared.section",
            "kind = METRIC_2D\nw11 = (x1^2 + x2)*(x1 + x2^2 + 1)/((x1^2 + x2)*(3*x1^2 + x2 + 2))\n"
            "w22 = 1\nw12 = 0\n",
        )
        monkeypatch.setattr(symexpr, "_heu_gcd", lambda f, g: None)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "compute", "--section", path)
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

    def test_undecodable_section_exit_two(self, capsys, tmp_path):
        path = tmp_path / "binary.section"
        path.write_bytes(b"kind = METRIC_2D\nw11 = 1\xff\nw22 = 1\nw12 = 0\n")
        code, out, err = run_cli(capsys, "compute", "--section", str(path))
        assert code == 2
        assert out == ""
        assert "not UTF-8" in err and "internal error" not in err

    @pytest.mark.parametrize("extra, exit_code", [(0, 0), (1, 2)])
    def test_section_byte_budget(self, capsys, tmp_path, extra, exit_code):
        # a valid section padded by a comment to the budget, then one byte past it
        body = b"kind = METRIC_2D\nw11 = 1\nw22 = 1\nw12 = 0\n# "
        path = tmp_path / "padded.section"
        path.write_bytes(body + b"x" * (symexpr.MAX_SECTION_BYTES - len(body) + extra))
        code, out, err = run_cli(capsys, "compute", "--section", str(path))
        assert code == exit_code
        if exit_code:
            assert out == ""
            assert f"larger than {symexpr.MAX_SECTION_BYTES} bytes" in err

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("extra, exit_code", [(-1000, 0), (1000, 2)], ids=["under", "over"])
    def test_section_byte_budget_on_a_pipe(self, capsys, tmp_path, extra, exit_code):
        # a pipe returns short reads; the budget holds all the same
        body = b"kind = METRIC_2D\nw11 = 1\nw22 = 1\nw12 = 0\n# "
        data = body + b"x" * (symexpr.MAX_SECTION_BYTES - len(body) + extra)
        path = tmp_path / "piped.section"
        os.mkfifo(path)

        def feed():
            try:
                with open(path, "wb", buffering=0) as fh:
                    for start in range(0, len(data), 4099):  # uneven pieces
                        fh.write(data[start:start + 4099])
            except BrokenPipeError:  # the reader stopped just past the budget
                pass

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        code, out, err = run_cli(capsys, "compute", "--section", str(path))
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert code == exit_code
        if exit_code:
            assert out == ""
            assert f"larger than {symexpr.MAX_SECTION_BYTES} bytes" in err
        else:
            assert err == ""

    @pytest.mark.parametrize(
        "body, message",
        [
            (b"kind = METRIC_2D\nw11 = 1\xff\nw22 = 1\nw12 = 0\n", "not UTF-8"),
            (b"#" * (symexpr.MAX_SECTION_BYTES + 1), "larger than"),
        ],
        ids=["undecodable", "too-large"],
    )
    def test_long_section_path_quoted_in_part(self, capsys, tmp_path, body, message):
        folder = tmp_path.joinpath(*["d" * 200] * 10)  # a 2,000-character path
        folder.mkdir(parents=True)
        path = folder / "s.section"
        path.write_bytes(body)
        code, out, err = run_cli(capsys, "compute", "--section", str(path))
        assert code == 2
        assert out == ""
        assert message in err
        assert len(err.encode()) < 300

    @pytest.mark.parametrize(
        "text, message",
        [
            (f"kind = METRIC_2D\n{LONG}\n", "expected 'key = value'"),
            (f"kind = {LONG}\n", "unknown kind"),
            ("kind = METRIC_2D\nn = " + "7" * 5000 + "\n" + METRIC_BODY, "n must be an integer"),
            ("kind = METRIC_2D\nn = " + "7" * 4000 + "\n" + METRIC_BODY, "requires n = 2"),
            (f"kind = METRIC_2D\nparams = {LONG}!\n" + METRIC_BODY, "invalid parameter name"),
            (f"kind = METRIC_2D\n{METRIC_BODY}{LONG} = 1\n", "unexpected keys in section file: 1, the first"),
            (f"kind = METRIC_2D\n{LONG} = 1\n{LONG} = 2\n", "duplicate key"),
            (f"kind = METRIC_2D\nw11 = {LONG}\nw22 = 1\nw12 = 0\n", "unknown identifier"),
            ("kind = METRIC_2D\nw11 = x1 " + "1" * 1000 + "\nw22 = 1\nw12 = 0\n",
             "unexpected trailing input"),
        ],
        ids=[
            "no-equals", "unknown-kind", "n-not-integer", "n-mismatch", "params-header",
            "unexpected-key", "duplicate-key", "unknown-identifier", "trailing-input",
        ],
    )
    def test_refused_section_text_quoted_in_part(self, capsys, tmp_path, text, message):
        path = write(tmp_path, "long.section", text)
        code, out, err = run_cli(capsys, "compute", "--section", path)
        assert code == 2
        assert out == ""
        assert message in err and "internal error" not in err
        assert len(err.encode()) < 300

    def test_degree_thirty_thousand_keeps_its_report(self, capsys, tmp_path):
        # 300 factors x1^100: total degree 30,000, far inside the packed field
        power = "*".join(["x1^100"] * 300)
        flat = write(tmp_path, "flat.section", f"kind = METRIC_2D\nw11 = {power}\nw22 = 1\nw12 = 0\n")
        code, out, _ = run_cli(capsys, "compute", "--section", flat)
        assert code == 0
        assert json.loads(out)["result"]["constants"] == {"c1": "0", "c2": "0"}
        code, out, _ = run_cli(capsys, "curvature", "--section", flat)
        assert code == 0
        assert json.loads(out)["result"]["det"] == "x1^30000"
        curved = write(tmp_path, "curved.section", f"kind = METRIC_2D\nw11 = 1\nw22 = {power}\nw12 = 0\n")
        code, out, _ = run_cli(capsys, "curvature", "--section", curved)
        assert code == 1
        result = json.loads(out)["result"]
        assert result["curvature"]["riemann"]["r1_2,12"] == "-224985000*x1^29998"
        assert result["report"]["residual"] == "-224985000/(x1^2)"

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

        monkeypatch.setattr(json, "dumps", refuse)
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

    @pytest.mark.parametrize(
        "cc, message",
        [
            ("q" * 100_000, "bad CC term"),
            ("d11O" + "L" * 100_000, "unknown equation label"),
            ("d11O1,," + "q" * 100_000, "empty CC term"),
            ("d3" + "1" * 100_000 + "O1", "coordinate index 3 outside 1..2"),
        ],
        ids=["bad-term", "unknown-label", "empty-term", "coordinate-index"],
    )
    def test_refused_cc_quoted_in_part(self, capsys, cc, message):
        code, out, err = run_cli(
            capsys, "check-cc", "--section", str(SECTIONS / "product_flat.section"), "--cc", cc
        )
        assert code == 2
        assert out == ""
        assert message in err
        assert len(err.encode()) < 300

    @pytest.mark.parametrize("value", ["0", "-1", "-" + "9" * 4000])
    def test_nonpositive_max_order_exit_two(self, capsys, value):
        code, out, err = run_cli(
            capsys, "check-cc", "--section", str(SECTIONS / "product_flat.section"),
            "--cc", "d11O1", "--max-order", value,
        )
        assert code == 2
        assert out == ""
        assert "--max-order must be at least 1" in err
        assert len(err.encode()) < 300

    @pytest.mark.parametrize("value", ["17", "100000", "9" * 4000])
    def test_max_order_above_the_limit_exit_two(self, capsys, value):
        code, out, err = run_cli(
            capsys, "check-cc", "--section", str(SECTIONS / "product_flat.section"),
            "--cc", "d11O1", "--max-order", value,
        )
        assert code == 2
        assert out == ""
        assert f"--max-order must be at least 1 and at most {MAX_ORDER_LIMIT}" in err
        assert len(err.encode()) < 300

    def test_max_order_at_the_limit_runs(self, capsys):
        argv = ["check-cc", "--section", str(SECTIONS / "product_projective.section"),
                "--max-order", str(MAX_ORDER_LIMIT)]
        code, out, _ = run_cli(capsys, *argv, "--cc", "d" + "12" * 7 + "1O3")
        assert code == 1  # an order-16 residual, computed
        assert json.loads(out)["verdict"] == "nonzero-residual"
        code, _, err = run_cli(capsys, *argv, "--cc", "d" + "12" * 8 + "O3")
        assert code == 2
        assert f"exceeds max jet order {MAX_ORDER_LIMIT}" in err

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

    def test_cancelling_terms_are_an_identity(self, capsys):
        code, out, _ = run_cli(
            capsys, "check-cc", "--section", str(SECTIONS / "metric_euclidean.section"),
            "--cc", "d1O11,-d1O11",
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "identity"

    def test_max_order_caps_the_derivative(self, capsys):
        code, _, err = run_cli(
            capsys,
            "check-cc",
            "--section",
            str(SECTIONS / "product_flat.section"),
            "--cc",
            "d112O1",
            "--max-order",
            "2",
        )
        assert code == 2
        assert "exceeds max jet order 2" in err

    def test_max_order_four_runs_and_is_the_default(self, capsys):
        argv = ["check-cc", "--section", str(SECTIONS / "product_flat.section"), "--cc", "d112O1"]
        code, out, _ = run_cli(capsys, *argv, "--max-order", "4")
        assert code == 1  # runs; residual nonzero
        assert run_cli(capsys, *argv) == (code, out, "")
        code, _, err = run_cli(capsys, *argv[:-1], "d1122O1")
        assert code == 2
        assert "exceeds max jet order 4" in err


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

    def test_section_path_quoted_in_part(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--section", "no/such/file.section")
        assert err == (
            "vessiot: error: [Errno 2] No such file or directory: 'no/such/file.section'\n"
        )
        code, out, err = run_cli(capsys, "compute", "--section", "p" * 6000)
        assert code == 2
        assert out == ""
        assert "File name too long" in err
        assert len(err.encode()) < 300

    @pytest.mark.parametrize(
        "argv",
        [
            ["check-cc", "--section", "s", "--cc", "d11O1", "--max-order", "z" * 5000],
            ["dims", "--n", "z" * 5000],
            ["dims", "--n=" + "z" * 5000],
            ["dims", "--n", "-" + "9" * 4000],
            ["dims", "--n", "2", "--f1", "z" * 5000],
            ["dims", "--n", "2", "--format", "z" * 5000],
            ["dims", "--n", "2", "z" * 5000],
            ["dims", "--n", "2", "a " * 2500],
            ["dims", "--n", "2", "--f=" + "z" * 5000],
            ["dims", "--n", "2", "--f=" + "a " * 2500],
            ["z" * 5000],
        ],
        ids=["max-order", "n", "n-equals", "n-below-one", "f1", "format", "unrecognized", "unrecognized-words",
             "ambiguous-option", "ambiguous-option-words", "command"],
    )
    def test_refused_argument_quoted_in_part(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "error: " in err and "z" * 41 not in err and "a " * 21 not in err
        assert len(err.encode()) < 300
        assert "Traceback" not in err

    def test_abbreviated_option_refused(self, capsys):
        code, out, err = run_cli(capsys, "dims", "--n", "2", "--form", "text")
        assert code == 2 and out == ""
        assert "unrecognized arguments: '--form text'" in err
        assert run_cli(capsys, "dims", "--n", "2", "--format=text")[0] == 0

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

    @pytest.mark.parametrize("name", ["product_flat", "contact_standard"])
    def test_violated_jacobi_exit_three(self, capsys, monkeypatch, name):
        # constant structure functions with a nonzero Jacobi residual: c' = 1,
        # c'' = 2 for the product (as the unreduced pairs 1/1 and 2/1),
        # c' = c'' = 1 for the contact pair
        if name == "product_flat":
            values = iter([1, 2])
            monkeypatch.setattr(
                structure, "_curl",
                lambda a, i, b, j, w, cleared: (_pconst(next(values)), _pconst(1)),
            )
        else:
            monkeypatch.setattr(
                structure, "_proportionality", lambda num, ref, *_: ref.context.one()
            )
        path = str(SECTIONS / f"{name}.section")
        code, out, err = run_cli(capsys, "compute", "--section", path)
        assert (code, out) == (3, "")
        assert err.startswith("vessiot: internal error: RuntimeError: Jacobi identity violated")

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
