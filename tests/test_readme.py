"""The README's examples run as written: the library example prints what its
trailing comments say, and each line of the CLI block exits 0 or 1 with one
JSON report (optional ``[...]`` parts dropped)."""

import json
import re
import shlex
from pathlib import Path

import pytest

from vessiot import cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
REPORT_KEYS = {"command", "inputs", "result", "residuals", "verdict"}


def code_block(heading: str, language: str) -> str:
    """The first ``language`` fenced block after the ``## heading`` line."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def cli_lines() -> list:
    return [
        line for line in code_block("CLI", "sh").splitlines() if line.startswith("vessiot ")
    ]


def test_library_example_prints_its_comments(capsys):
    source = code_block("Library example", "python")
    expected = [m.group(1) for m in re.finditer(r"^print\(.*#\s*(\S+)\s*$", source, re.M)]
    assert expected == ["-2", "Obstructed"]
    exec(compile(source, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected


def test_cli_block_has_every_command():
    assert sorted(line.split()[1] for line in cli_lines()) == sorted(
        ["compute", "equivalence", "dims", "check-cc", "curvature"]
    )


@pytest.mark.parametrize("line", cli_lines())
def test_cli_line_prints_one_report(line, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    argv = shlex.split(re.sub(r"\s*\[[^\]]*\]", "", line))[1:]
    assert cli.main(argv) in (0, 1)
    out = capsys.readouterr()
    assert out.err == ""
    assert set(json.loads(out.out)) == REPORT_KEYS
