"""The README's examples run as written: the library example prints what its
trailing comments say, and each line of the CLI block exits 0 or 1 with one
JSON report (optional ``[...]`` parts dropped).  The ``vessiot`` command, run
in a new process, prints those reports byte for byte as ``cli.main`` does in
process, with the same exit code."""

import json
import os
import re
import shlex
import subprocess
import sys
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


def cli_argvs() -> list:
    """The arguments of each CLI line, without and with its ``[...]`` parts."""
    argvs = []
    for line in cli_lines():
        for text in (re.sub(r"\s*\[[^\]]*\]", "", line), re.sub(r"[\[\]]", "", line)):
            argv = shlex.split(text)[1:]
            if argv not in argvs:
                argvs.append(argv)
    return argvs


@pytest.mark.parametrize("argv", cli_argvs() + [["compute", "--format", "yaml"]], ids=" ".join)
def test_vessiot_command_prints_what_main_prints(argv, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = cli.main(argv)
    expected = capsys.readouterr()
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    entry = subprocess.run([sys.executable, "-c", "from vessiot.cli import run; run()", *argv],
                           cwd=ROOT, env=env, capture_output=True, timeout=60)
    assert (entry.returncode, entry.stdout, entry.stderr) == (
        code, expected.out.encode(), expected.err.encode())
