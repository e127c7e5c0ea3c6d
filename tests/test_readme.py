"""The README's examples run as written: its command-line block through
click's runner in a scratch directory, and its Python blocks in order."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

from click.testing import CliRunner

from maslov_kit.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def blocks(lang, text):
    """The fenced code blocks of one language in text, in order."""
    return re.findall(rf"^```{lang}\n(.*?)^```", text, re.S | re.M)


def test_readme_command_line_block_runs(tmp_path, monkeypatch):
    section = README.read_text().split("## Command line", 1)[1]
    commands = [shlex.split(line) for line in blocks("sh", section)[0].splitlines()
                if line.startswith("maslov-kit ")]
    assert {c[1] for c in commands} == {"gen", "compute", "path", "rotation",
                                        "selftest"}
    monkeypatch.chdir(tmp_path)
    runner = CliRunner()
    for command in commands:
        res = runner.invoke(main, command[1:], catch_exceptions=False)
        assert res.exit_code == 0, (command, res.output)
        if command[1] != "selftest" and res.output:
            json.loads(res.output)
        if "--out" in command:
            json.loads((tmp_path / command[command.index("--out") + 1]).read_text())
        if "--csv" in command:
            assert (tmp_path / command[command.index("--csv") + 1]).is_file()


def test_readme_python_blocks_run():
    namespace = {}
    code = blocks("python", README.read_text())
    assert code
    with contextlib.redirect_stdout(io.StringIO()) as out:
        for source in code:
            exec(compile(source, str(README), "exec"), namespace)
    assert out.getvalue().count("\n") == sum(c.count("print(") for c in code)
