"""The README's library example and command-line examples run as written."""

import re
import shlex
from pathlib import Path

from scramble import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert blocks, "README has no python example"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_command_line_examples_run(tmp_path, monkeypatch):
    # Each `scramble ...` line of the sh block under "Command line", but the
    # placeholder for a config of one's own.
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [c for c in commands if c[:1] == ["scramble"] and "path/to/custom.json" not in c]
    assert len(commands) == 3
    monkeypatch.chdir(tmp_path)
    for command in commands:
        assert cli.main(command[1:]) == 0, command
