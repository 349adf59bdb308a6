"""The README's examples run as written: the `## Library` code block
executes, and every `berry-holonomy` line of the `## Command line` block
exits 0 through `cli.main`, its `--out` file moved under a temporary
directory."""
import re
import shlex
from pathlib import Path

import pytest

from berry_holonomy.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(section: str, lang: str) -> str:
    """The first ```lang code block under the `## section` heading."""
    body = README.read_text().split(f"\n## {section}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", body, re.S).group(1)


COMMANDS = [
    shlex.split(line)[1:]
    for line in _block("Command line", "sh").splitlines()
    if line.startswith("berry-holonomy ")
]


def test_readme_lists_commands():
    assert len(COMMANDS) >= 7


def test_library_block_runs(capsys):
    exec(compile(_block("Library", "python"), str(README), "exec"), {})
    assert capsys.readouterr().out


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(a) for a in COMMANDS])
def test_command_line_block_runs(argv, tmp_path, monkeypatch):
    argv = list(argv)
    if "--out" in argv:
        i = argv.index("--out") + 1
        argv[i] = str(tmp_path / Path(argv[i]).name)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
