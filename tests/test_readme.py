"""The README's examples run as written: the `## Library` code block
executes, and every `berry-holonomy` line of the `## Command line` block
exits 0 through `cli.main`, its `--out` file moved under a temporary
directory.  Its table of each subcommand's flags names the parser's flags."""
import argparse
import re
import shlex
from pathlib import Path

import pytest

from berry_holonomy.cli import build_parser, main

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


def _flag_table() -> dict:
    """{subcommand: flags} from the table under "Each subcommand takes only
    the flags it reads"; a row may name several subcommands."""
    body = README.read_text().split("Each subcommand takes only the flags it reads", 1)[1]
    # cells split at the pipes that `\|` does not escape; two rows of header
    rows = [re.split(r"(?<!\\)\|", line)[1:3] for line in body.split("\n\n")[1].splitlines()[2:]]
    return {
        name: set(re.findall(r"`(--[a-z]+)", flags))
        for names, flags in rows
        for name in re.findall(r"`([a-z]+)`", names)
    }


def test_flag_table_matches_parser():
    """Every subcommand has a row, and the row's flags are the `--` option
    strings of its parser, `--help` left out."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    table = _flag_table()
    assert set(table) == set(sub.choices)
    for name, parser in sub.choices.items():
        flags = {s for a in parser._actions for s in a.option_strings if s.startswith("--")}
        assert table[name] == flags - {"--help"}, name
