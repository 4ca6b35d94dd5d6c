"""The README's CLI synopsis and the golden CLI entries keep up with the
parser: every option a subcommand defines is in its synopsis line, and every
converge and compact mode has a pinned output."""

import re
from pathlib import Path

import pytest

from fuzzymetrics.cli import build_parser
from test_cli_golden import GOLDEN

README = Path(__file__).resolve().parent.parent / "README.md"


def _subparsers() -> dict:
    (action,) = [a for a in build_parser()._actions if a.choices and a.dest == "command"]
    return action.choices


def _synopsis() -> dict[str, str]:
    """Each subcommand's synopsis in the README's CLI section, continuation
    lines joined."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```\n", 2)[1]
    lines: dict[str, str] = {}
    for line in block.splitlines():
        if line.startswith("fuzzymetrics "):
            command = line.split()[1]
            lines[command] = line
        else:
            lines[command] += " " + line.strip()
    return lines


def test_readme_synopsis_lists_exactly_the_options_of_each_subcommand():
    synopsis = _synopsis()
    assert synopsis.keys() == _subparsers().keys()
    for command, sub in _subparsers().items():
        options = {o for a in sub._actions for o in a.option_strings if o.startswith("--")} - {"--help"}
        assert set(re.findall(r"--[a-z][a-z-]*", synopsis[command])) == options, command


@pytest.mark.parametrize("command", ["converge", "compact"])
def test_every_mode_has_a_golden_entry(command):
    (mode,) = [a for a in _subparsers()[command]._actions if a.dest == "mode"]
    pinned = {argv[argv.index("--mode") + 1] for argv, _, _ in GOLDEN if argv[0] == command}
    assert set(mode.choices) <= pinned
