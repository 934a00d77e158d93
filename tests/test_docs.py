"""README examples and flag listings stay true to the code."""

import re
from pathlib import Path

from markovgeom import cli
from markovgeom.cli import build_parser

README = Path(__file__).parents[1] / "README.md"

# flags every command takes; the README names them once, before its table
COMMON_FLAGS = {"--input", "--skip-header", "--out-dir", "--beta"}


def _section(title: str) -> str:
    text = README.read_text()
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:end if end != -1 else None]


def _parser_flags() -> dict[str, set[str]]:
    """The long option strings of each subcommand, --help aside."""
    subparsers = build_parser()._subparsers._group_actions[0].choices
    return {
        name: {flag for action in sub._actions for flag in action.option_strings
               if flag not in ("-h", "--help")}
        for name, sub in subparsers.items()
    }


def test_library_at_a_glance_runs():
    block = re.search(r"```python\n(.*?)```", _section("Library at a glance"), re.S).group(1)
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["coords"].shape == (32, 2)


def test_cli_section_lists_each_commands_flags():
    section = _section("CLI")
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", section, re.M)
    documented = {command: set(re.findall(r"`(--[\w-]+)`", flags)) for command, flags in rows}
    parsed = _parser_flags()
    assert documented == {name: flags - COMMON_FLAGS for name, flags in parsed.items()}
    for name, flags in parsed.items():
        assert COMMON_FLAGS <= flags, name
    for flag in COMMON_FLAGS:
        assert f"`{flag}`" in section


def test_cli_section_gives_the_fork_thresholds():
    found = re.findall(r"2\^(\d+)\s+(CSV|JSON)\s+cells", _section("CLI"))
    assert {kind: 1 << int(k) for k, kind in found} == {
        "CSV": cli._PARALLEL_MIN_CELLS, "JSON": cli._PARALLEL_MIN_JSON_CELLS}
    assert len(found) == 2


def test_cli_section_gives_the_kernel_range():
    found = re.findall(r"([\de.+-]+) ≤ \|x\| < ([\de.+-]+)", _section("CLI"))
    assert [(float(low), float(high)) for low, high in found] == [(cli._G17_MIN, cli._G17_MAX)]
