"""Every ```python block of README.md runs as written, and its table of
shared options is the parser's."""

import re
from pathlib import Path

import pytest

from eprsim.cli import _SHARED_OPTIONS, _build_parser

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                    re.MULTILINE | re.DOTALL)
# rows of the "| subcommand | shared options |" table
OPTION_ROWS = re.findall(
    r"^\| (`[a-z]+`(?:, `[a-z]+`)*) \| (.*) \|$",
    README.read_text().split("| subcommand | shared options |")[1]
    .split("\n\n")[0], re.MULTILINE)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS,
                         ids=[f"block{k}" for k in range(len(BLOCKS))])
def test_readme_block_runs(code, tmp_path, monkeypatch):
    # in a fresh namespace and an empty working directory, so a block can
    # neither lean on another nor leave files behind
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {"__name__": "__readme__"})


def _subcommands():
    """{name: subparser} of ``_build_parser()``."""
    action, = (a for a in _build_parser()._actions
               if isinstance(a.choices, dict))
    return action.choices


def test_option_table_covers_every_subcommand():
    named = [n for names, _ in OPTION_ROWS
             for n in re.findall(r"`([a-z]+)`", names)]
    assert sorted(named) == sorted(_subcommands())


@pytest.mark.parametrize("names, options", OPTION_ROWS,
                         ids=[re.sub(r"\W+", "-", names).strip("-")
                              for names, _ in OPTION_ROWS])
def test_option_table_row_matches_parser(names, options):
    listed = set(re.findall(r"--[a-z-]+", options))
    for name in re.findall(r"`([a-z]+)`", names):
        parser = _subcommands()[name]
        shared = {s for a in parser._actions for s in a.option_strings
                  if s[2:] in _SHARED_OPTIONS}
        assert listed == shared, name
