"""No doc names code that is gone: every private name a module's docstrings
and comments cite as ``_name`` is still an attribute of that module, and
every ``--flag`` that README's CLI section names is still a CLI option."""
import argparse
import importlib
import re
import tokenize
from pathlib import Path

import pytest

from sc_rateless.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "sc_rateless").glob("*.py"))
CITED = re.compile(r"``(_\w+)")
FLAG = re.compile(r"(?<![\w-])--[A-Za-z][\w-]*")


def cited_names(path):
    """(line, name) for each ``_name`` in the file's comments and strings,
    docstrings among them."""
    with open(path, "rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type in (tokenize.COMMENT, tokenize.STRING):
                for match in CITED.finditer(token.string):
                    yield token.start[0], match.group(1)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_cited_private_names_exist(path):
    module = importlib.import_module(f"sc_rateless.{path.stem}")
    missing = [(line, name) for line, name in cited_names(path) if not hasattr(module, name)]
    assert missing == []


def cli_section(text):
    """README's ``## CLI`` section, up to the next second-level heading."""
    return text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]


def parser_flags():
    """Every option string of the CLI and of each of its subcommands."""
    parser = build_parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    return {flag for command in [parser, *subparsers.choices.values()]
            for action in command._actions for flag in action.option_strings}


def test_readme_cli_flags_exist():
    named = set(FLAG.findall(cli_section((ROOT / "README.md").read_text(encoding="utf-8"))))
    assert {"--L-grid", "--allow-dg1", "--fp-tol"} <= named
    assert sorted(named - parser_flags()) == []
