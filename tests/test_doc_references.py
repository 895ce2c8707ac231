"""No doc names code that is gone: every private name a module's docstrings
and comments cite as ``_name`` is still an attribute of that module, every
``--flag`` that README's CLI section names is still a CLI option, every
command of its CLI example parses, and its Library example runs."""
import argparse
import importlib
import os
import re
import shlex
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

from sc_rateless.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
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


def readme_section(title):
    """README's ``## title`` section, up to the next second-level heading."""
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def code_block(section, language):
    """The body of the section's first fenced block in ``language``."""
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def cli_examples():
    """Each ``sc-rateless`` command of the CLI section's sh block, as argv,
    with its line continuations joined."""
    block = code_block(readme_section("CLI"), "sh").replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("sc-rateless ")]


def parser_flags():
    """Every option string of the CLI and of each of its subcommands."""
    parser = build_parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    return {flag for command in [parser, *subparsers.choices.values()]
            for action in command._actions for flag in action.option_strings}


def test_readme_cli_flags_exist():
    named = set(FLAG.findall(readme_section("CLI")))
    assert {"--L-grid", "--allow-dg1", "--fp-tol"} <= named
    assert sorted(named - parser_flags()) == []


def test_readme_cli_examples_parse():
    examples = cli_examples()
    assert [argv[0] for argv in examples] == [
        "threshold", "bounds", "sweep", "sweep", "simulate"]
    parser = build_parser()
    for argv in examples:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: sc-rateless {shlex.join(argv)}")


def test_readme_library_example_runs():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code_block(readme_section("Library"), "python")],
                          cwd=ROOT, env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert (done.returncode, done.stderr) == (0, "")
