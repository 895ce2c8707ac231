"""Every private name a module's docstrings and comments cite as ``_name``
is still an attribute of that module, so no doc names code that is gone."""
import importlib
import re
import tokenize
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "sc_rateless").glob("*.py"))
CITED = re.compile(r"``(_\w+)")


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
