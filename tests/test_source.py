"""Checks on the package source itself."""

import ast
from pathlib import Path

import convlab

SOURCES = sorted(Path(convlab.__file__).parent.glob("*.py"))


def test_no_assert_in_package():
    # `python -O` strips asserts, so no correctness check may rely on one
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert SOURCES and not found, found
