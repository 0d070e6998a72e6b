"""Checks on the package source itself."""

import ast
import re
from pathlib import Path

import convlab
from convlab.constructions import RECIPES

SOURCES = sorted(Path(convlab.__file__).parent.glob("*.py"))
README = Path(__file__).resolve().parent.parent / "README.md"


def test_no_assert_in_package():
    # `python -O` strips asserts, so no correctness check may rely on one
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert SOURCES and not found, found


def test_no_recursion_outside_search():
    # recursion depth grows with the input and crashes on large graphs; the
    # branch and bound, the deepest search, runs over an explicit stack
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id == fn.name for call in ast.walk(fn)):
                found.append(f"{path.name}:{fn.name}")
    assert SOURCES and found == [], found


def test_readme_tour_runs():
    readme = README.read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_oracle_named_only_in_solver():
    # the brute-force oracle is a test oracle: no other package module may
    # call, import or re-export it
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            name = (getattr(node, "id", None) or getattr(node, "attr", None)
                    or getattr(node, "name", None) or getattr(node, "value", None))
            if name == "ck_oracle":
                found.append(f"{path.name}:{node.lineno}")
    assert SOURCES and all(f.startswith("solver.py:") for f in found) and found, found


def test_readme_lists_every_recipe_with_its_parameters():
    # the recipe table feeds build_recipe and the CLI's choices; the README's
    # list must name the same recipes and parameters, in the same order
    def usage(name, keys, defaults):
        return " ".join([name] + [key if key not in defaults else f"[{key}]" if defaults[key] is None
                                  else f"[{key}={defaults[key]}]" for key in keys])

    listed = re.findall(r"^- `construct (.+?)`", README.read_text(), re.MULTILINE)
    assert listed == [usage(name, keys, defaults) for name, (_, keys, defaults) in RECIPES.items()]
