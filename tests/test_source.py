"""Source-level guards on the library package."""

import ast
from pathlib import Path

import gnprob

SRC = Path(gnprob.__file__).parent


def test_no_assert_statements():
    # ``python -O`` strips assert statements, so invariants in the library
    # are explicit raises.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found
