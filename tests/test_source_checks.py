"""Checks on the package source itself."""

import ast
from pathlib import Path

import wulffkit


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so a production check
    # written as one silently disappears; raise AssertionError instead
    found = []
    for path in sorted(Path(wulffkit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
