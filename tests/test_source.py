"""Checks on the package source itself."""

import ast
from pathlib import Path

import fscsynth


def test_no_assert_statements():
    # ``python -O`` strips asserts, so no check may rely on one
    sources = sorted(Path(fscsynth.__file__).parent.glob("*.py"))
    assert len(sources) >= 8
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
