"""Static guards over the package source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cmcalc"


def test_no_assert_statements():
    # `python -O` strips asserts, so every gate must be an explicit raise
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert list(SRC.rglob("*.py")), SRC
    assert found == []
