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


def test_no_module_caches_in_galois_layers():
    # caches keyed by groups, fields or types rehash whole Cayley tables on
    # every hit and never let go; field handles own their tables instead
    names = {"cache", "lru_cache"}
    found = []
    for name in ("groups.py", "cmtypes.py", "serre.py", "cocycle.py"):
        path = SRC / name
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for deco in node.decorator_list:
                    target = deco.func if isinstance(deco, ast.Call) else deco
                    label = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
                    if label in names:
                        found.append(f"{name}:{node.lineno} {node.name}")
    assert found == []
