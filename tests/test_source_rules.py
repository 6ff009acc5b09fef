"""Rules every module under src/oadscan follows, checked on its source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "oadscan"
MODULES = sorted(SRC.glob("*.py"))

URI_PARSERS = {"urlsplit", "urlparse", "split_port"}


def _nodes(path):
    return ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))


def _names(node):
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.alias):
        return {node.name, node.asname}
    return set()


def test_modules_found():
    assert {p.name for p in MODULES} >= {"cli.py", "scope.py", "extraction.py"}


def test_no_assert_statements():
    # python -O drops assert statements; invariants must raise instead.
    found = [f"{p.name}:{node.lineno}" for p in MODULES for node in _nodes(p)
             if isinstance(node, ast.Assert)]
    assert found == []


def test_only_scope_parses_uris():
    # Every other module reads the ParsedUri that scope.parse_uri returns.
    found = [f"{p.name}:{getattr(node, 'lineno', '?')}" for p in MODULES if p.name != "scope.py"
             for node in _nodes(p) if _names(node) & URI_PARSERS]
    assert found == []
