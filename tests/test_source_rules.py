"""Rules every module under src/oadscan follows, checked on its source."""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "oadscan"
MODULES = sorted(SRC.glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))

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
    assert {p.name for p in PERFBENCH} >= {"run.py", "tracing.py"}


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


# Exports kept for the tests alone, each with the reason it stays.
TEST_FACING_EXPORTS = {
    ("extraction", "canonicalize_raw"): "the oracle of the mention span contract",
    ("classifier", "write_labeled_file"): "regenerates the labeled fixture files",
}


def _exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def _reads(tree):
    """(name, owner) for every name the module loads, reads as an attribute
    or imports.  The owner is the top-level definition the read sits in, or
    for an import the name it binds."""
    for stmt in tree.body:
        owner = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield node.id, owner
            elif isinstance(node, ast.Attribute):
                yield node.attr, owner
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    yield alias.name, alias.asname or alias.name


def test_every_export_has_a_caller():
    # An exported name that nothing in the package or the benchmark reads
    # is dead API.  Reads inside the name's own definition do not count,
    # nor does the package __init__'s import of a name it re-exports.
    trees = {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for p in MODULES + PERFBENCH}
    readers = defaultdict(set)  # name -> {(file, owner)} of each read
    for path, tree in trees.items():
        for name, owner in _reads(tree):
            readers[name].add((path, owner))
    exports = {(m.stem, name) for m in MODULES for name in _exports(trees[m])}
    assert set(TEST_FACING_EXPORTS) <= exports
    dead = [f"{m.stem}.{name}" for m in MODULES for name in _exports(trees[m])
            if (m.stem, name) not in TEST_FACING_EXPORTS
            and not readers[name] - {(m, name)}]
    assert dead == []
