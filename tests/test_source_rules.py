"""Rules every module under src/oadscan follows, checked on its source."""

import ast
import builtins
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


def test_classifier_calls_no_builtin_sum():
    # Training adds floats left to right, as a loop of += does.
    calls = [f"classifier.py:{node.lineno}" for node in _nodes(SRC / "classifier.py")
             if isinstance(node, ast.Call) and _names(node.func) & {"sum", "fsum", "sumprod"}]
    assert calls == [], ("from Python 3.12 sum() of floats is compensated, and fsum and sumprod "
                         "round otherwise too: the model bytes would depend on the Python version")


def test_one_urlsplit_call_site():
    # scope._split sends every URI the plain-URI regex rejects to urlsplit;
    # a second reference would be a second parse path.
    tree = ast.parse((SRC / "scope.py").read_text(encoding="utf-8"))
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    sites = [(getattr(stmt, "name", None), id(node) in called)
             for stmt in tree.body for node in ast.walk(stmt)
             if isinstance(node, (ast.Name, ast.Attribute)) and "urlsplit" in _names(node)]
    assert sites == [("_split", True)]


def test_records_write_no_init_or_eq():
    # A record is a typing.NamedTuple, which gives it its constructor and
    # its equality; CorpusAggregate alone changes after it is built.  An
    # exception class builds its message in its __init__.
    classes = [(p, node) for p in MODULES for node in _nodes(p) if isinstance(node, ast.ClassDef)]
    exceptions = {name for name in dir(builtins)
                  if isinstance(getattr(builtins, name), type)
                  and issubclass(getattr(builtins, name), BaseException)}
    grown = True
    while grown:  # a subclass of a package exception is an exception too
        found = {node.name for _, node in classes
                 if any(_names(base) & exceptions for base in node.bases)}
        grown = not found <= exceptions
        exceptions |= found
    written = [f"{p.name}:{node.name}.{item.name}" for p, node in classes
               if node.name != "CorpusAggregate" and node.name not in exceptions
               for item in node.body
               if isinstance(item, ast.FunctionDef) and item.name in ("__init__", "__eq__")]
    assert written == []


# Exports kept for the tests alone, each with the reason it stays.
TEST_FACING_EXPORTS = {
    ("extraction", "canonicalize_raw"): "the oracle of the mention span contract",
}

# Names that only the benchmark's traced replay (perfbench/tracing.py)
# still calls, each with what the commands use instead.  Once the replay
# runs the report loop, the rule below fails for each: delete the name.
REPLAY_ONLY = {
    ("classifier", "classify_hybrid"): "report runs classify_heuristic, then score_text "
                                       "only where the category reads the label",
    ("ghp", "categorize"): "report takes the category from category_of",
    ("scope", "host_of"): "report reads ParsedUri.hostname",
    ("extraction", "write_mentions_file"): "the commands' shards write format_mention "
                                           "lines to spools that cli copies into the file",
    ("extraction", "UriMention"): "extraction yields MentionRecord",
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


def test_replay_only_names_are_read_by_the_replay_alone():
    tracing = ROOT / "perfbench" / "tracing.py"
    replay_reads = {name for name, _ in _reads(ast.parse(tracing.read_text(encoding="utf-8")))}
    trees = {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in MODULES}
    exports = {(m.stem, name) for m in MODULES for name in _exports(trees[m])}
    assert set(REPLAY_ONLY) <= exports
    unread = [f"{m}.{name}" for m, name in REPLAY_ONLY if name not in replay_reads]
    assert unread == [], "the replay no longer reads these: delete them"
    names = {name for _, name in REPLAY_ONLY}
    callers = [f"{path.name}:{owner} reads {name}" for path, tree in trees.items()
               for name, owner in _reads(tree) if name in names and owner != name]
    assert callers == []


def test_cli_names_no_category_member():
    # The category rule lives in ghp.category_of; a Category member named
    # in cli.py or report.py would be a second copy of it.
    named = [f"{name}:{node.lineno}" for name in ("cli.py", "report.py")
             for node in _nodes(SRC / name)
             if isinstance(node, ast.Attribute) and _names(node.value) == {"Category"}]
    assert named == []


def test_only_extraction_builds_mention_records():
    # Extraction yields MentionRecords and the mentions file reads them
    # back; a MentionRecord built anywhere else would be a copy of one.
    built = [f"{p.name}:{node.lineno}" for p in MODULES if p.name != "extraction.py"
             for node in _nodes(p)
             if isinstance(node, ast.Call) and _names(node.func) == {"MentionRecord"}]
    assert built == []


def test_only_cmd_report_reads_chunk_bytes():
    # report cuts its mentions file once, into chunks of about CHUNK_BYTES;
    # a read anywhere else would be a second way to bound the report loop.
    reads = [(p.name, owner) for p in MODULES if p.name != "shards.py"
             for name, owner in _reads(ast.parse(p.read_text(encoding="utf-8")))
             if name == "CHUNK_BYTES"]
    assert ("report.py", "cmd_report") in reads
    assert [read for read in reads if read != ("report.py", "cmd_report")] == []


def test_one_dispatch_in_main():
    # main runs the parsed command and alone decides the exit code: a
    # command returns nothing, and every failure raises.  cli runs extract;
    # every other command is report's.
    commands = {name: [node for node in ast.parse((SRC / name).read_text(encoding="utf-8")).body
                       if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")]
                for name in ("cli.py", "report.py")}
    assert [node.name for node in commands["cli.py"]] == ["cmd_extract"]
    returning = [f"{name}:{node.name}:{ret.lineno}" for name, nodes in commands.items()
                 for node in nodes for ret in ast.walk(node)
                 if isinstance(ret, ast.Return) and ret.value is not None]
    assert returning == []
    readers = {(p.name, owner) for p in MODULES
               for name, owner in _reads(ast.parse(p.read_text(encoding="utf-8")))
               if name in ("EXIT_OK", "EXIT_USAGE", "EXIT_DATA")}
    # argparse exits from inside main's parse; _Parser.error gives that exit
    # the usage code.
    assert readers == {("cli.py", "main"), ("cli.py", "_Parser")}


def _imports_of(module):
    return [f"{p.name}:{node.lineno}" for p in MODULES for node in _nodes(p)
            if isinstance(node, ast.Import) and any(a.name == module for a in node.names)
            or isinstance(node, ast.ImportFrom) and node.module == module]


def test_no_module_imports_dataclasses():
    # Importing dataclasses loads inspect, ast and dis, and each dataclass
    # execs its generated methods: milliseconds of every command's start-up.
    assert _imports_of("dataclasses") == []


def test_no_module_imports_tempfile():
    # tempfile loads shutil, random, bz2 and lzma: milliseconds of a cold
    # start where no site hook has loaded it already.  fileio.open_spool
    # makes the extraction spools without it.
    assert _imports_of("tempfile") == []
