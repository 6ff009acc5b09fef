"""Start-up: each command loads only the modules it runs.

The package resolves its submodules and re-exported names on first use,
and the parser declares only the options of the command on the command
line.  These tests check which modules a fresh interpreter holds after a
command, and that the per-command parser reads and prints what the parser
of every command does.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oadscan
from oadscan import cli
from oadscan.cli import EXIT_OK, build_parser, main
from oadscan.extraction import read_mentions_file
import test_cli

SRC = Path(__file__).resolve().parent.parent / "src"
OPTIONS = test_cli.TestOptionSources.OPTIONS  # each command's options
COMMANDS = sorted(OPTIONS)
EXTRACT_MODULES = {"oadscan", "oadscan.cli", "oadscan.corpus", "oadscan.extraction",
                   "oadscan.fileio", "oadscan.scope", "oadscan.shards"}
REPORT_MODULES = {"oadscan.analytics", "oadscan.classifier", "oadscan.ghp", "oadscan.report"}
# dataclasses imports inspect, and inspect imports ast and dis: milliseconds
# of a cold start, before the first dataclass is defined.
SLOW_IMPORTS = {"dataclasses", "inspect"}

# Runs main on its arguments and prints, as its last line, the modules the
# interpreter then holds.
MAIN_THEN_MODULES = """\
import sys
from oadscan.cli import main
try:
    main(sys.argv[1:])
except SystemExit:
    pass
print(" ".join(sorted(sys.modules)))
"""


def interpreter(*args, check: bool = True) -> subprocess.CompletedProcess:
    """A new interpreter run on ``args``, with the package's source first on its path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("OADSCAN_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return subprocess.run([sys.executable, *map(str, args)], env=env, capture_output=True,
                          text=True, timeout=60, check=check)


def fresh(code: str, *args) -> list[str]:
    """The stdout lines of ``code`` run in a new interpreter on ``args``."""
    return interpreter("-c", code, *args).stdout.splitlines()


def modules_after(*argv) -> set[str]:
    return set(fresh(MAIN_THEN_MODULES, *argv)[-1].split())


def package_modules(loaded: set[str]) -> set[str]:
    return {m for m in loaded if m == "oadscan" or m.startswith("oadscan.")}


# --- which modules a command loads ------------------------------------------


def test_extract_loads_only_what_it_runs(tmp_path):
    out = tmp_path / "m.tsv"
    loaded = modules_after("extract", "--manifest", test_cli.CORPUS / "manifest.tsv", "--out", out)
    assert package_modules(loaded) == EXTRACT_MODULES
    assert read_mentions_file(out)


@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["extract", "--help"]])
def test_version_and_help_load_no_report_module(argv):
    loaded = modules_after(*argv)
    assert "oadscan.cli" in loaded
    assert not loaded & REPORT_MODULES


def test_no_command_loads_dataclasses_or_inspect(tmp_path):
    corpus = ["--manifest", test_cli.CORPUS / "manifest.tsv"]
    mentions = tmp_path / "m.tsv"
    # command: (its argv, the package modules it loads, a file it writes)
    runs = {  # extract first: report reads its mentions file
        "extract": ([*corpus, "--out", mentions], EXTRACT_MODULES, mentions),
        "report": ([*corpus, "--model", test_cli.MODEL, "--mentions", mentions, "--out-dir",
                    tmp_path / "r"], EXTRACT_MODULES | REPORT_MODULES, tmp_path / "r"),
        "pipeline": ([*corpus, "--model", test_cli.MODEL, "--out-dir", tmp_path / "p"],
                     EXTRACT_MODULES | REPORT_MODULES, tmp_path / "p"),
        "train": (["--labeled", test_cli.DATA / "labeled_seed.tsv", "--out",
                   tmp_path / "model.json"],
                  EXTRACT_MODULES | {"oadscan.classifier", "oadscan.report"},
                  tmp_path / "model.json"),
    }
    for command, (argv, modules, output) in runs.items():
        loaded = modules_after(command, *argv)
        assert package_modules(loaded) == modules, command
        assert not loaded & SLOW_IMPORTS, command
        assert output.exists(), command
    assert not modules_after("--version") & SLOW_IMPORTS


def test_run_as_a_script_the_report_module_shares_the_cli_module(tmp_path):
    # python -m oadscan.cli runs cli.py as __main__.  The report module's
    # import of oadscan.cli must find that module, not load a second copy
    # whose UsageError main would not catch.
    missing = tmp_path / "missing.tsv"
    result = interpreter("-m", "oadscan.cli", "report", "--mentions", missing, "--model",
                         test_cli.MODEL, "--manifest", test_cli.CORPUS / "manifest.tsv",
                         "--out-dir", tmp_path / "r", check=False)
    assert (result.returncode, result.stderr) == (1, f"ERROR mentions file not found: {missing}\n")


def test_package_names_resolve_on_first_use():
    code = ("import sys, oadscan\n"
            "print(sorted(m for m in sys.modules if m.startswith('oadscan')))\n"
            "print(oadscan.classifier.score_text.__module__)\n"
            "from oadscan import TrainedModel\n"
            "print(TrainedModel.__module__)\n"
            "print(all(hasattr(oadscan, name) for name in oadscan.__all__))\n"
            "from oadscan import *\n"
            "print(Category.__module__)\n")
    assert fresh(code) == ["['oadscan']", "oadscan.classifier", "oadscan.classifier", "True",
                           "oadscan.ghp"]


def test_package_names_are_the_modules_own_and_unknown_ones_raise():
    with pytest.raises(AttributeError, match="no_such_name"):
        oadscan.no_such_name  # noqa: B018 - the lookup is the test
    assert not hasattr(oadscan, "no_such_name")
    assert oadscan.Category is oadscan.ghp.Category
    assert oadscan.shards is sys.modules["oadscan.shards"]


# --- the per-command parser -------------------------------------------------


def help_text(parser, argv, capsys) -> str:
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    assert exc.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("command", COMMANDS)
def test_command_help_is_the_full_parsers(command, capsys):
    argv = [command, "--help"]
    assert help_text(build_parser(argv), argv, capsys) == help_text(build_parser(), argv, capsys)


@pytest.mark.parametrize("argv", [["--help"], *([c] for c in COMMANDS)])
def test_top_level_help_is_unchanged(argv):
    assert build_parser(argv).format_help() == build_parser().format_help()


@pytest.mark.parametrize("command", COMMANDS)
def test_other_commands_options_are_ignored(command, tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, f"cmd_{command}", lambda settings: seen.append(settings) or EXIT_OK)
    assert main([command]) == EXIT_OK
    others = set().union(*OPTIONS.values()) - OPTIONS[command]
    # Read for this command, each value would fail its option's check or
    # change what the command sees.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({dest: "bogus" for dest in others}))
    for dest in others:
        monkeypatch.setenv("OADSCAN_" + dest.upper(), "bogus")
    assert main([command, "--config", str(config)]) == EXIT_OK
    assert {**seen[1], "config": None} == seen[0]

