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
REPORT_MODULES = {"oadscan.analytics", "oadscan.classifier", "oadscan.ghp"}

# Runs main on its arguments and prints, as its last line, the oadscan
# modules the interpreter then holds.
MAIN_THEN_MODULES = """\
import sys
from oadscan.cli import main
try:
    main(sys.argv[1:])
except SystemExit:
    pass
print(" ".join(sorted(m for m in sys.modules if m == "oadscan" or m.startswith("oadscan."))))
"""


def fresh(code: str, *args) -> list[str]:
    """The stdout lines of ``code`` run in a new interpreter on ``args``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("OADSCAN_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    result = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                            capture_output=True, text=True, timeout=60, check=True)
    return result.stdout.splitlines()


def modules_after(*argv) -> set[str]:
    return set(fresh(MAIN_THEN_MODULES, *argv)[-1].split())


# --- which modules a command loads ------------------------------------------


def test_extract_loads_only_what_it_runs(tmp_path):
    out = tmp_path / "m.tsv"
    loaded = modules_after("extract", "--manifest", test_cli.CORPUS / "manifest.tsv", "--out", out)
    assert loaded == {"oadscan", "oadscan.cli", "oadscan.corpus", "oadscan.extraction",
                      "oadscan.fileio", "oadscan.scope", "oadscan.shards"}
    assert read_mentions_file(out)


@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["extract", "--help"]])
def test_version_and_help_load_no_report_module(argv):
    loaded = modules_after(*argv)
    assert "oadscan.cli" in loaded
    assert not loaded & REPORT_MODULES


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

