"""Command-line pipeline: extract -> classify -> scope -> categorize -> report.

Subcommands: extract, train, evaluate, report, pipeline (fused
extract+report).  Options resolve as flag > OADSCAN_<NAME> environment
variable > --config JSON file > built-in default, and a value from any
source is checked by the command's own parser.  Exit codes: 0 success
(possibly with per-document skips), 1 usage/config error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import fields
from pathlib import Path
from typing import NamedTuple, Sequence

try:
    import resource
except ImportError:  # Windows
    resource = None

from . import __version__
from .analytics import AggregateConfig, CorpusAggregate, paper_figures, write_reports
from .classifier import (
    DEFAULT_DENYLIST,
    LabeledFileError,
    TrainedModel,
    TrainingConfig,
    classify_hybrid,
    evaluate,
    load_denylist,
    read_labeled_file,
    train,
)
from .corpus import (
    DocumentReadError,
    ManifestEntry,
    MonthWindow,
    filter_window,
    load_manifest,
    read_document,
    select_latest_versions,
)
from .extraction import (
    MentionRecord,
    MentionsFileError,
    extract_uri_mentions,
    read_mentions_file,
    write_mentions_file,
)
from .fileio import atomic_write_text
from .ghp import Category, CategoryPolicy, DEFAULT_PATTERNS, GhpPatternSet, categorize
from .scope import DEFAULT_POLICY, ScopePolicy, ScopeReason, is_in_scope, parse_uri

log = logging.getLogger("oadscan")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

_ENV_PREFIX = "OADSCAN_"
_TRUTHY = ("1", "true", "yes")


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the pipeline reserves 2 for
    # data errors, so remap.
    def error(self, message: str):  # noqa: D102 - argparse override
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class UsageError(Exception):
    """Bad flags, unreadable config, or missing input paths."""


def _require(settings: dict, *names: str) -> None:
    for name in names:
        if settings[name] is None:
            raise UsageError(f"missing required option --{name.replace('_', '-')}")


def _require_file(path: str | Path, what: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise UsageError(f"{what} not found: {p}")
    return p


def _require_output_path(path: str | Path, what: str) -> Path:
    """Check that an output file can be created, before any work is done."""
    p = Path(path)
    if not p.parent.is_dir():
        raise UsageError(f"{what} {p}: directory {p.parent} does not exist")
    if p.is_dir():
        raise UsageError(f"{what} {p} is a directory")
    return p


class _Corpus(NamedTuple):
    """The manifest's latest document versions inside the window."""

    window: MonthWindow
    manifest_entries: int
    entries: tuple[ManifestEntry, ...]
    window_skipped: int


def _load_corpus(settings: dict) -> _Corpus:
    """Read the manifest once per command; extract and report share it."""
    try:
        window = MonthWindow(settings["window_start"], settings["window_end"])
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    manifest = load_manifest(_require_file(settings["manifest"], "manifest"))
    entries, window_skipped = filter_window(select_latest_versions(manifest), window)
    return _Corpus(window, len(manifest), entries, window_skipped)


class _ReportSetup(NamedTuple):
    """Everything a report needs besides the corpus and the mentions."""

    model: TrainedModel
    policy: ScopePolicy
    denylist: frozenset[str]
    patterns: GhpPatternSet
    category_policy: CategoryPolicy


def _load_report_setup(settings: dict) -> _ReportSetup:
    """Check and load the report's inputs, so that an error in any of them
    stops the run before it reads or writes anything else."""
    model = TrainedModel.load(_require_file(settings["model"], "model file"))
    policy = DEFAULT_POLICY
    if settings["policy"] is not None:
        policy = ScopePolicy.from_file(_require_file(settings["policy"], "policy file"))
    denylist = DEFAULT_DENYLIST
    if settings["denylist"] is not None:
        denylist = load_denylist(_require_file(settings["denylist"], "denylist file"))
    patterns = DEFAULT_PATTERNS
    if settings["patterns"] is not None:
        patterns = GhpPatternSet.from_file(_require_file(settings["patterns"], "pattern file"))
    return _ReportSetup(model, policy, denylist, patterns,
                        CategoryPolicy(settings["category_policy"]))


def _seconds(ns: int) -> float:
    return round(ns / 1e9, 6)


def _peak_rss_mb() -> float | None:
    """This process's peak resident set size so far, in MB of 2**20 bytes;
    None where the platform does not report it."""
    if resource is None:
        return None
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes, macOS bytes.
    return round(maxrss / (2**20 if sys.platform == "darwin" else 2**10), 3)


def _write_metadata(path: Path, command: str, config_echo: dict, counts: dict,
                    timings: dict, **more) -> None:
    payload = {
        "tool": "oadscan",
        "version": __version__,
        "command": command,
        "config": config_echo,
        "counts": counts,
        "timings": {**timings, "peak_rss_mb": _peak_rss_mb()},
        **more,
    }
    atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


# --- extract ---------------------------------------------------------------


def _run_extraction(
    settings: dict, corpus: _Corpus, out_path: Path
) -> tuple[dict, list[MentionRecord], dict]:
    """Shared by extract and pipeline: documents in, mentions file out.

    Returns the counts, the records written (in file order) and the
    stage timings.
    """
    docs_root = Path(settings["docs_root"] or Path(settings["manifest"]).parent)
    if corpus.window_skipped:
        log.warning("%d document(s) outside corpus window %s..%s skipped",
                    corpus.window_skipped, corpus.window.start, corpus.window.end)

    dedup = settings["dedup_per_doc"]
    read_failures = 0
    input_bytes = read_ns = extract_ns = 0
    records: list[MentionRecord] = []
    for entry in corpus.entries:
        t0 = time.perf_counter_ns()
        try:
            doc = read_document(entry, docs_root)
        except DocumentReadError as exc:
            log.warning("skipping document: %s", exc)
            read_failures += 1
            continue
        t1 = time.perf_counter_ns()
        records.extend(MentionRecord(m.doc_id, doc.month, m.uri, m.span, m.context)
                       for m in extract_uri_mentions(doc, dedup=dedup))
        read_ns += t1 - t0
        extract_ns += time.perf_counter_ns() - t1
        input_bytes += len(doc.text.encode("utf-8"))

    t0 = time.perf_counter_ns()
    mention_count = write_mentions_file(out_path, records)
    write_ns = time.perf_counter_ns() - t0
    log.info("extract: %d manifest entries, %d documents, %d mentions, %d read failures",
             corpus.manifest_entries, len(corpus.entries), mention_count, read_failures)
    return {
        "manifest_entries": corpus.manifest_entries,
        "documents": len(corpus.entries),
        "window_skipped": corpus.window_skipped,
        "read_failures": read_failures,
        "mentions": mention_count,
    }, records, {
        "read_documents_s": _seconds(read_ns),
        "extract_s": _seconds(extract_ns),
        "write_mentions_s": _seconds(write_ns),
        "input_mb": round(input_bytes / 1e6, 6),
        "extract_mb_per_s": round(input_bytes / 1e6 / (extract_ns / 1e9), 3) if extract_ns else None,
    }


def cmd_extract(settings: dict) -> int:
    _require(settings, "manifest", "out")
    out_path = _require_output_path(settings["out"], "mentions file")
    corpus = _load_corpus(settings)
    counts, _, timings = _run_extraction(settings, corpus, out_path)
    echo = {
        "manifest": str(settings["manifest"]),
        "docs_root": str(settings["docs_root"] or Path(settings["manifest"]).parent),
        "out": str(out_path),
        "window": [corpus.window.start, corpus.window.end],
        "dedup_per_doc": settings["dedup_per_doc"],
    }
    _write_metadata(out_path.with_name(out_path.name + ".meta.json"), "extract", echo, counts,
                    timings=timings)
    return EXIT_OK


# --- train / evaluate -------------------------------------------------------


def cmd_train(settings: dict) -> int:
    _require(settings, "labeled", "out")
    labeled_path = _require_file(settings["labeled"], "labeled file")
    examples = read_labeled_file(labeled_path)
    # train's options are named after the TrainingConfig fields they set.
    config = TrainingConfig(**{f.name: settings[f.name] for f in fields(TrainingConfig)})
    model = train(examples, config)
    model.save(settings["out"])
    metrics = evaluate(model, examples)
    log.info("train: %d examples, vocabulary %d, model written to %s",
             len(examples), len(model.vocabulary), settings["out"])
    print(json.dumps({"training_set": metrics.to_dict()}, sort_keys=True, indent=2))
    return EXIT_OK


def cmd_evaluate(settings: dict) -> int:
    _require(settings, "model", "labeled")
    model = TrainedModel.load(_require_file(settings["model"], "model file"))
    examples = read_labeled_file(_require_file(settings["labeled"], "labeled file"))
    if not examples:
        raise LabeledFileError(f"no examples in {settings['labeled']}")
    metrics = evaluate(model, examples)
    print(json.dumps(metrics.to_dict(), sort_keys=True, indent=2))
    return EXIT_OK


# --- report ----------------------------------------------------------------


def _run_report(
    settings: dict,
    corpus: _Corpus,
    setup: _ReportSetup,
    records: list[MentionRecord],
    out_dir: Path,
) -> tuple[dict, dict, dict]:
    """Classify, scope and categorize mentions into the CSV reports.

    Returns the counts, the paper's figures and the stage timings.
    """
    t0 = time.perf_counter_ns()
    window = corpus.window
    aggregate = CorpusAggregate(AggregateConfig(setup.category_policy, settings["bin_width"]))
    for entry in corpus.entries:
        aggregate.add_publications(entry.month)

    provenance_counts = {p: 0 for p in ("heuristic_publisher", "heuristic_pdf", "learned")}
    reason_counts = {r.value: 0 for r in ScopeReason}
    category_counts = {c.value: 0 for c in Category}
    for r in records:
        if not window.contains(r.month):
            raise MentionsFileError(
                f"mention month {r.month} outside corpus window "
                f"{window.start}..{window.end} (doc {r.doc_id})"
            )
        parsed = parse_uri(r.uri)
        classification = classify_hybrid(r, setup.model, setup.denylist, parsed)
        provenance_counts[classification.provenance.value] += 1
        verdict = is_in_scope(parsed, setup.policy)
        reason_counts[verdict.reason.value] += 1
        if verdict.in_scope:
            category = categorize(parsed, classification.label, setup.patterns,
                                  setup.category_policy)
            category_counts[category.value] += 1
            aggregate.add_mention(r.month, category, parsed.hostname)

    t1 = time.perf_counter_ns()
    report_paths = write_reports(out_dir, aggregate, settings["top_n"])
    t2 = time.perf_counter_ns()
    totals = aggregate.totals()
    log.info("report: %d mentions, %d in scope, %d months, reports in %s",
             len(records), totals.uri_total, len(aggregate.monthly), out_dir)
    return {
        "documents": len(corpus.entries),
        "window_skipped": corpus.window_skipped,
        "mentions": len(records),
        "in_scope": totals.uri_total,
        "provenance": provenance_counts,
        "scope_reasons": reason_counts,
        "categories": category_counts,
        "months": len(aggregate.monthly),
        "reports": sorted(Path(p).name for p in report_paths.values()),
    }, paper_figures(aggregate), {
        "classify_s": _seconds(t1 - t0),
        "write_reports_s": _seconds(t2 - t1),
    }


def _report_echo(settings: dict, window: MonthWindow, mentions, out_dir: Path) -> dict:
    return {
        "manifest": str(settings["manifest"]),
        "mentions": str(mentions),
        "model": str(settings["model"]),
        "out_dir": str(out_dir),
        "policy": settings["policy"] and str(settings["policy"]),
        "denylist": settings["denylist"] and str(settings["denylist"]),
        "patterns": settings["patterns"] and str(settings["patterns"]),
        "category_policy": settings["category_policy"],
        "bin_width": settings["bin_width"],
        "top_n": settings["top_n"],
        "window": [window.start, window.end],
    }


def cmd_report(settings: dict) -> int:
    _require(settings, "mentions", "model", "manifest", "out_dir")
    mentions_path = _require_file(settings["mentions"], "mentions file")
    out_dir = Path(settings["out_dir"])
    setup = _load_report_setup(settings)
    corpus = _load_corpus(settings)
    t0 = time.perf_counter_ns()
    records = read_mentions_file(mentions_path)
    read_ns = time.perf_counter_ns() - t0
    counts, figures, timings = _run_report(settings, corpus, setup, records, out_dir)
    echo = _report_echo(settings, corpus.window, mentions_path, out_dir)
    _write_metadata(out_dir / "run_metadata.json", "report", echo, counts, figures=figures,
                    timings={"read_mentions_s": _seconds(read_ns), **timings})
    return EXIT_OK


def cmd_pipeline(settings: dict) -> int:
    _require(settings, "manifest", "model", "out_dir")
    setup = _load_report_setup(settings)
    corpus = _load_corpus(settings)
    out_dir = Path(settings["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    mentions_path = _require_output_path(settings["mentions"] or out_dir / "mentions.tsv",
                                         "mentions file")
    extract_counts, records, extract_timings = _run_extraction(settings, corpus, mentions_path)
    report_counts, figures, report_timings = _run_report(settings, corpus, setup, records, out_dir)
    echo = _report_echo(settings, corpus.window, mentions_path, out_dir)
    echo["docs_root"] = str(settings["docs_root"] or Path(settings["manifest"]).parent)
    echo["dedup_per_doc"] = settings["dedup_per_doc"]
    counts = {"extract": extract_counts, "report": report_counts}
    _write_metadata(out_dir / "run_metadata.json", "pipeline", echo, counts, figures=figures,
                    timings={**extract_timings, **report_timings})
    return EXIT_OK


# --- parser ----------------------------------------------------------------


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="oadscan",
        description="Mine scholarly article text for URIs pointing at open-access data and software.",
        epilog=f"Every option can also come from a --config JSON file or an "
        f"{_ENV_PREFIX}<OPTION> environment variable; flags win.",
    )
    parser.add_argument("--version", action="version", version=f"oadscan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="JSON config file with option defaults")
        p.set_defaults(func=func)
        return p

    def add_corpus_options(p):
        p.add_argument("--manifest", help="corpus manifest file")
        p.add_argument("--window-start", metavar="YYYY-MM", default=MonthWindow.start,
                       help="first accepted publication month (default %(default)s)")
        p.add_argument("--window-end", metavar="YYYY-MM", default=MonthWindow.end,
                       help="last accepted publication month (default %(default)s)")

    def add_extraction_options(p):
        add_corpus_options(p)
        p.add_argument("--docs-root", help="directory document paths are relative to")
        p.add_argument("--dedup-per-doc", action=argparse.BooleanOptionalAction, default=False,
                       help="count each URI at most once per document")

    def add_report_options(p):
        p.add_argument("--model", help="model file")
        p.add_argument("--out-dir", help="directory for CSV reports")
        p.add_argument("--policy", help="scope policy JSON file")
        p.add_argument("--denylist", help="publisher denylist JSON file")
        p.add_argument("--patterns", help="GHP host pattern JSON file")
        p.add_argument("--category-policy", choices=[c.value for c in CategoryPolicy],
                       default=CategoryPolicy.GHP_FORCES_OADS.value)
        p.add_argument("--bin-width", type=positive_int,
                       default=AggregateConfig.histogram_bin_width,
                       help="hostname-frequency histogram bin width (default %(default)s)")
        p.add_argument("--top-n", type=positive_int, default=15,
                       help="rows in the top-hostnames table (default %(default)s)")

    p = add_command("extract", cmd_extract, "extract URI mentions from a corpus")
    add_extraction_options(p)
    p.add_argument("--out", help="mentions file to write")

    p = add_command("train", cmd_train, "train the learned classifier")
    p.add_argument("--labeled", help="labeled-example file (label<TAB>uri<TAB>context)")
    p.add_argument("--out", help="model file to write")
    p.add_argument("--learning-rate", type=float, default=TrainingConfig.learning_rate)
    p.add_argument("--iterations", type=int, default=TrainingConfig.iterations)
    p.add_argument("--l2", type=float, default=TrainingConfig.l2, help="L2 penalty strength")
    p.add_argument("--threshold", type=float, default=TrainingConfig.threshold,
                   help="OADS decision threshold")
    p.add_argument("--seed", type=int, default=TrainingConfig.seed,
                   help="recorded in the model file")

    p = add_command("evaluate", cmd_evaluate, "evaluate a model on labeled examples")
    p.add_argument("--model", help="model file")
    p.add_argument("--labeled", help="labeled-example file")

    p = add_command("report", cmd_report, "classify a mentions file and write CSV reports")
    add_corpus_options(p)
    p.add_argument("--mentions", help="mentions file from the extract stage")
    add_report_options(p)

    p = add_command("pipeline", cmd_pipeline, "fused extract + report run")
    add_extraction_options(p)
    p.add_argument("--mentions", help="where to write the intermediate mentions file")
    add_report_options(p)

    return parser


def _parse_args(parser: argparse.ArgumentParser, argv: Sequence[str] | None) -> argparse.Namespace:
    """Parse the command line with config-file and environment values in front.

    The first parse names the command and so its options.  Each option's
    --config value, then its OADSCAN_<OPTION> value, is put ahead of the
    command line's own flags as --option=value (a boolean as --option or
    --no-option), and the command is parsed again.  argparse keeps the last
    value it reads, so flag > environment > config > default, and every
    value passes the option's own type and choice checks.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(argv)
    config = {}
    if args.config is not None:
        try:
            config = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(config, dict):
            raise UsageError(f"config file {args.config} must hold a JSON object")
    dests = [d for d in vars(args) if d not in ("command", "func", "config")]
    earlier: list[str] = []
    for lookup in (config.get, lambda dest: os.environ.get(_ENV_PREFIX + dest.upper())):
        for dest in dests:
            value = lookup(dest)
            if value is None:
                continue
            flag = "--" + dest.replace("_", "-")
            if isinstance(getattr(args, dest), bool):
                earlier.append(flag if str(value).lower() in _TRUTHY else "--no-" + flag[2:])
            else:
                earlier.append(f"{flag}={value}")
    at = argv.index(args.command) + 1
    return parser.parse_args([*argv[:at], *earlier, *argv[at:]])


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    try:
        args = _parse_args(build_parser(), argv)
        return args.func(vars(args))
    except UsageError as exc:
        log.error("%s", exc)
        return EXIT_USAGE
    except ValueError as exc:
        # every data error (manifest, mentions, labeled file, model file,
        # training input) is a ValueError
        log.error("%s", exc)
        return EXIT_DATA
    except OSError as exc:
        log.error("%s", exc)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
