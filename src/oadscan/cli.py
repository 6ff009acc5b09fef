"""Command-line pipeline: extract -> classify -> scope -> categorize -> report.

Subcommands: extract, train, evaluate, report, pipeline (fused
extract+report).  Options resolve as flag > OADSCAN_<NAME> environment
variable > --config JSON file > built-in default.  Exit codes: 0 success
(possibly with per-document skips), 1 usage/config error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from . import __version__
from .analytics import (
    AggregateConfig,
    CorpusAggregate,
    MergeConfigError,
    paper_figures,
    write_reports,
)
from .classifier import (
    DEFAULT_DENYLIST,
    LabeledFileError,
    TrainedModel,
    TrainingConfig,
    TrainingError,
    classify_hybrid,
    evaluate,
    load_denylist,
    read_labeled_file,
    train,
)
from .corpus import (
    DocumentReadError,
    DuplicateVersionError,
    ManifestError,
    MonthWindow,
    filter_window,
    load_manifest,
    read_document,
    select_latest_versions,
)
from .extraction import (
    MentionRecord,
    MentionsFileError,
    UriMention,
    extract_uri_mentions,
    mention_records,
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

_DATA_ERRORS = (
    ManifestError,
    DuplicateVersionError,
    MentionsFileError,
    LabeledFileError,
    TrainingError,
    MergeConfigError,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the pipeline reserves 2 for
    # data errors, so remap.
    def error(self, message: str):  # noqa: D102 - argparse override
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _settings(args: argparse.Namespace) -> dict:
    """Merge option sources: flag > environment > config file > default."""
    config_data: dict = {}
    if args.config is not None:
        try:
            config_data = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(config_data, dict):
            raise UsageError(f"config file {args.config} must hold a JSON object")

    def resolve(name: str, default, cast: Callable = str):
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            return flag_value
        env = os.environ.get(_ENV_PREFIX + name.upper())
        if env is not None:
            return cast(env)
        if name in config_data:
            return cast(config_data[name])
        return default

    return {
        "manifest": resolve("manifest", None),
        "docs_root": resolve("docs_root", None),
        "out": resolve("out", None),
        "out_dir": resolve("out_dir", None),
        "mentions": resolve("mentions", None),
        "model": resolve("model", None),
        "labeled": resolve("labeled", None),
        "policy": resolve("policy", None),
        "denylist": resolve("denylist", None),
        "patterns": resolve("patterns", None),
        "window_start": resolve("window_start", MonthWindow().start),
        "window_end": resolve("window_end", MonthWindow().end),
        "dedup_per_doc": resolve("dedup_per_doc", False, lambda v: str(v).lower() in ("1", "true", "yes")),
        "category_policy": resolve("category_policy", CategoryPolicy.GHP_FORCES_OADS.value),
        "bin_width": resolve("bin_width", 50, int),
        "top_n": resolve("top_n", 15, int),
        "learning_rate": resolve("learning_rate", TrainingConfig.learning_rate, float),
        "iterations": resolve("iterations", TrainingConfig.iterations, int),
        "l2": resolve("l2", TrainingConfig.l2, float),
        "threshold": resolve("threshold", TrainingConfig.threshold, float),
        "seed": resolve("seed", TrainingConfig.seed, int),
    }


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


def _window(settings: dict) -> MonthWindow:
    try:
        return MonthWindow(settings["window_start"], settings["window_end"])
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _category_policy(settings: dict) -> CategoryPolicy:
    try:
        return CategoryPolicy(settings["category_policy"])
    except ValueError:
        choices = ", ".join(p.value for p in CategoryPolicy)
        raise UsageError(
            f"unknown category policy {settings['category_policy']!r} (choices: {choices})"
        ) from None


class _ReportSetup(NamedTuple):
    """Everything a report needs besides the mentions."""

    manifest: Path
    model: TrainedModel
    policy: ScopePolicy
    denylist: frozenset[str]
    patterns: GhpPatternSet
    category_policy: CategoryPolicy


def _load_report_setup(settings: dict) -> _ReportSetup:
    """Check and load the report's inputs, so that an error in any of them
    stops the run before it reads or writes anything else."""
    manifest = _require_file(settings["manifest"], "manifest")
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
    return _ReportSetup(manifest, model, policy, denylist, patterns, _category_policy(settings))


def _seconds(ns: int) -> float:
    return round(ns / 1e9, 6)


def _write_metadata(path: Path, command: str, config_echo: dict, counts: dict, **more) -> None:
    payload = {
        "tool": "oadscan",
        "version": __version__,
        "command": command,
        "config": config_echo,
        "counts": counts,
        **more,
    }
    atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


# --- extract ---------------------------------------------------------------


def _run_extraction(
    settings: dict, window: MonthWindow, out_path: Path
) -> tuple[dict, list[MentionRecord], dict]:
    """Shared by extract and pipeline: documents in, mentions file out.

    Returns the counts, the records written (in file order) and the
    stage timings.
    """
    manifest_path = _require_file(settings["manifest"], "manifest")
    docs_root = Path(settings["docs_root"]) if settings["docs_root"] else manifest_path.parent

    manifest = load_manifest(manifest_path)
    latest = select_latest_versions(manifest)
    windowed, window_skipped = filter_window(latest, window)
    if window_skipped:
        log.warning("%d document(s) outside corpus window %s..%s skipped",
                    window_skipped, window.start, window.end)

    dedup = settings["dedup_per_doc"]
    read_failures = 0
    input_bytes = read_ns = extract_ns = 0
    records: list[MentionRecord] = []
    for entry in windowed:
        t0 = time.perf_counter_ns()
        try:
            doc = read_document(entry, docs_root)
        except DocumentReadError as exc:
            log.warning("skipping document: %s", exc)
            read_failures += 1
            continue
        t1 = time.perf_counter_ns()
        records.extend(mention_records(doc, extract_uri_mentions(doc, dedup=dedup)))
        read_ns += t1 - t0
        extract_ns += time.perf_counter_ns() - t1
        input_bytes += len(doc.text.encode("utf-8"))

    t0 = time.perf_counter_ns()
    mention_count = write_mentions_file(out_path, records)
    write_ns = time.perf_counter_ns() - t0
    log.info("extract: %d manifest entries, %d documents, %d mentions, %d read failures",
             len(manifest), len(windowed), mention_count, read_failures)
    return {
        "manifest_entries": len(manifest),
        "documents": len(windowed),
        "window_skipped": window_skipped,
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
    window = _window(settings)
    out_path = Path(settings["out"])
    counts, _, timings = _run_extraction(settings, window, out_path)
    echo = {
        "manifest": str(settings["manifest"]),
        "docs_root": str(settings["docs_root"] or Path(settings["manifest"]).parent),
        "out": str(out_path),
        "window": [window.start, window.end],
        "dedup_per_doc": settings["dedup_per_doc"],
    }
    _write_metadata(out_path.with_name(out_path.name + ".meta.json"), "extract", echo, counts,
                    timings=timings)
    return EXIT_OK


# --- train / evaluate -------------------------------------------------------


def _training_config(settings: dict) -> TrainingConfig:
    return TrainingConfig(
        learning_rate=settings["learning_rate"],
        iterations=settings["iterations"],
        l2=settings["l2"],
        threshold=settings["threshold"],
        seed=settings["seed"],
    )


def cmd_train(settings: dict) -> int:
    _require(settings, "labeled", "out")
    labeled_path = _require_file(settings["labeled"], "labeled file")
    examples = read_labeled_file(labeled_path)
    model = train(examples, _training_config(settings))
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
    window: MonthWindow,
    setup: _ReportSetup,
    records: list[MentionRecord],
    out_dir: Path,
) -> tuple[dict, dict, dict]:
    """Classify, scope and categorize mentions into the CSV reports.

    Returns the counts, the paper's figures and the stage timings.
    """
    t0 = time.perf_counter_ns()
    manifest = load_manifest(setup.manifest)
    latest = select_latest_versions(manifest)
    windowed, window_skipped = filter_window(latest, window)

    aggregate = CorpusAggregate(AggregateConfig(setup.category_policy, settings["bin_width"]))
    for entry in windowed:
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
        mention = UriMention(r.doc_id, r.uri, r.context, r.span)
        classification = classify_hybrid(mention, setup.model, setup.denylist, parsed)
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
        "documents": len(windowed),
        "window_skipped": window_skipped,
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
        "seed": settings["seed"],
    }


def cmd_report(settings: dict) -> int:
    _require(settings, "mentions", "model", "manifest", "out_dir")
    window = _window(settings)
    mentions_path = _require_file(settings["mentions"], "mentions file")
    out_dir = Path(settings["out_dir"])
    setup = _load_report_setup(settings)
    t0 = time.perf_counter_ns()
    records = read_mentions_file(mentions_path)
    read_ns = time.perf_counter_ns() - t0
    counts, figures, timings = _run_report(settings, window, setup, records, out_dir)
    echo = _report_echo(settings, window, mentions_path, out_dir)
    _write_metadata(out_dir / "run_metadata.json", "report", echo, counts, figures=figures,
                    timings={"read_mentions_s": _seconds(read_ns), **timings})
    return EXIT_OK


def cmd_pipeline(settings: dict) -> int:
    _require(settings, "manifest", "model", "out_dir")
    window = _window(settings)
    setup = _load_report_setup(settings)
    out_dir = Path(settings["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    mentions_path = Path(settings["mentions"]) if settings["mentions"] else out_dir / "mentions.tsv"
    extract_counts, records, extract_timings = _run_extraction(settings, window, mentions_path)
    report_counts, figures, report_timings = _run_report(settings, window, setup, records, out_dir)
    echo = _report_echo(settings, window, mentions_path, out_dir)
    echo["docs_root"] = str(settings["docs_root"] or Path(settings["manifest"]).parent)
    echo["dedup_per_doc"] = settings["dedup_per_doc"]
    counts = {"extract": extract_counts, "report": report_counts}
    _write_metadata(out_dir / "run_metadata.json", "pipeline", echo, counts, figures=figures,
                    timings={**extract_timings, **report_timings})
    return EXIT_OK


# --- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="oadscan",
        description="Mine scholarly article text for URIs pointing at open-access data and software.",
        epilog=f"Every option can also come from a --config JSON file or an "
        f"{_ENV_PREFIX}<OPTION> environment variable; flags win.",
    )
    parser.add_argument("--version", action="version", version=f"oadscan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file with option defaults")
        p.add_argument("--window-start", dest="window_start", metavar="YYYY-MM",
                       help="first accepted publication month (default 2007-04)")
        p.add_argument("--window-end", dest="window_end", metavar="YYYY-MM",
                       help="last accepted publication month (default 2021-12)")

    p = sub.add_parser("extract", help="extract URI mentions from a corpus")
    add_common(p)
    p.add_argument("--manifest", help="corpus manifest file")
    p.add_argument("--docs-root", dest="docs_root", help="directory document paths are relative to")
    p.add_argument("--out", help="mentions file to write")
    p.add_argument("--dedup-per-doc", dest="dedup_per_doc",
                   action=argparse.BooleanOptionalAction, default=None,
                   help="count each URI at most once per document")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train the learned classifier")
    add_common(p)
    p.add_argument("--labeled", help="labeled-example file (label<TAB>uri<TAB>context)")
    p.add_argument("--out", help="model file to write")
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--iterations", type=int)
    p.add_argument("--l2", type=float, help="L2 penalty strength")
    p.add_argument("--threshold", type=float, help="OADS decision threshold")
    p.add_argument("--seed", type=int, help="recorded in the model file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a model on labeled examples")
    add_common(p)
    p.add_argument("--model", help="model file")
    p.add_argument("--labeled", help="labeled-example file")
    p.set_defaults(func=cmd_evaluate)

    def add_report_options(p):
        p.add_argument("--model", help="model file")
        p.add_argument("--manifest", help="corpus manifest file")
        p.add_argument("--out-dir", dest="out_dir", help="directory for CSV reports")
        p.add_argument("--policy", help="scope policy JSON file")
        p.add_argument("--denylist", help="publisher denylist JSON file")
        p.add_argument("--patterns", help="GHP host pattern JSON file")
        p.add_argument("--category-policy", dest="category_policy",
                       choices=[c.value for c in CategoryPolicy])
        p.add_argument("--bin-width", dest="bin_width", type=int,
                       help="hostname-frequency histogram bin width (default 50)")
        p.add_argument("--top-n", dest="top_n", type=int,
                       help="rows in the top-hostnames table (default 15)")
        p.add_argument("--seed", type=int, help="recorded in run metadata")

    p = sub.add_parser("report", help="classify a mentions file and write CSV reports")
    add_common(p)
    p.add_argument("--mentions", help="mentions file from the extract stage")
    add_report_options(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("pipeline", help="fused extract + report run")
    add_common(p)
    p.add_argument("--docs-root", dest="docs_root", help="directory document paths are relative to")
    p.add_argument("--mentions", help="where to write the intermediate mentions file")
    p.add_argument("--dedup-per-doc", dest="dedup_per_doc",
                   action=argparse.BooleanOptionalAction, default=None)
    add_report_options(p)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings = _settings(args)
        return args.func(settings)
    except UsageError as exc:
        log.error("%s", exc)
        return EXIT_USAGE
    except _DATA_ERRORS as exc:
        log.error("%s", exc)
        return EXIT_DATA
    except ValueError as exc:
        # covers malformed model/config payloads and invalid field values
        log.error("%s", exc)
        return EXIT_DATA
    except OSError as exc:
        log.error("%s", exc)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
