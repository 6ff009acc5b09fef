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
import contextlib
import logging
import os
import sys
import time
from collections import Counter
from dataclasses import fields
from functools import partial
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
    Provenance,
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
    format_mentions,
    read_mentions_file,
    write_mentions_text,
)
from .fileio import atomic_write_text
from .ghp import Category, CategoryPolicy, DEFAULT_PATTERNS, GhpPatternSet, categorize
from .scope import DEFAULT_POLICY, ScopePolicy, ScopeReason, is_in_scope, parse_uri
from . import shards

log = logging.getLogger("oadscan")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

_ENV_PREFIX = "OADSCAN_"
# A boolean option's environment and config-file values, as the flag they give.
_BOOLEAN = {"1": "--", "true": "--", "yes": "--", "0": "--no-", "false": "--no-", "no": "--no-"}


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


def _require_output_dir(path: str | Path) -> Path:
    """Check that an output directory exists or can be made, before any
    work is done; the command makes it when it writes."""
    p = Path(path)
    nearest = next(d for d in (p, *p.parents) if d.exists())
    if not nearest.is_dir():
        raise UsageError(f"output directory {p}: {nearest} is not a directory")
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
    config: AggregateConfig  # the category policy and the histogram bin width


def _load_report_setup(settings: dict) -> _ReportSetup:
    """Check and load the report's inputs, so that an error in any of them
    stops the run before it reads or writes anything else."""
    def load(name, loader, default):
        path = settings[name]
        return default if path is None else loader(_require_file(path, f"{name} file"))

    return _ReportSetup(
        TrainedModel.load(_require_file(settings["model"], "model file")),
        load("policy", ScopePolicy.from_file, DEFAULT_POLICY),
        load("denylist", load_denylist, DEFAULT_DENYLIST),
        load("patterns", GhpPatternSet.from_file, DEFAULT_PATTERNS),
        AggregateConfig(CategoryPolicy(settings["category_policy"]), settings["bin_width"]))


def _seconds(ns: int) -> float:
    return round(ns / 1e9, 6)


def _peak_rss_mb() -> float | None:
    """The largest peak resident set size so far of this process and of
    its reaped workers, in MB of 2**20 bytes; None where the platform does
    not report it."""
    if resource is None:
        return None
    maxrss = max(resource.getrusage(who).ru_maxrss
                 for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
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


# --- shard results ----------------------------------------------------------


class _Part(NamedTuple):
    """One shard's results, or the sum of every shard's (``_add``)."""

    lines: list[str]  # mentions-file text, one chunk per shard (extract, pipeline)
    skipped: list[tuple[str, str]]  # (doc_id, reason) of each unreadable document
    counts: Counter  # "mentions", "input_bytes" and each Provenance, ScopeReason, Category
    ns: Counter  # nanoseconds per stage
    aggregate: CorpusAggregate | None  # in-scope mentions (report, pipeline)


def _add(parts: Sequence[_Part]) -> _Part:
    """The parts summed: text and skipped documents joined in order, counts,
    times and aggregates added (``update`` keeps zero counts, ``+`` would not)."""
    counts, ns = Counter(), Counter()
    for part in parts:
        counts.update(part.counts)
        ns.update(part.ns)
    aggregates = [part.aggregate for part in parts if part.aggregate is not None]
    for aggregate in aggregates[1:]:
        aggregates[0].update(aggregate)
    return _Part([t for part in parts for t in part.lines],
                 [s for part in parts for s in part.skipped], counts, ns,
                 aggregates[0] if aggregates else None)


# --- extract ---------------------------------------------------------------


def _extract_shard(docs_root: Path, dedup: bool, setup: _ReportSetup | None,
                   entries: Sequence[ManifestEntry]) -> _Part:
    """Read and extract a shard's documents; for ``pipeline`` (``setup``
    given), also run the report loop on their mentions."""
    part = _Part([], [], Counter(), Counter(), None)
    records: list[MentionRecord] = []
    for entry in entries:
        t0 = time.perf_counter_ns()
        try:
            doc = read_document(entry, docs_root)
        except DocumentReadError as exc:
            part.skipped.append((str(entry.doc_id), exc.reason))
            continue
        t1 = time.perf_counter_ns()
        records.extend(MentionRecord(m.doc_id, doc.month, m.uri, m.span, m.context)
                       for m in extract_uri_mentions(doc, dedup=dedup))
        part.ns["read_documents"] += t1 - t0
        part.ns["extract"] += time.perf_counter_ns() - t1
        part.counts["input_bytes"] += len(doc.text.encode("utf-8"))
    t0 = time.perf_counter_ns()
    part.lines.append(format_mentions(records))
    part.ns["write_mentions"] += time.perf_counter_ns() - t0
    part.counts["mentions"] = len(records)
    return _add([part, _report_records(setup, records)]) if setup else part


def _document_bytes(docs_root: Path, entries: Sequence[ManifestEntry]) -> int:
    """The documents' size on disk; one that cannot be read counts 0."""
    total = 0
    for entry in entries:
        with contextlib.suppress(OSError):
            total += (docs_root / entry.path).stat().st_size
    return total


def _run_extraction(
    settings: dict, corpus: _Corpus, out_path: Path, setup: _ReportSetup | None = None
) -> tuple[dict, _Part, dict]:
    """Shared by extract and pipeline: documents in, mentions file out.

    The documents are cut into contiguous shards by ``shards.shard_count``.
    Returns the counts, the shards' summed part and the stage timings
    (seconds summed over the shards).  No mentions file is written when a
    shard fails.
    """
    docs_root = Path(settings["docs_root"] or Path(settings["manifest"]).parent)
    if corpus.window_skipped:
        log.warning("%d document(s) outside corpus window %s..%s skipped",
                    corpus.window_skipped, corpus.window.start, corpus.window.end)

    runs = shards.contiguous(corpus.entries,
                             shards.shard_count(_document_bytes(docs_root, corpus.entries)))
    total = _add(shards.run_shards(
        partial(_extract_shard, docs_root, settings["dedup_per_doc"], setup), runs))
    for doc_id, reason in total.skipped:
        log.warning("skipping document %s: %s", doc_id, reason)

    t0 = time.perf_counter_ns()
    write_mentions_text(out_path, total.lines)
    total.ns["write_mentions"] += time.perf_counter_ns() - t0
    input_mb, extract_s = total.counts["input_bytes"] / 1e6, total.ns["extract"] / 1e9
    log.info("extract: %d manifest entries, %d documents, %d mentions, %d read failures",
             corpus.manifest_entries, len(corpus.entries), total.counts["mentions"],
             len(total.skipped))
    return {
        "manifest_entries": corpus.manifest_entries,
        "documents": len(corpus.entries),
        "window_skipped": corpus.window_skipped,
        "read_failures": len(total.skipped),
        "skipped": total.skipped,
        "mentions": total.counts["mentions"],
    }, total, {
        "workers": len(runs),
        "read_documents_s": _seconds(total.ns["read_documents"]),
        "extract_s": _seconds(total.ns["extract"]),
        "write_mentions_s": _seconds(total.ns["write_mentions"]),
        "input_mb": round(input_mb, 6),
        "extract_mb_per_s": round(input_mb / extract_s, 3) if extract_s else None,
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


def _report_records(setup: _ReportSetup, records: list[MentionRecord]) -> _Part:
    """Classify, scope and categorize mentions into a partial aggregate."""
    t0 = time.perf_counter_ns()
    counts: Counter = Counter()
    aggregate = CorpusAggregate(setup.config)
    for r in records:
        parsed = parse_uri(r.uri)
        classification = classify_hybrid(r, setup.model, setup.denylist, parsed)
        counts[classification.provenance] += 1
        verdict = is_in_scope(parsed, setup.policy)
        counts[verdict.reason] += 1
        if verdict.in_scope:
            category = categorize(parsed, classification.label, setup.patterns,
                                  setup.config.category_policy)
            counts[category] += 1
            aggregate.add_mention(r.month, category, parsed.hostname)
    return _Part([], [], counts, Counter(classify=time.perf_counter_ns() - t0), aggregate)


def _report_shard(setup: _ReportSetup, window: MonthWindow, path: Path,
                  byte_range: tuple[int, int]) -> _Part | MentionsFileError:
    """Read the mention lines in a byte range of the mentions file, then
    run the report loop on them.

    A malformed line raises.  A month outside the window is returned
    instead, and raised by the parent once every shard is done: the serial
    run reads the whole file before it checks a month, so a malformed line
    in any shard comes first.
    """
    t0 = time.perf_counter_ns()
    records = read_mentions_file(path, *byte_range)
    for r in records:
        if not window.contains(r.month):
            return MentionsFileError(f"mention month {r.month} outside corpus window "
                                     f"{window.start}..{window.end} (doc {r.doc_id})")
    read_ns = time.perf_counter_ns() - t0
    part = _report_records(setup, records)
    part.counts["mentions"] = len(records)
    part.ns["read_mentions"] = read_ns
    return part


def _write_report(
    settings: dict, corpus: _Corpus, total: _Part, out_dir: Path
) -> tuple[dict, dict, dict]:
    """Write the CSV reports from the shards' summed part.

    Returns the counts, the paper's figures and the stage timings.  Every
    report sorts its rows by a total order, so shard order cannot reach
    the output.
    """
    t0 = time.perf_counter_ns()
    aggregate = total.aggregate
    for entry in corpus.entries:
        aggregate.add_publications(entry.month)
    t1 = time.perf_counter_ns()
    report_paths = write_reports(out_dir, aggregate, settings["top_n"])
    t2 = time.perf_counter_ns()
    totals, months = aggregate.totals(), len(aggregate.monthly_list())
    log.info("report: %d mentions, %d in scope, %d months, reports in %s",
             total.counts["mentions"], totals.uri_total, months, out_dir)
    return {
        "documents": len(corpus.entries),
        "window_skipped": corpus.window_skipped,
        "mentions": total.counts["mentions"],
        "in_scope": totals.uri_total,
        **{key: {member.value: total.counts[member] for member in enum}
           for key, enum in (("provenance", Provenance), ("scope_reasons", ScopeReason),
                             ("categories", Category))},
        "months": months,
        "reports": sorted(Path(p).name for p in report_paths.values()),
    }, paper_figures(aggregate), {
        "classify_s": _seconds(total.ns["classify"] + t1 - t0),
        "write_reports_s": _seconds(t2 - t1),
    }


def _report_echo(settings: dict, window: MonthWindow, mentions: Path, out_dir: Path) -> dict:
    # Option values are argparse's strings and numbers (None when unset).
    echo = {k: settings[k] for k in ("manifest", "model", "policy", "denylist", "patterns",
                                     "category_policy", "bin_width", "top_n")}
    return {**echo, "mentions": str(mentions), "out_dir": str(out_dir),
            "window": [window.start, window.end]}


def cmd_report(settings: dict) -> int:
    _require(settings, "mentions", "model", "manifest", "out_dir")
    mentions_path = _require_file(settings["mentions"], "mentions file")
    out_dir = _require_output_dir(settings["out_dir"])
    setup = _load_report_setup(settings)
    corpus = _load_corpus(settings)
    # Each shard reads its own line-aligned byte range of the mentions file.
    ranges = shards.line_ranges(mentions_path,
                                shards.shard_count(os.path.getsize(mentions_path)))
    parts = shards.run_shards(partial(_report_shard, setup, corpus.window, mentions_path),
                              ranges)
    for part in parts:
        if isinstance(part, MentionsFileError):
            raise part
    total = _add(parts)
    counts, figures, timings = _write_report(settings, corpus, total, out_dir)
    echo = _report_echo(settings, corpus.window, mentions_path, out_dir)
    _write_metadata(out_dir / "run_metadata.json", "report", echo, counts, figures=figures,
                    timings={"workers": len(ranges),
                             "read_mentions_s": _seconds(total.ns["read_mentions"]),
                             **timings})
    return EXIT_OK


def cmd_pipeline(settings: dict) -> int:
    _require(settings, "manifest", "model", "out_dir")
    out_dir = _require_output_dir(settings["out_dir"])
    setup = _load_report_setup(settings)
    corpus = _load_corpus(settings)
    out_dir.mkdir(parents=True, exist_ok=True)
    mentions_path = _require_output_path(settings["mentions"] or out_dir / "mentions.tsv",
                                         "mentions file")
    # Each shard extracts its documents and runs the report loop on them.
    extract_counts, total, extract_timings = _run_extraction(settings, corpus, mentions_path,
                                                             setup)
    report_counts, figures, report_timings = _write_report(settings, corpus, total, out_dir)
    echo = {**_report_echo(settings, corpus.window, mentions_path, out_dir),
            "docs_root": str(settings["docs_root"] or Path(settings["manifest"]).parent),
            "dedup_per_doc": settings["dedup_per_doc"]}
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
    command line's own flags as --option=value (a boolean's 1/true/yes as
    --option, 0/false/no as --no-option), and the command is parsed again.  argparse keeps the last
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
            option = dest.replace("_", "-")
            spelling = str(value).lower()  # JSON true and false read "true" and "false"
            if isinstance(getattr(args, dest), bool) and spelling in _BOOLEAN:
                earlier.append(_BOOLEAN[spelling] + option)
            else:  # argparse rejects any other value of a boolean flag
                earlier.append(f"--{option}={value}")
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
