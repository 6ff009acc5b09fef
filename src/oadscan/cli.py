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
import signal
import sys
import time
from collections import Counter
from functools import partial
from pathlib import Path
from typing import BinaryIO, NamedTuple, NoReturn, Sequence

try:
    import resource
except ImportError:  # Windows
    resource = None

from . import __version__
from .fileio import atomic_open, atomic_write_text, open_spool
# corpus, extraction and shards load where they run: train and evaluate run none.

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


def _terminate(signum: int, frame) -> NoReturn:
    signal.signal(signum, signal.SIG_IGN)  # a second SIGTERM must not cut the cleanup short
    raise SystemExit(128 + signum)  # the status a shell gives a command SIGTERM ends


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
    from .corpus import MonthWindow, filter_window, load_manifest, select_latest_versions
    try:
        window = MonthWindow(settings["window_start"], settings["window_end"])
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    manifest = load_manifest(_require_file(settings["manifest"], "manifest"))
    entries, window_skipped = filter_window(select_latest_versions(manifest), window)
    return _Corpus(window, len(manifest), entries, window_skipped)


def _seconds(ns: int) -> float:
    return round(ns / 1e9, 6)


def _peak_rss_mb() -> float | None:
    """The largest peak resident set size so far of this process and of
    its reaped workers, in MB of 2**20 bytes; None where the platform does
    not report it."""
    if resource is None:
        return None
    # Linux keeps this process's ru_maxrss across exec, so it can be the peak
    # of the process that started this one; VmHWM is this program's own.
    try:
        with open("/proc/self/status", "rb") as fh:
            own = next(int(line.split()[1]) for line in fh if line.startswith(b"VmHWM:"))
    except (OSError, StopIteration):
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    maxrss = max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    # Linux reports kilobytes, macOS bytes.
    return round(maxrss / (2**20 if sys.platform == "darwin" else 2**10), 3)


def _write_metadata(path: Path, settings: dict, counts: dict, timings: dict, **more) -> None:
    """Write a run record whose ``config`` echoes the command's options, paths
    as the command resolved them and the window as [start, end]."""
    config = {k: str(v) if isinstance(v, Path) else v for k, v in settings.items()
              if k not in ("command", "config", "window_start", "window_end")}
    config["window"] = [settings["window_start"], settings["window_end"]]
    payload = {
        "tool": "oadscan",
        "version": __version__,
        "command": settings["command"],
        "config": config,
        "counts": counts,
        "timings": {**timings, "peak_rss_mb": _peak_rss_mb()},
        **more,
    }
    atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


# --- shard results ----------------------------------------------------------


class _Part(NamedTuple):
    """One shard's results, or the sum of every shard's (``_add``)."""

    skipped: list[tuple[str, str]]  # (doc_id, reason) of each unreadable document
    counts: Counter  # "mentions", "input_bytes", "scored" and each Provenance and ScopeReason
    ns: Counter  # nanoseconds per stage
    aggregate: CorpusAggregate | None  # in-scope mentions (report, pipeline)


def _add(parts: Sequence[_Part]) -> _Part:
    """The parts summed: skipped documents joined in order, counts, times
    and aggregates added (``update`` keeps zero counts, ``+`` would not)."""
    counts, ns = Counter(), Counter()
    for part in parts:
        counts.update(part.counts)
        ns.update(part.ns)
    aggregates = [part.aggregate for part in parts if part.aggregate is not None]
    for aggregate in aggregates[1:]:
        aggregates[0].update(aggregate)
    return _Part([s for part in parts for s in part.skipped], counts, ns,
                 aggregates[0] if aggregates else None)


# --- extract ---------------------------------------------------------------


def _extract_shard(docs_root: Path, dedup: bool, setup: _ReportSetup | None,
                   shard: tuple[BinaryIO, Sequence[ManifestEntry]]) -> _Part:
    """Read and extract a shard's documents one at a time; write each
    mention's line to the shard's spool and, for ``pipeline`` (``setup``
    given), run the report loop on them, so the shard holds one document's
    records and no text."""
    from . import shards
    from .corpus import DocumentReadError, read_document
    from .extraction import extract_uri_mentions, format_mention
    spool, entries = shard
    aggregate = None
    if setup:
        from .analytics import CorpusAggregate  # extract does not load analytics
        from .report import _report_records
        aggregate = CorpusAggregate(setup.config)
    part = _Part([], Counter(), Counter(), aggregate)
    for entry in entries:
        shards.exit_if_orphaned()
        t0 = time.perf_counter_ns()
        try:
            doc = read_document(entry, docs_root)
        except DocumentReadError as exc:
            part.skipped.append((str(entry.doc_id), exc.reason))
            continue
        part.ns["read_documents"] += time.perf_counter_ns() - t0
        t0 = time.process_time_ns()
        records = extract_uri_mentions(doc, dedup=dedup)
        part.ns["extract"] += time.process_time_ns() - t0
        text = doc.text  # an ASCII text's length is its UTF-8 size, with no copy made
        part.counts["input_bytes"] += len(text) if text.isascii() else len(text.encode("utf-8"))
        t0 = time.perf_counter_ns()
        for r in records:
            spool.write(format_mention(r).encode("utf-8"))
        spool.flush()  # a forked shard leaves by os._exit, which flushes nothing
        part.ns["write_mentions"] += time.perf_counter_ns() - t0
        part.counts["mentions"] += len(records)
        if setup:
            _report_records(setup, records, part)
    return part


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
    Each shard writes its mention lines to its own spool (``open_spool``),
    and the spools are copied in shard order into the mentions file, so no
    mention text is held in memory or sent back from a shard.  Returns the
    counts, the shards' summed part and the stage timings (seconds summed
    over the shards).  No mentions file is written when a shard fails.
    Documents are read under --docs-root as given, else the manifest's directory.
    """
    from . import shards
    from .extraction import MENTIONS_HEADER
    settings["docs_root"] = settings["docs_root"] or Path(settings["manifest"]).parent
    docs_root = Path(settings["docs_root"])
    if corpus.window_skipped:
        log.warning("%d document(s) outside corpus window %s..%s skipped",
                    corpus.window_skipped, corpus.window.start, corpus.window.end)

    runs = shards.contiguous(corpus.entries,
                             shards.shard_count(_document_bytes(docs_root, corpus.entries)))
    with contextlib.ExitStack() as stack:
        spools = [stack.enter_context(open_spool(out_path.parent)) for _ in runs]
        total = _add(shards.run_shards(
            partial(_extract_shard, docs_root, settings["dedup_per_doc"], setup),
            list(zip(spools, runs))))
        for doc_id, reason in total.skipped:
            log.warning("skipping document %s: %s", doc_id, reason)
        t0 = time.perf_counter_ns()
        with atomic_open(out_path) as fh:
            fh.buffer.write(MENTIONS_HEADER.encode())  # the text layer stays empty
            for spool in spools:
                spool.seek(0)
                fh.buffer.writelines(iter(partial(spool.read, 1 << 16), b""))
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


def cmd_extract(settings: dict) -> None:
    _require(settings, "manifest", "out")
    settings["out"] = out_path = _require_output_path(settings["out"], "mentions file")
    corpus = _load_corpus(settings)
    counts, _, timings = _run_extraction(settings, corpus, out_path)
    _write_metadata(out_path.with_name(out_path.name + ".meta.json"), settings, counts, timings)


# --- parser ----------------------------------------------------------------


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser(argv: Sequence[str] | None = None) -> argparse.ArgumentParser:
    """Every command with its help line, and the options of the command argv
    names (every command's when argv is None), so a command imports no module
    for another's defaults.  No top-level option takes a value."""
    parser = _Parser(
        prog="oadscan",
        description="Mine scholarly article text for URIs pointing at open-access data and software.",
        epilog=f"Every option can also come from a --config JSON file or an "
        f"{_ENV_PREFIX}<OPTION> environment variable; flags win.",
    )
    parser.add_argument("--version", action="version", version=f"oadscan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    named = None if argv is None else next((a for a in argv if not a.startswith("-")), "")

    def add_command(name, help):
        p = sub.add_parser(name, help=help)
        if named not in (None, name):
            return None
        p.add_argument("--config", help="JSON config file with option defaults")
        return p

    def add_corpus_options(p):
        # Before any input is read: compiled after pipeline has read its model
        # and manifest, extraction and shards raise its peak RSS by 0.3 MB.
        from . import extraction, shards  # noqa: F401
        from .corpus import MonthWindow
        p.add_argument("--manifest", help="corpus manifest file")
        p.add_argument("--window-start", metavar="YYYY-MM",
                       default=MonthWindow._field_defaults["start"],
                       help="first accepted publication month (default %(default)s)")
        p.add_argument("--window-end", metavar="YYYY-MM",
                       default=MonthWindow._field_defaults["end"],
                       help="last accepted publication month (default %(default)s)")

    def add_extraction_options(p):
        add_corpus_options(p)
        p.add_argument("--docs-root", help="directory document paths are relative to")
        p.add_argument("--dedup-per-doc", action=argparse.BooleanOptionalAction, default=False,
                       help="count each URI at most once per document")

    def add_report_options(p):
        from .analytics import AggregateConfig
        from .ghp import CategoryPolicy
        p.add_argument("--model", help="model file")
        p.add_argument("--out-dir", help="directory for CSV reports")
        p.add_argument("--policy", help="scope policy JSON file")
        p.add_argument("--denylist", help="publisher denylist JSON file")
        p.add_argument("--patterns", help="GHP host pattern JSON file")
        p.add_argument("--category-policy", choices=[c.value for c in CategoryPolicy],
                       default=CategoryPolicy.GHP_FORCES_OADS.value)
        p.add_argument("--bin-width", type=positive_int,
                       default=AggregateConfig._field_defaults["histogram_bin_width"],
                       help="hostname-frequency histogram bin width (default %(default)s)")
        p.add_argument("--top-n", type=positive_int, default=15,
                       help="rows in the top-hostnames table (default %(default)s)")

    if p := add_command("extract", "extract URI mentions from a corpus"):
        add_extraction_options(p)
        p.add_argument("--out", help="mentions file to write")

    if p := add_command("train", "train the learned classifier"):
        from .classifier import TrainingConfig

        def add_training_option(name, convert, **kwargs):
            """An option for a TrainingConfig field, its value checked by
            TrainingConfig, so a value out of range is a usage error."""
            def check(text):
                value = convert(text)
                try:
                    TrainingConfig(**{name: value})
                except ValueError as exc:
                    raise argparse.ArgumentTypeError(str(exc)) from None
                return value
            check.__name__ = convert.__name__  # argparse's "invalid float value" names it
            p.add_argument(f"--{name.replace('_', '-')}", type=check,
                           default=TrainingConfig._field_defaults[name], **kwargs)

        p.add_argument("--labeled", help="labeled-example file (label<TAB>uri<TAB>context)")
        p.add_argument("--out", help="model file to write")
        add_training_option("learning_rate", float)
        add_training_option("iterations", int)
        add_training_option("l2", float, help="L2 penalty strength")
        add_training_option("threshold", float, help="OADS decision threshold")
        add_training_option("seed", int, help="recorded in the model file")

    if p := add_command("evaluate", "evaluate a model on labeled examples"):
        p.add_argument("--model", help="model file")
        p.add_argument("--labeled", help="labeled-example file")

    if p := add_command("report", "classify a mentions file and write CSV reports"):
        add_corpus_options(p)
        p.add_argument("--mentions", help="mentions file from the extract stage")
        add_report_options(p)

    if p := add_command("pipeline", "fused extract + report run"):
        add_extraction_options(p)
        p.add_argument("--mentions", help="where to write the intermediate mentions file")
        add_report_options(p)

    return parser


def _parse_args(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse the command line with config-file and environment values in front.

    The first parse names the command and so its options.  Each option's
    --config value, then its OADSCAN_<OPTION> value, is put ahead of the
    command line's own flags as --option=value (a boolean's 1/true/yes as
    --option, 0/false/no as --no-option), and the command is parsed again.  argparse keeps the last
    value it reads, so flag > environment > config > default, and every
    value passes the option's own type and choice checks.
    """
    args = parser.parse_args(argv)
    config = {}
    if args.config is not None:
        try:
            config = json.loads(Path(args.config).read_text(encoding="utf-8-sig"))
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(config, dict):
            raise UsageError(f"config file {args.config} must hold a JSON object")
    dests = [d for d in vars(args) if d not in ("command", "config")]
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
    argv = list(sys.argv[1:] if argv is None else argv)
    # SIGTERM raises, so the workers are killed and temporary files removed on the way out.
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        args = _parse_args(build_parser(argv), argv)
        if args.command == "extract":
            cmd_extract(vars(args))
        else:  # report, pipeline, train and evaluate, which extract never loads
            from . import report
            getattr(report, f"cmd_{args.command}")(vars(args))
        return EXIT_OK
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
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    # The report module imports this one as oadscan.cli: run as a script, it
    # must be that module too, not a second copy with its own UsageError.
    sys.modules.setdefault(__spec__.name, sys.modules[__name__])
    sys.exit(main())
