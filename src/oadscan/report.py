"""The commands that classify: report, pipeline, train and evaluate.

``cli`` parses every command's options and runs ``extract`` itself; it
imports this module only to run one of these commands, so that a cold
``extract`` neither compiles nor loads the report code.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from functools import partial
from pathlib import Path
from typing import NamedTuple, Sequence

from .cli import (_Corpus, _Part, _add, _load_corpus, _require, _require_file,
                  _require_output_dir, _require_output_path, _run_extraction, _seconds,
                  _write_metadata, log)
# The other modules load where each command runs: train and evaluate need only
# the classifier.


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
    from . import analytics, classifier, ghp, scope

    def load(name, loader, default):
        path = settings[name]
        return default if path is None else loader(_require_file(path, f"{name} file"))

    return _ReportSetup(
        classifier.TrainedModel.load(_require_file(settings["model"], "model file")),
        load("policy", scope.ScopePolicy.from_file, scope.DEFAULT_POLICY),
        load("denylist", classifier.load_denylist, classifier.DEFAULT_DENYLIST),
        load("patterns", ghp.GhpPatternSet.from_file, ghp.DEFAULT_PATTERNS),
        analytics.AggregateConfig(ghp.CategoryPolicy(settings["category_policy"]),
                                  settings["bin_width"]))


# --- train / evaluate -------------------------------------------------------


def cmd_train(settings: dict) -> None:
    from .classifier import TrainingConfig, evaluate, read_labeled_file, train
    _require(settings, "labeled", "out")
    out_path = _require_output_path(settings["out"], "model file")
    labeled_path = _require_file(settings["labeled"], "labeled file")
    examples = read_labeled_file(labeled_path)
    # train's options are named after the TrainingConfig fields they set.
    config = TrainingConfig(**{name: settings[name] for name in TrainingConfig._fields})
    model = train(examples, config)
    model.save(out_path)
    metrics = evaluate(model, examples)
    log.info("train: %d examples, vocabulary %d, model written to %s",
             len(examples), len(model.vocabulary), out_path)
    print(json.dumps({"training_set": metrics._asdict()}, sort_keys=True, indent=2))


def cmd_evaluate(settings: dict) -> None:
    from .classifier import TrainedModel, evaluate, read_labeled_file
    _require(settings, "model", "labeled")
    model = TrainedModel.load(_require_file(settings["model"], "model file"))
    examples = read_labeled_file(_require_file(settings["labeled"], "labeled file"))
    metrics = evaluate(model, examples)
    print(json.dumps(metrics._asdict(), sort_keys=True, indent=2))


# --- report ----------------------------------------------------------------


def _report_records(setup: _ReportSetup, records: list[MentionRecord], part: _Part) -> None:
    """Classify, scope and categorize mentions into part's counts and aggregate.

    Rules and scope run on every mention, as each is counted.  The model
    scores an in-scope mention no rule decided whose category reads the
    label; any other mention passes Non-OADS, which is a rule's label.
    """
    from .classifier import Provenance, classify_heuristic, score_text
    from .ghp import category_of, detect_ghp, label_decides
    from .scope import is_in_scope, parse_uri
    t0 = time.process_time_ns()
    counts, aggregate = part.counts, part.aggregate
    model, policy, denylist, patterns = setup.model, setup.policy, setup.denylist, setup.patterns
    category_policy, threshold = setup.config.category_policy, model.threshold
    for r in records:
        parsed = parse_uri(r.uri)
        rule = classify_heuristic(parsed, denylist)
        counts[Provenance.LEARNED if rule is None else rule] += 1
        reason = is_in_scope(parsed, policy)
        counts[reason] += 1
        if not reason.in_scope:
            continue
        platform = detect_ghp(parsed, patterns)
        oads = False
        if rule is None and label_decides(platform, category_policy):
            counts["scored"] += 1
            oads = score_text(model, r.context, parsed) >= threshold
        aggregate.add_mention(r.month, category_of(platform, oads, category_policy),
                              parsed.hostname)
    part.ns["classify"] += time.process_time_ns() - t0


def _report_shard(setup: _ReportSetup, window: MonthWindow, path: Path,
                  chunks: Sequence[tuple[int, int]]) -> _Part:
    """Run the report loop on the mention lines of a run of the mentions
    file's chunks, one chunk at a time, so memory does not grow with the run.

    The first bad line raises, a month outside the window among them.
    Chunks are read in order, and ``shards.run_shards`` raises the earliest
    shard's error, so the command reports the first bad line of the file.
    """
    from . import shards
    from .analytics import CorpusAggregate
    from .extraction import read_mentions_file
    part = _Part([], Counter(), Counter(), CorpusAggregate(setup.config))
    for chunk in chunks:
        shards.exit_if_orphaned()
        t0 = time.process_time_ns()
        records = read_mentions_file(path, *chunk, window)
        part.ns["read_mentions"] += time.process_time_ns() - t0
        _report_records(setup, records, part)
        part.counts["mentions"] += len(records)
    return part


def _write_report(
    settings: dict, corpus: _Corpus, total: _Part, out_dir: Path
) -> tuple[dict, dict, dict]:
    """Write the CSV reports from the shards' summed part.

    Returns the counts, the paper's figures and the stage timings.  Every
    report sorts its rows by a total order, so shard order cannot reach
    the output.
    """
    from . import analytics, classifier, ghp, scope
    t0 = time.process_time_ns()
    aggregate = total.aggregate
    for entry in corpus.entries:
        aggregate.add_publications(entry.month)
    total.ns["classify"] += time.process_time_ns() - t0
    t1 = time.perf_counter_ns()
    report_paths = analytics.write_reports(out_dir, aggregate, settings["top_n"])
    t2 = time.perf_counter_ns()
    totals, months = aggregate.totals(), len(aggregate.monthly_list())
    log.info("report: %d mentions, %d in scope, %d months, reports in %s",
             total.counts["mentions"], totals.uri_total, months, out_dir)
    return {
        "documents": len(corpus.entries),
        "window_skipped": corpus.window_skipped,
        "mentions": total.counts["mentions"],
        "in_scope": totals.uri_total,
        "scored": total.counts["scored"],  # the mentions the learned model scored
        **{key: {member.value: total.counts[member] for member in enum}
           for key, enum in (("provenance", classifier.Provenance),
                             ("scope_reasons", scope.ScopeReason))},
        "categories": {member.value: getattr(totals, member.value) for member in ghp.Category},
        "months": months,
        "reports": sorted(Path(p).name for p in report_paths.values()),
    }, analytics.paper_figures(aggregate), {
        "classify_s": _seconds(total.ns["classify"]),
        "write_reports_s": _seconds(t2 - t1),
    }


def cmd_report(settings: dict) -> None:
    from . import shards
    _require(settings, "mentions", "model", "manifest", "out_dir")
    settings["mentions"] = mentions_path = _require_file(settings["mentions"], "mentions file")
    settings["out_dir"] = out_dir = _require_output_dir(settings["out_dir"])
    setup = _load_report_setup(settings)
    corpus = _load_corpus(settings)
    # One cut into line-aligned chunks, at least one per shard; each shard reads a run of them.
    size = os.path.getsize(mentions_path)
    n = shards.shard_count(size)
    chunks = shards.line_ranges(mentions_path, max(n, -(-size // shards.CHUNK_BYTES)))
    runs = shards.contiguous(chunks, n)
    total = _add(shards.run_shards(partial(_report_shard, setup, corpus.window, mentions_path),
                                   runs))
    counts, figures, timings = _write_report(settings, corpus, total, out_dir)
    _write_metadata(out_dir / "run_metadata.json", settings, counts, figures=figures,
                    timings={"workers": len(runs),
                             "read_mentions_s": _seconds(total.ns["read_mentions"]),
                             **timings})


def cmd_pipeline(settings: dict) -> None:
    _require(settings, "manifest", "model", "out_dir")
    settings["out_dir"] = out_dir = _require_output_dir(settings["out_dir"])
    mentions = Path(settings["mentions"] or out_dir / "mentions.tsv")
    # Nothing is made before the inputs are checked: a mentions file outside
    # out_dir and its parents, which mkdir makes, is checked first.
    made = Path(os.path.normpath(out_dir))
    if Path(os.path.normpath(mentions.parent)) not in (made, *made.parents):
        _require_output_path(mentions, "mentions file")
    setup = _load_report_setup(settings)
    corpus = _load_corpus(settings)
    out_dir.mkdir(parents=True, exist_ok=True)
    settings["mentions"] = mentions_path = _require_output_path(mentions, "mentions file")
    # Each shard extracts its documents and runs the report loop on them.
    extract_counts, total, extract_timings = _run_extraction(settings, corpus, mentions_path,
                                                             setup)
    report_counts, figures, report_timings = _write_report(settings, corpus, total, out_dir)
    counts = {"extract": extract_counts, "report": report_counts}
    _write_metadata(out_dir / "run_metadata.json", settings, counts, figures=figures,
                    timings={**extract_timings, **report_timings})
