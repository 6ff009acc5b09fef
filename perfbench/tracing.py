"""Traced replay of the oadscan commands, for per-layer numbers.

The replay repeats each command's loop in-process, calling only names
that each module exports in ``__all__``, and records a span around every
call into a layer.  Spans live in flat arrays while the replay runs and
are written out when it ends.  A layer's self time is its spans' time
minus the part their child spans cover.

``host_of`` and ``split_port`` are wrapped at every module binding for
the length of a replay, so the number of host parses per mention can be
counted; bindings a module does not have are skipped.
"""

from __future__ import annotations

import gzip
import math
import statistics
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

HOST_PARSERS = ("host_of", "split_port")
HOST_PARSER_MODULES = ("scope", "extraction", "classifier", "ghp", "analytics", "cli")


class Tracer:
    """Spans as (name, start, end, parent, request id), kept in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.rid: list[str | None] = []
        self._stack: list[int] = []

    def begin(self, name: str, rid: str | None = None) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.rid.append(rid)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def durations(self, name: str) -> list[float]:
        """Wall seconds of every span with this name, in start order."""
        nid = self._name_ids.get(name)
        return [(self.end[i] - self.start[i]) / 1e9
                for i in range(len(self.start)) if self.name[i] == nid]

    def totals(self) -> Counter:
        """Wall seconds per span name, summed over its spans."""
        out: Counter = Counter()
        for i in range(len(self.start)):
            out[self.names[self.name[i]]] += (self.end[i] - self.start[i]) / 1e9
        return out

    def self_time_by_layer(self) -> dict[str, float]:
        """Seconds per layer (the span-name prefix), children excluded."""
        child = [0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: Counter = Counter()
        for i in range(len(self.start)):
            layer = self.names[self.name[i]].split(".", 1)[0]
            out[layer] += (self.end[i] - self.start[i] - child[i]) / 1e9
        return dict(out)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("# span\tname\tstart_ns\tend_ns\tparent\trequest_id\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.names[self.name[i]]}\t{self.start[i]}\t{self.end[i]}\t"
                         f"{self.parent[i]}\t{self.rid[i] or ''}\n")


@contextmanager
def count_host_parses(package):
    """Count host_of/split_port calls through every module binding."""
    counts: Counter = Counter()
    saved = []

    def counting(fn, key):
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    for mod_name in HOST_PARSER_MODULES:
        mod = getattr(package, mod_name, None)
        for fn_name in HOST_PARSERS:
            fn = getattr(mod, fn_name, None)
            if fn is not None:
                saved.append((mod, fn_name, fn))
                setattr(mod, fn_name, counting(fn, fn_name))
    try:
        yield counts
    finally:
        for mod, fn_name, fn in saved:
            setattr(mod, fn_name, fn)


def replay_extract(t: Tracer, pkg, manifest: Path, out: Path, stats: Counter) -> None:
    """The loop of ``oadscan extract`` with default settings."""
    corpus, extraction = pkg.corpus, pkg.extraction
    s = t.begin("corpus.load")
    entries, _ = corpus.filter_window(
        corpus.select_latest_versions(corpus.load_manifest(manifest)), corpus.DEFAULT_WINDOW)
    t.finish(s)
    records = []
    for entry in entries:
        rid = str(entry.doc_id)
        s = t.begin("corpus.read", rid)
        try:
            doc = corpus.read_document(entry, manifest.parent)
        except corpus.DocumentReadError:
            t.finish(s)
            stats["read_failures"] += 1
            continue
        t.finish(s)
        stats["read_chars"] += len(doc.text)
        s = t.begin("extraction.extract", rid)
        mentions = extraction.extract_uri_mentions(doc)
        t.finish(s)
        stats["extracted"] += len(mentions)
        records.extend(extraction.MentionRecord(m.doc_id, doc.month, m.uri, m.span, m.context)
                       for m in mentions)
    s = t.begin("extraction.write_mentions")
    extraction.write_mentions_file(out, records)
    t.finish(s)
    stats["mentions_file_bytes"] += out.stat().st_size


def replay_report(t: Tracer, pkg, manifest: Path, mentions: Path, model: Path,
                  out_dir: Path, stats: Counter) -> None:
    """The loop of ``oadscan report`` with default settings."""
    corpus, extraction, classifier = pkg.corpus, pkg.extraction, pkg.classifier
    scope, ghp, analytics = pkg.scope, pkg.ghp, pkg.analytics
    window = corpus.DEFAULT_WINDOW
    policy = ghp.CategoryPolicy.GHP_FORCES_OADS
    s = t.begin("classifier.load_model")
    trained = classifier.TrainedModel.load(model)
    t.finish(s)
    s = t.begin("corpus.load")
    entries, _ = corpus.filter_window(
        corpus.select_latest_versions(corpus.load_manifest(manifest)), window)
    t.finish(s)
    s = t.begin("analytics.add_publications")
    aggregate = analytics.CorpusAggregate(analytics.AggregateConfig(policy, 50))
    for entry in entries:
        aggregate.add_publications(entry.month)
    t.finish(s)
    s = t.begin("extraction.read_mentions")
    records = extraction.read_mentions_file(mentions)
    t.finish(s)
    stats["mentions_file_bytes"] += mentions.stat().st_size
    learned = classifier.Provenance.LEARNED
    for r in records:
        rid = str(r.doc_id)
        if not window.contains(r.month):
            raise extraction.MentionsFileError(f"mention month {r.month} outside corpus window")
        mention = extraction.UriMention(r.doc_id, r.uri, r.context, r.span)
        s = t.begin("classifier.classify", rid)
        verdict = classifier.classify_hybrid(mention, trained, classifier.DEFAULT_DENYLIST)
        t.finish(s)
        stats["classify_calls"] += 1
        stats["heuristic"] += verdict.provenance is not learned
        s = t.begin("scope.scope", rid)
        in_scope = scope.is_in_scope(r.uri, scope.DEFAULT_POLICY).in_scope
        t.finish(s)
        stats["mentions"] += 1
        if in_scope:
            stats["in_scope"] += 1
            s = t.begin("ghp.categorize", rid)
            category = ghp.categorize(r.uri, verdict.label, ghp.DEFAULT_PATTERNS, policy)
            t.finish(s)
            stats["ghp"] += category is ghp.Category.GHP
            s = t.begin("analytics.add_mention", rid)
            aggregate.add_mention(r.month, category, scope.host_of(r.uri))
            t.finish(s)
    s = t.begin("analytics.write_reports")
    analytics.write_reports(out_dir, aggregate, 15)
    t.finish(s)
    stats["distinct_hosts"] = len(aggregate.hostname_stats().counts)


def probe_extraction(pkg, docs: list[tuple[str, list[tuple[int, int]]]]) -> dict[str, float]:
    """Probes: re-run the three extraction passes on the same texts.

    These time ``repair_linewrap``, the raw ``URI_RE`` scan of the
    repaired text and ``segment_sentences`` one at a time; they are not
    part of the replay and do not add up to ``extraction.extract_s``.
    Each document comes with the raw spans of its extracted mentions;
    ``segment_sentences`` is given the same protected spans extraction
    gives it (each span cut at its trimmed end), so it segments as
    extraction does and does not scan for URIs itself.
    """
    extraction = pkg.extraction
    uri_re = getattr(extraction, "URI_RE", None)
    out = dict.fromkeys(("repair_probe_s", "scan_probe_s", "segment_probe_s", "raw_matches"), 0)
    for text, spans in docs:
        protected = [(s, s + len(extraction.trim_trailing(text[s:e]))) for s, e in spans]
        t0 = time.perf_counter()
        repaired = extraction.repair_linewrap(text)
        t1 = time.perf_counter()
        if uri_re is not None:
            out["raw_matches"] += sum(1 for _ in uri_re.finditer(repaired))
        t2 = time.perf_counter()
        if protected:  # extraction segments only texts with mentions
            extraction.segment_sentences(text, protected_spans=protected)
        t3 = time.perf_counter()
        out["repair_probe_s"] += t1 - t0
        out["scan_probe_s"] += t2 - t1
        out["segment_probe_s"] += t3 - t2
    return out


def timed_extract(pkg, manifest: Path) -> tuple[float, list[str]]:
    """Seconds spent in ``extract_uri_mentions`` over a manifest's
    documents, reading excluded, and the URIs it found."""
    corpus, extraction = pkg.corpus, pkg.extraction
    entries, _ = corpus.filter_window(
        corpus.select_latest_versions(corpus.load_manifest(manifest)), corpus.DEFAULT_WINDOW)
    seconds, uris = 0.0, []
    for entry in entries:
        doc = corpus.read_document(entry, manifest.parent)
        t0 = time.perf_counter()
        mentions = extraction.extract_uri_mentions(doc)
        seconds += time.perf_counter() - t0
        uris += [m.uri for m in mentions]
    return seconds, uris


def tail(values: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten values beyond it, by
    nearest rank; the maximum when there are too few values."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return f"p{p:g}", ordered[max(0, math.ceil(p / 100 * n) - 1)]
    return "max", ordered[-1] if ordered else 0.0


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
