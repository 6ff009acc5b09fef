"""Acceptance suite: one test per exit criterion, one printed line each.

Corpus-scale figures are not reproducible at fixture scale; these tests
pin the published arithmetic, the committed decision tables, classifier
determinism and quality, oracle equivalence for the analytics, and the
golden end-to-end run.
"""

import csv
import json
import random
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import oadscan.classifier as classifier_mod
import oadscan.scope as scope_mod
from conftest import make_mention
from fixture_labels import generate_examples
from oadscan.analytics import (
    CorpusAggregate,
    MonthlyStats,
    category_percentages,
    dispersion_metrics,
    frequency_histogram,
    ghp_share_of_oads,
    paper_figures,
    top_hostnames,
)
from oadscan.classifier import Label, Provenance, classify_hybrid, evaluate, score_text, train
from oadscan.cli import EXIT_OK, main
from oadscan.extraction import read_mentions_file
from oadscan.ghp import Category, CategoryPolicy, categorize, detect_ghp
from oadscan.scope import ScopeReason, is_in_scope, parse_uri

DATA = Path(__file__).parent / "data"
CORPUS = DATA / "fixture_corpus"
GOLDEN = DATA / "golden"
REPORT_NAMES = ("monthly.csv", "hostnames.csv", "histogram.csv", "top_hostnames.csv")


def _criterion(name):
    """Print one pass/fail line per criterion on the real stdout."""

    class _Reporter:
        def __enter__(self):
            self.start = time.monotonic()
            return self

        def __exit__(self, exc_type, exc, tb):
            elapsed = time.monotonic() - self.start
            status = "PASS" if exc_type is None else "FAIL"
            print(f"[acceptance] {name}: {status} ({elapsed:.2f}s)",
                  file=sys.__stdout__, flush=True)
            return False

    return _Reporter()


def test_ratio_reproduction():
    with _criterion("ratio reproduction (published 33% and 1.92%)"):
        corpus_totals = MonthlyStats("total", 0, 385817, 385817, 0, 127529, 258288)
        corpus_totals.check()
        pct_ghp, _, _ = category_percentages(corpus_totals)
        assert pct_ghp == pytest.approx(33.05, abs=0.01)
        assert ghp_share_of_oads(corpus_totals) == pytest.approx(33.05, abs=0.01)
        # 4,953 of 258,288 mentions on the top host, the rest 5 apiece.
        hostnames = Counter({"cds.cern.ch": 4953})
        hostnames.update({f"h{i}.example.org": 5 for i in range(50667)})
        hosts = CorpusAggregate(hostnames=hostnames)
        assert hosts.hostname_stats().total == 258288
        assert paper_figures(hosts)["top_hostname_share"] == pytest.approx(1.9177, abs=0.005)


def test_accounting_identity():
    with _criterion("accounting identity on fixtures and 1000+ random mention sets"):
        rng = random.Random(2027)
        cases = 0
        for _ in range(1000):
            aggregate = CorpusAggregate()
            for _ in range(rng.randint(1, 8)):
                month = f"20{rng.randint(10, 21)}-{rng.randint(1, 12):02d}"
                aggregate.add_publications(month)
                for _ in range(rng.randint(0, 10)):
                    aggregate.add_mention(month, rng.choice(list(Category)), "h.example.org")
            for stats in aggregate.monthly_list():
                stats.check()
                assert stats.uri_total == stats.oads + stats.non_oads
                assert stats.oads == stats.ghp + stats.non_ghp_oads
                cases += 1
        assert cases >= 1000
        # the published corpus-wide identity
        assert 385817 == 127529 + 258288
        # and the golden fixture corpus
        with open(GOLDEN / "monthly.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                total, oads = int(row["uri_total"]), int(row["oads"])
                assert total == oads + int(row["non_oads"])
                assert oads == int(row["ghp"]) + int(row["non_ghp_oads"])


def test_scope_decision_table():
    with _criterion("scope decision table (committed, every reason covered)"):
        rows = []
        for line in (DATA / "scope_cases.tsv").read_text().splitlines():
            if line and not line.startswith("#"):
                uri, reason, in_scope = line.split("\t")
                rows.append((uri, ScopeReason(reason), in_scope == "true"))
        assert len(rows) >= 30
        assert {r for _, r, _ in rows} == set(ScopeReason)
        for uri, reason, in_scope in rows:
            got = is_in_scope(uri)
            assert got is reason, uri
            assert got.in_scope is in_scope, uri


def test_heuristic_rules(fixture_model, monkeypatch):
    with _criterion("heuristic rules decide without consulting the model"):
        calls = []

        def counting_score_text(model, context, parsed):
            calls.append(parsed.uri)
            return score_text(model, context, parsed)

        monkeypatch.setattr(classifier_mod, "score_text", counting_score_text)
        uris = [
            "https://link.springer.com/article/10.1007/x",
            "http://springer.com/toc",
            "https://onlinelibrary.wiley.com/doi/10.1002/x",
            "https://journals.sagepub.com/doi/full/10.1177/x",
            "https://example.org/paper.pdf",
            "https://example.org/PAPER.PDF",
            "https://example.org/paper.Pdf?download=1&v=2",
            "http://www.sciencedirect.com/science/article/x.pdf#page=2",
        ]
        for uri in uris:
            c = classifier_mod.classify_hybrid(make_mention(uri), fixture_model)
            assert c.label is Label.NON_OADS, uri
            assert c.provenance in (Provenance.HEURISTIC_PUBLISHER, Provenance.HEURISTIC_PDF)
            expected = (
                Provenance.HEURISTIC_PUBLISHER
                if any(p in uri for p in ("springer", "wiley", "sagepub"))
                else Provenance.HEURISTIC_PDF
            )
            assert c.provenance is expected, uri
        assert calls == []


def test_classifier_determinism_and_quality(tmp_path, labeled_seed):
    with _criterion("classifier determinism, 5-fold CV >= 0.85, seed sentences held out"):
        examples = generate_examples()
        file_a, file_b = tmp_path / "a.json", tmp_path / "b.json"
        train(examples).save(file_a)
        train(examples).save(file_b)
        assert file_a.read_bytes() == file_b.read_bytes()

        folds = 5
        accuracies = []
        for k in range(folds):
            held_out = [e for i, e in enumerate(examples) if i % folds == k]
            fit = train([e for i, e in enumerate(examples) if i % folds != k])
            accuracies.append(evaluate(fit, held_out).accuracy)
        assert sum(accuracies) / folds >= 0.85

        # seed sentences are not in the fixture set; the model must still
        # recover their labels
        model = train(examples)
        fixture_uris = {e.uri for e in examples}
        for ex in labeled_seed:
            assert ex.uri not in fixture_uris
            c = classify_hybrid(make_mention(ex.uri, ex.context), model)
            assert c.label is ex.label, ex.uri


def test_ghp_detection():
    with _criterion("GHP host fixture and category partition"):
        rows = []
        for line in (DATA / "ghp_cases.tsv").read_text().splitlines():
            if line and not line.startswith("#"):
                uri, platform = line.split("\t")
                rows.append((uri, platform))
        assert len(rows) >= 20
        uris = dict(rows)
        assert uris["https://gitlab.cern.ch/group/proj"] == "gitlab"
        assert uris["https://mygithub.example.com/x"] == "-"
        for uri, expected in rows:
            got = detect_ghp(parse_uri(uri))
            assert (got.value if got else "-") == expected, uri

        rng = random.Random(404)
        hosts = ["github.com", "gitlab.cern.ch", "zenodo.org", "youtu.be", "x.org"]
        for _ in range(200):
            mentions = [
                (f"https://{rng.choice(hosts)}/r{i}", rng.choice(list(Label)))
                for i in range(rng.randint(1, 40))
            ]
            for policy in CategoryPolicy:
                counts = Counter(categorize(u, l, policy=policy) for u, l in mentions)
                assert sum(counts.values()) == len(mentions)


def _brute_force_checks(docs, rng):
    """Independent recomputation with plain loops and sorting, checked
    against the aggregate the report builds."""
    aggregate = CorpusAggregate()
    hosts = []
    for month, cats in docs:
        aggregate.add_publications(month)
        for c in cats:
            host = f"h{rng.randint(0, 40)}.example.org"
            aggregate.add_mention(month, c, parse_uri(f"https://{host}/x").hostname)
            if c is Category.NON_GHP_OADS:
                hosts.append(host)
    stats_list = aggregate.monthly_list()
    by_month = {}
    for month, cats in docs:
        pubs, tally = by_month.get(month, (0, Counter()))
        tally = tally.copy()
        tally.update(cats)
        by_month[month] = (pubs + 1, tally)
    assert sorted(by_month) == [s.month for s in stats_list]
    for s in stats_list:
        pubs, tally = by_month[s.month]
        assert s.publications == pubs
        assert s.ghp == tally[Category.GHP]
        assert s.non_ghp_oads == tally[Category.NON_GHP_OADS]
        assert s.non_oads == tally[Category.NON_OADS]
        assert s.uri_total == sum(tally.values())
        # averages as plotted: total per publication
        assert s.uri_total / s.publications == pytest.approx(sum(tally.values()) / pubs)
    corpus_tally = Counter()
    for _, tally in by_month.values():
        corpus_tally.update(tally)
    ghp, ngo, non = (corpus_tally[c] for c in (Category.GHP, Category.NON_GHP_OADS,
                                               Category.NON_OADS))
    assert aggregate.totals() == MonthlyStats(
        "total", sum(pubs for pubs, _ in by_month.values()), ghp + ngo + non, ghp + ngo, non,
        ghp, ngo,
    )

    stats = aggregate.hostname_stats()
    expected_counts = {}
    for h in hosts:
        expected_counts[h] = expected_counts.get(h, 0) + 1
    assert stats.counts == expected_counts
    assert stats.total == len(hosts)

    width = rng.choice([1, 5, 50])
    bins = frequency_histogram(stats, width)
    expected_bins = Counter(c // width for c in expected_counts.values())
    for start, end, count in bins:
        assert count == expected_bins.get(start // width, 0)
        assert end - start == width
    assert sum(c for _, _, c in bins) == len(expected_counts)

    n = rng.randint(1, 10)
    expected_top = sorted(expected_counts.items(), key=lambda kv: (-kv[1], kv[0]))[:n]
    assert top_hostnames(stats, n) == [host for host, _ in expected_top]

    m = dispersion_metrics(stats)
    if stats.total == 0:
        assert m is None
    else:
        singles = sum(c for c in expected_counts.values() if c == 1)
        gt5 = sum(c for c in expected_counts.values() if c > 5)
        assert m.singleton_uri_share == pytest.approx(100.0 * singles / stats.total)
        assert m.gt5_uri_share == pytest.approx(100.0 * gt5 / stats.total)
        assert m.hostnames_over_1000 == sum(1 for c in expected_counts.values() if c > 1000)


def test_analytics_oracle_equivalence():
    with _criterion("analytics equal brute-force recomputation"):
        rng = random.Random(6060)
        for _ in range(60):
            docs = []
            total_mentions = 0
            while docs == [] or (total_mentions < 500 and rng.random() < 0.8):
                month = f"20{rng.randint(15, 20)}-{rng.randint(1, 12):02d}"
                cats = [rng.choice(list(Category)) for _ in range(rng.randint(0, 12))]
                total_mentions += len(cats)
                docs.append((month, cats))
            _brute_force_checks(docs, rng)


def test_end_to_end_golden_run(tmp_path):
    with _criterion("end-to-end golden run, byte-identical across runs"):
        run_dirs = [tmp_path / "run1", tmp_path / "run2"]
        for out_dir in run_dirs:
            code = main([
                "pipeline",
                "--manifest", str(CORPUS / "manifest.tsv"),
                "--model", str(DATA / "model.json"),
                "--out-dir", str(out_dir),
            ])
            assert code == EXIT_OK
        for name in REPORT_NAMES:
            first = (run_dirs[0] / name).read_bytes()
            assert first == (run_dirs[1] / name).read_bytes(), name
            assert first == (GOLDEN / name).read_bytes(), name
        assert (run_dirs[0] / "mentions.tsv").read_bytes() == (
            run_dirs[1] / "mentions.tsv"
        ).read_bytes()


def test_report_parses_each_uri_once(tmp_path, monkeypatch, force_shards):
    with _criterion("report parses each mention's URI once"):
        force_shards(1)  # the counters see this process's calls only
        mentions = tmp_path / "mentions.tsv"
        assert main(["extract", "--manifest", str(CORPUS / "manifest.tsv"),
                     "--out", str(mentions)]) == EXIT_OK
        splits, parses, port_splits = [], [], []
        split, urlsplit, split_port = scope_mod._split, scope_mod.urlsplit, scope_mod.split_port

        def counting_split(*args, **kwargs):
            splits.append(args[0])
            return split(*args, **kwargs)

        def counting_urlsplit(*args, **kwargs):
            parses.append(args[0])
            return urlsplit(*args, **kwargs)

        def counting_split_port(*args, **kwargs):
            port_splits.append(args[0])
            return split_port(*args, **kwargs)

        monkeypatch.setattr(scope_mod, "_split", counting_split)
        monkeypatch.setattr(scope_mod, "urlsplit", counting_urlsplit)
        monkeypatch.setattr(scope_mod, "split_port", counting_split_port)
        assert main(["report", "--mentions", str(mentions), "--model", str(DATA / "model.json"),
                     "--manifest", str(CORPUS / "manifest.tsv"),
                     "--out-dir", str(tmp_path / "reports")]) == EXIT_OK
        uris = [r.uri for r in read_mentions_file(mentions)]
        assert len(uris) >= 30
        assert Counter(splits) == Counter(uris)
        # urlsplit and split_port run for exactly the URIs the plain-URI regex
        # rejects, split_port on each one's netloc; the regex splits the port
        # off every other host.  The golden corpus has URIs on both paths.
        rejected = [u for u in uris if not (u.isascii() and u.isprintable()
                                            and scope_mod._PLAIN_URI.fullmatch(u))]
        assert 0 < len(rejected) < len(uris)
        assert Counter(parses) == Counter(rejected)
        assert Counter(port_splits) == Counter(
            urlsplit(u).netloc.rpartition("@")[2].lower() for u in rejected)


def test_paper_figures_from_report(tmp_path):
    with _criterion("paper figures in run_metadata.json match the golden reports"):
        out_dir = tmp_path / "run"
        assert main(["pipeline", "--manifest", str(CORPUS / "manifest.tsv"),
                     "--model", str(DATA / "model.json"), "--out-dir", str(out_dir)]) == EXIT_OK
        figures = json.loads((out_dir / "run_metadata.json").read_text())["figures"]
        with open(GOLDEN / "monthly.csv", newline="") as fh:
            monthly = list(csv.DictReader(fh))
        with open(GOLDEN / "hostnames.csv", newline="") as fh:
            counts = [int(row["count"]) for row in csv.DictReader(fh)]
        ghp = sum(int(row["ghp"]) for row in monthly)
        oads = sum(int(row["oads"]) for row in monthly)
        total = sum(counts)
        assert (ghp, oads, total) == (6, 18, 12)
        assert figures == {
            "ghp_share_of_oads": pytest.approx(100.0 * ghp / oads),
            "top_hostname_share": pytest.approx(100.0 * max(counts) / total),
            "distinct_hostnames": len(counts),
            "singleton_uri_share": pytest.approx(100.0 * counts.count(1) / total),
            "gt5_uri_share": 0.0,
            "hostnames_over_1000": 0,
        }
        assert figures["top_hostname_share"] == pytest.approx(25.0)
        assert figures["singleton_uri_share"] == pytest.approx(75.0)
