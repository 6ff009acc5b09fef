"""The report loop against the eager order it replaces.

``report`` and ``pipeline`` run the rules and scope on every mention but
score a mention only when its category depends on the learned label, and
take the category from ``ghp.category_of``.  The oracle here keeps the
eager order: every mention gets a label (the rule's, or else the model's),
then a scope reason, then a category from the rule spelled out in this
file, then ``add_mention``.  Counts, reports and figures must be the same.
"""

from __future__ import annotations

import json
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oadscan import classifier, cli, shards
from oadscan.analytics import AggregateConfig, CorpusAggregate, paper_figures, write_reports
from oadscan.classifier import (
    DEFAULT_DENYLIST,
    Label,
    Provenance,
    TrainedModel,
    classify_heuristic,
    load_denylist,
    score_text,
)
from oadscan.corpus import (
    DocumentId,
    MonthWindow,
    filter_window,
    load_manifest,
    select_latest_versions,
)
from oadscan.extraction import MentionRecord, read_mentions_file, write_mentions_file
from oadscan.ghp import DEFAULT_PATTERNS, Category, CategoryPolicy, GhpPatternSet, detect_ghp
from oadscan.scope import DEFAULT_POLICY, ScopeReason, is_in_scope, parse_uri
from test_cli import CORPUS, MODEL, run, write_corpus

CSVS = ("monthly.csv", "hostnames.csv", "histogram.csv", "top_hostnames.csv")
POLICIES = [p.value for p in CategoryPolicy]

# A denylist that holds a GHP host, and pattern rules that add a platform
# host and drop one of the defaults.
DENYLIST = ["springer.com", "wiley.com", "publisher.example", "bitbucket.org"]
PATTERNS = {
    "github": [{"kind": "exact", "host": "github.com"},
               {"kind": "suffix", "host": ".github.io"}],
    "gitlab": [{"kind": "first-label", "host": "gitlab"}],
    "bitbucket": [{"kind": "exact", "host": "bitbucket.org"},
                  {"kind": "exact", "host": "codeberg.org"}],
}


IN_SCOPE = (ScopeReason.ACCEPTED, ScopeReason.DOI_ALLOWLISTED)


def eager_category(uri: str, label: Label, patterns, policy: CategoryPolicy) -> Category:
    """The category rule, written out here so that the oracle does not run
    the ``category_of`` it checks."""
    platform = detect_ghp(parse_uri(uri), patterns)
    if platform is not None:
        if policy is CategoryPolicy.GHP_FORCES_OADS or label is Label.OADS:
            return Category.GHP
    if label is Label.OADS:
        return Category.NON_GHP_OADS
    return Category.NON_OADS


def eager_report(manifest: Path, mentions: Path, model: TrainedModel, denylist, patterns,
                 category_policy: CategoryPolicy) -> tuple[dict, CorpusAggregate]:
    """The report counts and aggregate, classifying every mention first."""
    counts: Counter = Counter()
    aggregate = CorpusAggregate(AggregateConfig(category_policy))
    entries, _ = filter_window(select_latest_versions(load_manifest(manifest)), MonthWindow())
    for entry in entries:
        aggregate.add_publications(entry.month)
    records = read_mentions_file(mentions)
    for r in records:
        rule = classify_heuristic(parse_uri(r.uri), denylist)
        if rule is None:
            counts[Provenance.LEARNED] += 1
            score = score_text(model, r.context, parse_uri(r.uri))
            label = Label.OADS if score >= model.threshold else Label.NON_OADS
        else:
            counts[rule] += 1
            label = Label.NON_OADS
        reason = is_in_scope(r.uri, DEFAULT_POLICY)
        counts[reason] += 1
        if reason in IN_SCOPE:
            category = eager_category(r.uri, label, patterns, category_policy)
            counts[category] += 1
            aggregate.add_mention(r.month, category, parse_uri(r.uri).hostname)
    return {
        "mentions": len(records),
        "in_scope": aggregate.totals().uri_total,
        **{key: {member.value: counts[member] for member in enum}
           for key, enum in (("provenance", Provenance), ("scope_reasons", ScopeReason),
                             ("categories", Category))},
    }, aggregate


def check_against_eager(out_dir: Path, counts: dict, figures: dict, eager: dict,
                        aggregate: CorpusAggregate) -> None:
    assert {k: counts[k] for k in eager} == eager
    assert 0 <= counts["scored"] <= counts["provenance"]["learned"]
    assert figures == paper_figures(aggregate)
    with tempfile.TemporaryDirectory() as oracle_dir:
        write_reports(oracle_dir, aggregate, 15)
        for name in CSVS:
            assert (out_dir / name).read_bytes() == (Path(oracle_dir) / name).read_bytes(), name


def run_sharded(n_shards: int, command: str, out_dir: Path, *argv) -> dict:
    """The run record of ``report`` or ``pipeline`` with its input cut
    into n_shards."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shards, "shard_count", lambda input_bytes: n_shards)
        assert run(command, "--model", MODEL, "--out-dir", out_dir, *argv) == cli.EXIT_OK
    return json.loads((out_dir / "run_metadata.json").read_text())


@pytest.mark.parametrize("category_policy", POLICIES)
@pytest.mark.parametrize("filters", ["default", "custom"])
def test_golden_corpus_matches_eager_order(tmp_path, category_policy, filters):
    options = ["--category-policy", category_policy]
    denylist, patterns = DEFAULT_DENYLIST, DEFAULT_PATTERNS
    if filters == "custom":
        (tmp_path / "denylist.json").write_text(json.dumps(DENYLIST))
        (tmp_path / "patterns.json").write_text(json.dumps(PATTERNS))
        options += ["--denylist", tmp_path / "denylist.json",
                    "--patterns", tmp_path / "patterns.json"]
        denylist = load_denylist(tmp_path / "denylist.json")
        patterns = GhpPatternSet.from_file(tmp_path / "patterns.json")
    manifest, mentions = CORPUS / "manifest.tsv", tmp_path / "mentions.tsv"
    assert run("extract", "--manifest", manifest, "--out", mentions) == cli.EXIT_OK
    eager, aggregate = eager_report(manifest, mentions, TrainedModel.load(MODEL), denylist,
                                    patterns, CategoryPolicy(category_policy))
    for n in (1, 2):
        meta = run_sharded(n, "report", tmp_path / f"r{n}", "--manifest", manifest,
                           "--mentions", mentions, *options)
        check_against_eager(tmp_path / f"r{n}", meta["counts"], meta["figures"], eager,
                            aggregate)
        meta = run_sharded(n, "pipeline", tmp_path / f"p{n}", "--manifest", manifest, *options)
        check_against_eager(tmp_path / f"p{n}", meta["counts"]["report"], meta["figures"],
                            eager, aggregate)


# Mentions that mix rule hits (denylisted hosts, .pdf paths), GHP hosts
# (some with .pdf paths, one denylisted) and out-of-scope URIs.
HOSTS = ["zenodo.org", "example.org", "blog.example.com", "link.springer.com",
         "www.publisher.example", "github.com", "user.github.io", "gitlab.cern.ch",
         "sourceforge.net", "bitbucket.org", "codeberg.org", "arxiv.org", "localhost",
         "10.0.0.7", "doi.org"]
PATHS = ["/", "/record/1", "/u/repo", "/paper.pdf", "/data/FILE.PDF", "/10.5281/zenodo.1",
         "/10.1000/xyz"]
CONTEXTS = ["The dataset and code are available at {}.", "See the conference website {}.",
            "We thank the reviewers; see {}.", "{}", "The talk is online at {}."]


@st.composite
def mention_records(draw):
    n = draw(st.integers(0, 40))
    records = []
    for i in range(n):
        scheme = draw(st.sampled_from(["https", "https", "http", "ftp"]))
        uri = f"{scheme}://{draw(st.sampled_from(HOSTS))}{draw(st.sampled_from(PATHS))}"
        context = draw(st.sampled_from(CONTEXTS)).format(uri)
        month = draw(st.sampled_from(["2019-01", "2019-02", "2020-06"]))
        records.append(MentionRecord(DocumentId(f"d{i % 3}", 1), month, uri, (0, len(uri)),
                                     context))
    return records


@pytest.mark.parametrize("category_policy", POLICIES)
@settings(max_examples=12, deadline=None)
@given(records=mention_records())
def test_generated_mentions_match_eager_order(tmp_path_factory, category_policy, records):
    tmp = tmp_path_factory.mktemp("generated")
    manifest = write_corpus(tmp, [(f"d{i}", 1, "2019-01", "text") for i in range(3)])
    manifest = manifest / "manifest.tsv"
    mentions = tmp / "mentions.tsv"
    write_mentions_file(mentions, records)
    (tmp / "denylist.json").write_text(json.dumps(DENYLIST))
    (tmp / "patterns.json").write_text(json.dumps(PATTERNS))
    eager, aggregate = eager_report(manifest, mentions, TrainedModel.load(MODEL),
                                    load_denylist(tmp / "denylist.json"),
                                    GhpPatternSet.from_file(tmp / "patterns.json"),
                                    CategoryPolicy(category_policy))
    for n in (1, 2):
        meta = run_sharded(n, "report", tmp / f"r{n}", "--manifest", manifest,
                           "--mentions", mentions, "--category-policy", category_policy,
                           "--denylist", tmp / "denylist.json",
                           "--patterns", tmp / "patterns.json")
        check_against_eager(tmp / f"r{n}", meta["counts"], meta["figures"], eager, aggregate)


# --- what the model scores --------------------------------------------------

SCORING_CASES = {
    # uri: scored under (ghp-forces-oads, classifier-decides)
    "https://arxiv.org/abs/1": (False, False),  # out of scope: publication page
    "http://localhost/x": (False, False),  # out of scope: local host
    "ftp://example.org/d": (False, False),  # out of scope: scheme
    "https://link.springer.com/x": (False, False),  # rule hit: publisher
    "https://zenodo.org/a.pdf": (False, False),  # rule hit: .pdf
    "https://github.com/u/r/paper.pdf": (False, False),  # rule hit on a GHP host
    "https://github.com/u/r": (False, True),  # GHP host
    "https://gitlab.cern.ch/x": (False, True),  # GHP host
    "https://zenodo.org/record/1": (True, True),
    "https://example.org/page": (True, True),
}


@pytest.mark.parametrize("category_policy", POLICIES)
def test_model_scores_only_where_the_category_depends_on_it(tmp_path, monkeypatch,
                                                             category_policy):
    manifest = write_corpus(tmp_path, [("d", 1, "2019-01", "text")]) / "manifest.tsv"
    mentions = tmp_path / "mentions.tsv"
    write_mentions_file(mentions, [
        MentionRecord(DocumentId("d", 1), "2019-01", uri, (0, len(uri)), f"Code at {uri}.")
        for uri in SCORING_CASES])
    scored = []

    def recording_score_text(model, context, parsed):
        scored.append(parsed.uri)
        return score_text(model, context, parsed)

    # The report loop imports score_text from classifier each time it runs.
    monkeypatch.setattr(classifier, "score_text", recording_score_text)
    argv = ["--manifest", manifest, "--mentions", mentions, "--category-policy", category_policy]
    # One shard: the recorder sees this process's calls only.
    counts = run_sharded(1, "report", tmp_path / "one", *argv)["counts"]
    column = POLICIES.index(category_policy)
    assert scored == [uri for uri, when in SCORING_CASES.items() if when[column]]
    assert counts["scored"] == len(scored)
    # Provenance still counts every mention no rule decided, scored or not.
    assert counts["provenance"]["learned"] == 7
    monkeypatch.undo()
    assert run_sharded(2, "report", tmp_path / "two", *argv)["counts"] == counts
