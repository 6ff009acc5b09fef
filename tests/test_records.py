"""The package's record classes: fields, construction, checks, equality,
hashing and pickling.

Shards pickle their results, and the exceptions and values in them, back
to the command, so every record and every exception must survive a round
trip.
"""

from __future__ import annotations

import importlib
import pickle
import pkgutil
from collections import Counter

import pytest

import oadscan
from oadscan.analytics import AggregateConfig, CorpusAggregate, HostnameStats, MonthlyStats
from oadscan.classifier import (Classification, EvalMetrics, Label, LabeledExample, Provenance,
                                TrainedModel, TrainingConfig)
from oadscan.corpus import (Document, DocumentId, DocumentReadError, DuplicateVersionError,
                            ManifestEntry, MonthWindow)
from oadscan.extraction import UriMention
from oadscan.ghp import Category, CategoryPolicy, GhpPatternSet, HostRule, Platform
from oadscan.scope import ScopePolicy

DOC = DocumentId("a", 1)

# class: (its fields in constructor order, the values of one instance)
RECORDS = {
    DocumentId: (("base_id", "version"), ("2104.01234", 3)),
    MonthWindow: (("start", "end"), ("2010-01", "2012-12")),
    ManifestEntry: (("doc_id", "month", "path"), (DOC, "2019-01", "docs/a.txt")),
    Document: (("id", "month", "text"), (DOC, "2019-01", "See https://zenodo.org/record/1.")),
    UriMention: (("doc_id", "uri", "context", "span"),
                 (DOC, "https://zenodo.org/record/1", "See it.", (4, 31))),
    ScopePolicy: (("allowed_schemes", "publication_hosts", "doi_hosts", "doi_allow_prefixes",
                   "private_ranges"),
                  (frozenset({"https"}), frozenset({"arxiv.org"}), frozenset({"doi.org"}),
                   frozenset({"10.5281"}), ("10.0.0.0/8",))),
    HostRule: (("kind", "host"), ("suffix", ".github.io")),
    GhpPatternSet: (("rules",), (((Platform.GITHUB, (HostRule("exact", "github.com"),)),),)),
    Classification: (("label", "provenance", "score"), (Label.OADS, Provenance.LEARNED, 0.75)),
    LabeledExample: (("context", "uri", "label"),
                     ("The code is at", "https://github.com/a/b", Label.OADS)),
    TrainingConfig: (("learning_rate", "iterations", "l2", "threshold", "seed"),
                     (0.2, 10, 0.0, 0.25, 7)),
    TrainedModel: (("vocabulary", "weights", "bias", "threshold", "training"),
                   ({"data": 0}, [0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.1], -0.25, 0.5,
                    TrainingConfig(seed=3))),
    EvalMetrics: (("accuracy", "per_label", "confusion"),
                  (0.5, {"OADS": {"f1": 0.5}}, {"tp": 1, "fp": 1})),
    MonthlyStats: (("month", "publications", "uri_total", "oads", "non_oads", "ghp",
                    "non_ghp_oads"), ("2019-01", 2, 3, 2, 1, 1, 1)),
    HostnameStats: (("counts", "total"), ({"zenodo.org": 2}, 2)),
    AggregateConfig: (("category_policy", "histogram_bin_width"),
                      (CategoryPolicy.CLASSIFIER_DECIDES, 10)),
    CorpusAggregate: (("config",), (AggregateConfig(CategoryPolicy.CLASSIFIER_DECIDES, 10),)),
}
MUTABLE = {CorpusAggregate}
# Immutable, but holding dicts.
UNHASHABLE = {TrainedModel, EvalMetrics, HostnameStats}
ids = [cls.__name__ for cls in RECORDS]


def compared(record):
    """What two records of a class are compared by: the record itself, or
    the attributes of a CorpusAggregate, which has no equality of its own."""
    return vars(record) if type(record) in MUTABLE else record


def make(cls):
    record = cls(*RECORDS[cls][1])
    if cls is CorpusAggregate:  # counts in each of its Counters
        record.add_publications("2019-01", 2)
        record.add_mention("2019-01", Category.GHP, "github.com")
        record.add_mention("2019-01", Category.NON_GHP_OADS, "zenodo.org")
    return record


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_fields_by_position_and_by_keyword(cls):
    fields, values = RECORDS[cls]
    record = cls(*values)
    assert [getattr(record, name) for name in fields] == list(values)
    assert compared(cls(**dict(zip(fields, values)))) == compared(record)
    with pytest.raises(TypeError):
        cls(*values, None)


@pytest.mark.parametrize("cls", sorted(set(RECORDS) - MUTABLE, key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_immutable_records_refuse_assignment(cls):
    record = make(cls)
    for name in RECORDS[cls][0]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert record == make(cls)


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_equality_and_hashing(cls):
    assert compared(make(cls)) == compared(make(cls))
    assert not compared(make(cls)) != compared(make(cls))
    if cls in MUTABLE:  # equal to itself alone, and hashed by identity
        record = make(cls)
        assert len({record, record, make(cls)}) == 2
    elif cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(make(cls))
    else:
        assert hash(make(cls)) == hash(make(cls))
        assert len({make(cls), make(cls)}) == 1


def test_mutable_records_compare_their_fields():
    model = make(TrainedModel)
    assert model != model._replace(bias=0.0)
    aggregate, other = CorpusAggregate(), CorpusAggregate()
    other.add_publications("2019-02")
    assert compared(aggregate) != compared(other)


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_pickle_round_trip(cls):
    record = make(cls)
    copy = pickle.loads(pickle.dumps(record, pickle.HIGHEST_PROTOCOL))
    assert type(copy) is cls
    assert compared(copy) == compared(record)


def test_kept_values_survive_a_pickle_round_trip():
    # These keep a value derived from their fields once it has been read.
    policy, patterns, model = make(ScopePolicy), make(GhpPatternSet), make(TrainedModel)
    kept = policy.networks, patterns.tables, model._weight_table
    copies = [pickle.loads(pickle.dumps(r, pickle.HIGHEST_PROTOCOL))
              for r in (policy, patterns, model)]
    assert copies == [policy, patterns, model]
    assert (copies[0].networks, copies[1].tables, copies[2]._weight_table) == kept


def _package_exceptions():
    """Every exception class defined at the top level of a package module."""
    modules = [oadscan] + [importlib.import_module(f"oadscan.{info.name}")
                           for info in pkgutil.iter_modules(oadscan.__path__)]
    return [value for module in modules for value in vars(module).values()
            if isinstance(value, type) and issubclass(value, BaseException)
            and value.__module__ == module.__name__]


EXCEPTIONS = _package_exceptions()


def test_package_exceptions_found():
    assert {DuplicateVersionError, DocumentReadError} <= set(EXCEPTIONS)


@pytest.mark.parametrize("cls", EXCEPTIONS, ids=lambda cls: f"{cls.__module__}.{cls.__name__}")
def test_exception_pickle_round_trip(cls):
    # An exception is built from the message made where it is raised; an
    # attribute set on it afterwards (DocumentReadError.reason) travels in
    # its __dict__.
    error = cls(f"a {cls.__name__} message")
    error.reason = "a reason"
    copy = pickle.loads(pickle.dumps(error, pickle.HIGHEST_PROTOCOL))
    assert (type(copy), str(copy), vars(copy)) == (cls, str(error), vars(error))


@pytest.mark.parametrize("cls, args, kwargs, message", [
    (DocumentId, ("a", 0), {}, "version must be >= 1, got 0"),
    (DocumentId, (), {"base_id": "", "version": 1},
     "base_id must be non-empty without whitespace: ''"),
    (DocumentId, ("a b", 2), {}, "base_id must be non-empty without whitespace: 'a b'"),
    (MonthWindow, ("2020-13",), {},
     "invalid month '2020-13': expected YYYY-MM with MM in 01..12"),
    (MonthWindow, (), {"end": "2007-3"},
     "invalid month '2007-3': expected YYYY-MM with MM in 01..12"),
    (MonthWindow, ("2021-01", "2020-01"), {}, "window start 2021-01 is after end 2020-01"),
    (TrainingConfig, (0,), {}, "learning_rate must be positive, got 0"),
    (TrainingConfig, (), {"iterations": 0}, "iterations must be >= 1, got 0"),
    (TrainingConfig, (), {"l2": -1}, "l2 must be non-negative, got -1"),
    (TrainingConfig, (0.1, 5, 0.0, 1.0), {}, "threshold must lie in (0, 1), got 1.0"),
    (HostRule, ("regex", "x"), {}, "unknown rule kind 'regex'"),
    (HostRule, ("suffix", "github.io"), {}, "suffix rule must start with '.': 'github.io'"),
    (HostRule, (), {"kind": "first-label", "host": "git.lab"},
     "first-label rule must not hold '.': 'git.lab'"),
    (HostRule, ("exact", ""), {}, "exact rule must name a host: ''"),
    (Classification, (Label.OADS, Provenance.HEURISTIC_PDF, 0.0), {},
     "a heuristic verdict is Non-OADS with score 0.0, got Classification("
     "label=<Label.OADS: 'OADS'>, provenance=<Provenance.HEURISTIC_PDF: 'heuristic_pdf'>, "
     "score=0.0)"),
])
def test_checks_give_the_same_messages(cls, args, kwargs, message):
    with pytest.raises(ValueError) as exc:
        cls(*args, **kwargs)
    assert str(exc.value) == message


def test_defaults():
    assert MonthWindow() == MonthWindow("2007-04", "2021-12")
    assert TrainingConfig() == TrainingConfig(0.1, 500, 1e-3, 0.5, 0)
    assert AggregateConfig() == AggregateConfig(CategoryPolicy.GHP_FORCES_OADS, 50)
    assert CorpusAggregate().publications == CorpusAggregate().mentions == Counter()
    assert make(TrainedModel).training == TrainingConfig(seed=3)
    assert TrainedModel({}, [0.0] * 6, 0.0, 0.5).training == TrainingConfig()
