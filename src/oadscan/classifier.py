"""Hybrid OADS / non-OADS classifier.

Two layers: heuristic rules first (publisher denylist, ``.pdf`` paths),
then a learned linear model over context-sentence tokens and URI lexical
features.  A heuristic verdict short-circuits; the model never sees those
mentions.

Training is full-batch gradient descent on the regularized logistic loss,
implemented with plain floats and fixed-order accumulation so that the
same data, config, and seed always produce a byte-identical model file.
"""

from __future__ import annotations

import json
import math
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Container, NamedTuple, Sequence

from .fileio import atomic_write_text, json_object, load_json, string_list
from .scope import ParsedUri, parse_uri

__all__ = [
    "Label",
    "Provenance",
    "Classification",
    "LabeledExample",
    "PATH_KEYWORDS",
    "FIXED_FEATURE_NAMES",
    "TrainingConfig",
    "TrainedModel",
    "EvalMetrics",
    "TrainingError",
    "LabeledFileError",
    "DEFAULT_DENYLIST",
    "load_denylist",
    "classify_heuristic",
    "train",
    "score_text",
    "classify_hybrid",
    "evaluate",
    "read_labeled_file",
]


class Label(Enum):
    OADS = "OADS"
    NON_OADS = "Non-OADS"


class Provenance(Enum):
    __hash__ = object.__hash__  # equality is identity; skip Enum's Python-level hash

    HEURISTIC_PUBLISHER = "heuristic_publisher"
    HEURISTIC_PDF = "heuristic_pdf"
    LEARNED = "learned"


# typing.NamedTuple forbids a __new__ of its own, so a record that checks its
# fields subclasses its NamedTuple and checks them there.
class _Classification(NamedTuple):
    label: Label
    provenance: Provenance
    score: float


class Classification(_Classification):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> Classification:
        self = super().__new__(cls, *args, **kwargs)
        if self.provenance is not Provenance.LEARNED and (
            self.label is not Label.NON_OADS or self.score != 0.0
        ):
            raise ValueError(f"a heuristic verdict is Non-OADS with score 0.0, got {self}")
        return self


class LabeledExample(NamedTuple):
    context: str
    uri: str
    label: Label


class TrainingError(ValueError):
    """Training input unusable: empty, or only one label present."""


class LabeledFileError(ValueError):
    """A labeled-example record could not be parsed."""


# Publisher hosts removed by the heuristic layer; matching is by host
# suffix, so springer.com also covers link.springer.com.  The shipped set
# holds the named publishers; deployments extend it via a denylist file.
DEFAULT_DENYLIST = frozenset({"springer.com", "wiley.com", "sagepub.com"})


def load_denylist(path: str | Path) -> frozenset[str]:
    """Publisher hosts from a JSON file: a list of host names, or an object
    whose one key ``publisher_hosts`` holds that list."""
    return load_json(path, _denylist)


def _denylist(value: object) -> frozenset[str]:
    if isinstance(value, dict):
        value = json_object(value, "denylist", ["publisher_hosts"],
                            required=["publisher_hosts"])["publisher_hosts"]
    return frozenset(h.lower() for h in string_list(value, "denylist"))


def classify_heuristic(
    parsed: ParsedUri, denylist: frozenset[str] = DEFAULT_DENYLIST
) -> Provenance | None:
    """The rule that labels the mention Non-OADS, if any; None defers the
    mention to the learned model."""
    if parsed.in_domains(denylist):
        return Provenance.HEURISTIC_PUBLISHER
    if parsed.path.lower().endswith(".pdf"):
        return Provenance.HEURISTIC_PDF
    return None


# --- featurizer ----------------------------------------------------------

_URI_PLACEHOLDER = " _url_ "
# Features are bytes: their text in UTF-8, lone surrogates kept, so they
# sort as their code points do.  The context's tokens are the runs of
# [a-z0-9_] in its lowercased text; every byte outside the class maps to
# a space, and a non-ASCII code point encodes to bytes >= 0x80 only, so it
# cannot join or split a token.
_TOKEN_BYTES = bytes(b if chr(b) in "abcdefghijklmnopqrstuvwxyz0123456789_" else 0x20
                     for b in range(256))


# Path substrings flagged as fixed URI features, one weight slot each,
# followed by the https flag.
PATH_KEYWORDS = ("code", "data", "dataset", "software", "download")
FIXED_FEATURE_NAMES = tuple(f"path_kw:{k}" for k in PATH_KEYWORDS) + ("scheme:https",)

# The featurizer block every model file carries; a file whose block
# differs was made by some other featurizer and cannot be scored here.
_FEATURIZER_BLOCK = {
    "host_feature_prefix": "host:",
    "path_keywords": list(PATH_KEYWORDS),
    "tld_feature_prefix": "tld:",
}


def _sparse_counts(
    context: str, parsed: ParsedUri, vocabulary: Container[bytes] | None = None
) -> dict[bytes, int]:
    """The sparse features, as bytes: context tokens with the URI masked,
    plus the URI's ``host:`` and ``tld:`` features, with raw counts; given
    a vocabulary, only the features in it."""
    uri = parsed.uri
    masked = context
    if uri:
        masked = masked.replace(uri, _URI_PLACEHOLDER)
        tail = uri.partition("://")[2]
        if tail:  # an empty tail would mask every gap between characters
            masked = masked.replace(tail, _URI_PLACEHOLDER)
    features = masked.lower().encode("utf-8", "surrogatepass").translate(_TOKEN_BYTES).split()
    if parsed.host is not None:
        features.append(("host:" + parsed.host).encode("utf-8", "surrogatepass"))
        if (tld := parsed.tld) is not None:
            features.append(("tld:" + tld).encode("utf-8", "surrogatepass"))
    counts: dict[bytes, int] = {}
    get = counts.get
    for feature in features:
        if vocabulary is None or feature in vocabulary:
            counts[feature] = get(feature, 0) + 1
    return counts


def _fixed_slots(parsed: ParsedUri) -> list[int]:
    """The ``FIXED_FEATURE_NAMES`` slots that are 1.0 for this URI, in
    order: the path keywords its path holds, then https; the rest are 0.0."""
    path = parsed.path.lower()
    slots = []
    for k, keyword in enumerate(PATH_KEYWORDS):
        if keyword in path:
            slots.append(k)
    if parsed.uri.lower().startswith("https://"):
        slots.append(len(PATH_KEYWORDS))
    return slots


def _terms(
    vocabulary: dict[bytes, int], counts: dict[bytes, int], parsed: ParsedUri
) -> list[tuple[int, float]]:
    """The model's nonzero terms for one mention as (weight index, value):
    the features of ``counts``, all in the vocabulary, in sorted order,
    then the fixed slots that are 1.0.  Training sums in this order, and
    ``score_text`` sums in it too, so a score is bit-identical however it
    is reached."""
    terms = [(vocabulary[t], count) for t, count in sorted(counts.items())]
    terms += [(len(vocabulary) + k, 1.0) for k in _fixed_slots(parsed)]
    return terms


# --- model ---------------------------------------------------------------

MODEL_FORMAT_VERSION = 1


class _TrainingConfig(NamedTuple):
    learning_rate: float = 0.1
    iterations: int = 500
    l2: float = 1e-3
    threshold: float = 0.5
    seed: int = 0


class TrainingConfig(_TrainingConfig):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> TrainingConfig:
        self = super().__new__(cls, *args, **kwargs)
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.l2 < 0:
            raise ValueError(f"l2 must be non-negative, got {self.l2}")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must lie in (0, 1), got {self.threshold}")
        return self


class _TrainedModel(NamedTuple):
    vocabulary: dict[str, int]
    weights: list[float]
    bias: float
    threshold: float
    training: TrainingConfig = TrainingConfig()


class TrainedModel(_TrainedModel):
    """Linear classifier over vocabulary tokens plus fixed URI features.

    ``weights`` has one slot per vocabulary entry followed by one per
    fixed URI feature.  Not slotted, so that ``_weight_table`` has a
    ``__dict__`` to be kept in.
    """

    @cached_property
    def _weight_table(self) -> tuple[dict[bytes, float], list[float]]:
        """Each vocabulary feature's weight, keyed by the feature's bytes,
        and the fixed slots' weights; built on the first score, so the
        vocabulary and weights must not change in place after it."""
        return ({feature.encode("utf-8", "surrogatepass"): self.weights[i]
                 for feature, i in self.vocabulary.items()},
                self.weights[len(self.vocabulary):])

    def to_json(self) -> str:
        payload = {
            "format_version": MODEL_FORMAT_VERSION,
            "featurizer": _FEATURIZER_BLOCK,
            "training": self.training._asdict(),
            "vocabulary": self.vocabulary,
            "weights": self.weights,
            "bias": self.bias,
            "threshold": self.threshold,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def save(self, path: str | Path) -> None:
        atomic_write_text(path, self.to_json())

    @classmethod
    def load(cls, path: str | Path) -> "TrainedModel":
        """Load a model file (a leading BOM is skipped); an error names the file."""
        return load_json(path, cls._from_value)

    @classmethod
    def _from_value(cls, data: object) -> "TrainedModel":
        if not isinstance(data, dict):
            raise ValueError(f"model file holds a JSON {type(data).__name__}, not an object")
        try:
            if data["format_version"] != MODEL_FORMAT_VERSION:
                raise ValueError(f"model format_version {data['format_version']!r} "
                                 f"is not {MODEL_FORMAT_VERSION}")
            if data["featurizer"] != _FEATURIZER_BLOCK:
                raise ValueError(
                    f"model featurizer {data['featurizer']!r} is not this featurizer's "
                    f"{_FEATURIZER_BLOCK!r}"
                )
            model = cls(
                vocabulary=dict(data["vocabulary"]),
                weights=[float(w) for w in data["weights"]],
                bias=float(data["bias"]),
                threshold=float(data["threshold"]),
                training=TrainingConfig(**data["training"]),
            )
        except KeyError as exc:
            raise ValueError(f"model file has no {exc} key") from None
        except TypeError as exc:
            # a value of the wrong type, or an unknown training key
            raise ValueError(f"malformed model file: {exc}") from None
        indices = model.vocabulary.values()
        if any(type(i) is not int for i in indices) or set(indices) != set(range(len(indices))):
            raise ValueError(f"vocabulary indices are not the ints 0..{len(indices) - 1}, "
                             "each once")
        expected = len(model.vocabulary) + len(FIXED_FEATURE_NAMES)
        if len(model.weights) != expected:
            raise ValueError(
                f"weight vector length {len(model.weights)} != vocabulary+fixed {expected}"
            )
        return model


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


def _unzip(terms: list[tuple[int, float]]) -> tuple[list[int], list[float] | None]:
    """The indices and values of (index, value) terms; values None if all are 1."""
    values = [value for _, value in terms]
    return [idx for idx, _ in terms], None if all(v == 1 for v in values) else values


def _dot(start: float, xs: list[float], terms: tuple[list[int], list[float] | None]) -> float:
    """``start`` plus ``xs[idx] * value`` for each term, added left to right; a
    unit term is added as it is (``x * 1 == x``).  Not ``sum``: from Python 3.12
    it compensates float rounding, so the model bytes would depend on the version."""
    total = start
    indices, values = terms
    if values is None:
        for idx in indices:
            total += xs[idx]
    else:
        for idx, value in zip(indices, values):
            total += xs[idx] * value
    return total


def train(
    examples: Sequence[LabeledExample], config: TrainingConfig = TrainingConfig()
) -> TrainedModel:
    """Fit the logistic model by full-batch gradient descent.

    The vocabulary is the sorted set of all tokens seen in the training
    data; accumulation order is fixed, so repeated runs with the same
    inputs yield bit-identical weights.  The seed is recorded in the model
    for provenance (the zero-initialized full-batch fit itself draws no
    randomness).
    """
    examples = list(examples)
    if not examples:
        raise TrainingError("no training examples")
    labels = {ex.label for ex in examples}
    if len(labels) < 2:
        only = next(iter(labels)).value
        raise TrainingError(f"training data contains a single class: {only}")

    parsed = [parse_uri(ex.uri) for ex in examples]
    counts = [_sparse_counts(ex.context, p) for ex, p in zip(examples, parsed)]
    index = {tok: i for i, tok in enumerate(sorted(set().union(*counts)))}
    n_weights = len(index) + len(FIXED_FEATURE_NAMES)

    # Each distinct row is scored once; row_ids maps every example to its row.
    distinct: dict[tuple, int] = {}
    row_ids = [distinct.setdefault(tuple(_terms(index, c, p)), len(distinct))
               for c, p in zip(counts, parsed)]
    rows = list(distinct)
    # Each weight's terms as (example, value), in example order: the order
    # in which the gradient adds them.
    by_weight: list[list[tuple[int, float]]] = [[] for _ in range(n_weights)]
    for r, k in enumerate(row_ids):
        for idx, value in rows[k]:
            by_weight[idx].append((r, value))
    rows, columns = [_unzip(row) for row in rows], [_unzip(terms) for terms in by_weight]
    targets = [1.0 if ex.label is Label.OADS else 0.0 for ex in examples]

    weights = [0.0] * n_weights
    bias = 0.0
    n = float(len(examples))
    lr, l2 = config.learning_rate, config.l2
    for _ in range(config.iterations):
        scores = [_sigmoid(_dot(bias, weights, row)) for row in rows]
        errs = [scores[k] - y for k, y in zip(row_ids, targets)]
        weights = [w - lr * (_dot(0.0, errs, column) / n + l2 * w)
                   for w, column in zip(weights, columns)]
        bias -= lr * (_dot(0.0, errs, (range(len(errs)), None)) / n)

    return TrainedModel(
        vocabulary={tok.decode("utf-8", "surrogatepass"): i for tok, i in index.items()},
        weights=weights,
        bias=bias,
        threshold=config.threshold,
        training=config,
    )


def score_text(model: TrainedModel, context: str, parsed: ParsedUri) -> float:
    """OADS probability for a (context, URI) pair under the model."""
    table, fixed = model._weight_table
    counts = _sparse_counts(context, parsed, table)
    z = model.bias
    for feature in sorted(counts):  # the order of _terms
        z += table[feature] * counts[feature]
    for k in _fixed_slots(parsed):
        z += fixed[k]  # times the slot's 1.0
    return _sigmoid(z)


def classify_hybrid(
    mention, model: TrainedModel, denylist: frozenset[str] = DEFAULT_DENYLIST
) -> Classification:
    """Heuristic verdict when a rule matches, learned verdict otherwise;
    the learned verdict is OADS at a score >= the model's threshold.

    Only the mention's ``uri`` and ``context`` are read.  Its URI is parsed
    once and both layers read that parse.
    """
    parsed = parse_uri(mention.uri)
    rule = classify_heuristic(parsed, denylist)
    if rule is not None:
        return Classification(Label.NON_OADS, rule, 0.0)
    score = score_text(model, mention.context, parsed)
    label = Label.OADS if score >= model.threshold else Label.NON_OADS
    return Classification(label, Provenance.LEARNED, score)


# --- evaluation ----------------------------------------------------------


class EvalMetrics(NamedTuple):
    """Accuracy, per-label precision/recall/F1, and the confusion counts.

    OADS is the positive class: tp counts OADS examples predicted OADS,
    fn counts OADS predicted Non-OADS, fp counts Non-OADS predicted OADS.
    Ratios with a zero denominator are reported as 0.0.
    """

    accuracy: float
    per_label: dict[str, dict[str, float]]
    confusion: dict[str, int]


def _safe_div(num: float, den: float) -> float:
    return num / den if den else 0.0


def evaluate(model: TrainedModel, examples: Sequence[LabeledExample]) -> EvalMetrics:
    if not examples:
        raise ValueError("no examples to evaluate")
    tp = fp = fn = tn = 0
    for ex in examples:
        score = score_text(model, ex.context, parse_uri(ex.uri))
        predicted = Label.OADS if score >= model.threshold else Label.NON_OADS
        if ex.label is Label.OADS:
            if predicted is Label.OADS:
                tp += 1
            else:
                fn += 1
        else:
            if predicted is Label.OADS:
                fp += 1
            else:
                tn += 1
    total = tp + fp + fn + tn
    per_label = {}
    for name, (correct, pred_count, true_count) in {
        Label.OADS.value: (tp, tp + fp, tp + fn),
        Label.NON_OADS.value: (tn, tn + fn, tn + fp),
    }.items():
        precision = _safe_div(correct, pred_count)
        recall = _safe_div(correct, true_count)
        f1 = _safe_div(2 * precision * recall, precision + recall)
        per_label[name] = {"precision": precision, "recall": recall, "f1": f1}
    return EvalMetrics(
        accuracy=_safe_div(tp + tn, total),
        per_label=per_label,
        confusion={"tp": tp, "fp": fp, "fn": fn, "tn": tn},
    )


# --- labeled-example files -----------------------------------------------
#
# Line format: label<TAB>uri<TAB>context, one record per line.  A leading
# UTF-8 byte order mark is skipped.

_LABEL_ALIASES = {
    "oads": Label.OADS,
    "non-oads": Label.NON_OADS,
    "nonoads": Label.NON_OADS,
}


def read_labeled_file(path: str | Path) -> list[LabeledExample]:
    examples: list[LabeledExample] = []
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t", 2)
            if len(fields) != 3:
                raise LabeledFileError(f"{path}:{lineno}: expected 3 tab-separated fields")
            raw_label, uri, context = fields
            label = _LABEL_ALIASES.get(raw_label.strip().lower())
            if label is None:
                raise LabeledFileError(f"{path}:{lineno}: unknown label {raw_label!r}")
            examples.append(LabeledExample(context, uri, label))
    if not examples:
        raise LabeledFileError(f"no examples in {path}")
    return examples
