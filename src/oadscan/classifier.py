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
import re
from collections import Counter
from dataclasses import asdict, dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

from .extraction import MentionRecord, UriMention
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
    "write_labeled_file",
]


class Label(Enum):
    OADS = "OADS"
    NON_OADS = "Non-OADS"


class Provenance(Enum):
    HEURISTIC_PUBLISHER = "heuristic_publisher"
    HEURISTIC_PDF = "heuristic_pdf"
    LEARNED = "learned"


@dataclass(frozen=True)
class Classification:
    label: Label
    provenance: Provenance
    score: float

    def __post_init__(self) -> None:
        if self.provenance is not Provenance.LEARNED and (
            self.label is not Label.NON_OADS or self.score != 0.0
        ):
            raise ValueError(f"a heuristic verdict is Non-OADS with score 0.0, got {self}")


@dataclass(frozen=True)
class LabeledExample:
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
) -> Classification | None:
    """Apply the rule layer; None defers the mention to the learned model."""
    if parsed.in_domains(denylist):
        return Classification(Label.NON_OADS, Provenance.HEURISTIC_PUBLISHER, 0.0)
    if parsed.path.lower().endswith(".pdf"):
        return Classification(Label.NON_OADS, Provenance.HEURISTIC_PDF, 0.0)
    return None


# --- featurizer ----------------------------------------------------------

_TOKEN_RE = re.compile(r"[a-z0-9_]+")
_URI_PLACEHOLDER = " _url_ "


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


def _sparse_counts(context: str, parsed: ParsedUri) -> Counter[str]:
    """The sparse features: context tokens with the URI masked, plus the
    URI's ``host:`` and ``tld:`` features, with raw counts."""
    uri = parsed.uri
    masked = context
    if uri:
        masked = masked.replace(uri, _URI_PLACEHOLDER)
        head, sep, tail = uri.partition("://")
        if sep:
            masked = masked.replace(tail, _URI_PLACEHOLDER)
    counts: Counter[str] = Counter(_TOKEN_RE.findall(masked.lower()))

    host = parsed.host
    if host is not None:
        counts["host:" + host] += 1
        label = host.rsplit(".", 1)[-1]
        if label and label != host:
            counts["tld:" + label] += 1
    return counts


def _fixed_features(parsed: ParsedUri) -> tuple[float, ...]:
    """One slot per ``FIXED_FEATURE_NAMES`` entry: the path keywords, then https."""
    path = parsed.path.lower()
    fixed = [1.0 if kw in path else 0.0 for kw in PATH_KEYWORDS]
    fixed.append(1.0 if parsed.uri.lower().startswith("https://") else 0.0)
    return tuple(fixed)


def _terms(
    vocabulary: dict[str, int], counts: Counter[str], parsed: ParsedUri
) -> list[tuple[int, float]]:
    """The model's nonzero terms for one mention as (weight index, value):
    the in-vocabulary tokens of ``counts`` in sorted order, then the
    nonzero fixed slots.  Training and scoring both sum in this order, so
    a score is bit-identical however it is reached."""
    terms = [(vocabulary[t], counts[t]) for t in sorted([t for t in counts if t in vocabulary])]
    for idx, value in enumerate(_fixed_features(parsed), start=len(vocabulary)):
        if value:
            terms.append((idx, value))
    return terms


# --- model ---------------------------------------------------------------

MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class TrainingConfig:
    learning_rate: float = 0.1
    iterations: int = 500
    l2: float = 1e-3
    threshold: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.l2 < 0:
            raise ValueError(f"l2 must be non-negative, got {self.l2}")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must lie in (0, 1), got {self.threshold}")


@dataclass
class TrainedModel:
    """Linear classifier over vocabulary tokens plus fixed URI features.

    ``weights`` has one slot per vocabulary entry followed by one per
    fixed URI feature.  Immutable by convention once constructed.
    """

    vocabulary: dict[str, int]
    weights: list[float]
    bias: float
    threshold: float
    training: TrainingConfig = field(default_factory=TrainingConfig)

    def to_json(self) -> str:
        payload = {
            "format_version": MODEL_FORMAT_VERSION,
            "featurizer": _FEATURIZER_BLOCK,
            "training": asdict(self.training),
            "vocabulary": self.vocabulary,
            "weights": self.weights,
            "bias": self.bias,
            "threshold": self.threshold,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def save(self, path: str | Path) -> None:
        atomic_write_text(path, self.to_json())

    @classmethod
    def from_json(cls, text: str) -> "TrainedModel":
        """Parse a model file; any malformed file is a ValueError."""
        data = json.loads(text)
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
        expected = len(model.vocabulary) + len(FIXED_FEATURE_NAMES)
        if len(model.weights) != expected:
            raise ValueError(
                f"weight vector length {len(model.weights)} != vocabulary+fixed {expected}"
            )
        return model

    @classmethod
    def load(cls, path: str | Path) -> "TrainedModel":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


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
    vocabulary = {tok: i for i, tok in enumerate(sorted(set().union(*counts)))}
    n_weights = len(vocabulary) + len(FIXED_FEATURE_NAMES)

    rows = [_terms(vocabulary, c, p) for c, p in zip(counts, parsed)]
    targets = [1.0 if ex.label is Label.OADS else 0.0 for ex in examples]

    weights = [0.0] * n_weights
    bias = 0.0
    n = float(len(examples))
    for _ in range(config.iterations):
        grad_w = [0.0] * n_weights
        grad_b = 0.0
        for row, y in zip(rows, targets):
            z = bias
            for idx, value in row:
                z += weights[idx] * value
            err = _sigmoid(z) - y
            for idx, value in row:
                grad_w[idx] += err * value
            grad_b += err
        lr = config.learning_rate
        for j in range(n_weights):
            weights[j] -= lr * (grad_w[j] / n + config.l2 * weights[j])
        bias -= lr * (grad_b / n)

    return TrainedModel(
        vocabulary=vocabulary,
        weights=weights,
        bias=bias,
        threshold=config.threshold,
        training=config,
    )


def score_text(model: TrainedModel, context: str, parsed: ParsedUri) -> float:
    """OADS probability for a (context, URI) pair under the model."""
    weights = model.weights
    z = model.bias
    for idx, value in _terms(model.vocabulary, _sparse_counts(context, parsed), parsed):
        z += weights[idx] * value
    return _sigmoid(z)


def classify_hybrid(
    mention: UriMention | MentionRecord,
    model: TrainedModel,
    denylist: frozenset[str] = DEFAULT_DENYLIST,
    parsed: ParsedUri | None = None,
) -> Classification:
    """Heuristic verdict when a rule matches, learned verdict otherwise;
    the learned verdict is OADS at a score >= the model's threshold.

    The mention's URI is parsed once (unless ``parsed`` is given) and both
    layers read that parse.
    """
    parsed = parse_uri(parsed or mention.uri)
    verdict = classify_heuristic(parsed, denylist)
    if verdict is not None:
        return verdict
    score = score_text(model, mention.context, parsed)
    label = Label.OADS if score >= model.threshold else Label.NON_OADS
    return Classification(label, Provenance.LEARNED, score)


# --- evaluation ----------------------------------------------------------


@dataclass(frozen=True)
class EvalMetrics:
    """Accuracy, per-label precision/recall/F1, and the confusion counts.

    OADS is the positive class: tp counts OADS examples predicted OADS,
    fn counts OADS predicted Non-OADS, fp counts Non-OADS predicted OADS.
    Ratios with a zero denominator are reported as 0.0.
    """

    accuracy: float
    per_label: dict[str, dict[str, float]]
    confusion: dict[str, int]

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "per_label": self.per_label,
            "confusion": self.confusion,
        }


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
# Line format: label<TAB>uri<TAB>context.  Contexts are stored raw, one
# record per line; the writer flattens internal newlines/tabs to spaces.

_LABEL_ALIASES = {
    "oads": Label.OADS,
    "non-oads": Label.NON_OADS,
    "nonoads": Label.NON_OADS,
}


def read_labeled_file(path: str | Path) -> list[LabeledExample]:
    examples: list[LabeledExample] = []
    with open(path, encoding="utf-8") as fh:
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
    return examples


def write_labeled_file(path: str | Path, examples: Iterable[LabeledExample]) -> None:
    lines = []
    for ex in examples:
        context = re.sub(r"[\t\n\r]+", " ", ex.context)
        lines.append(f"{ex.label.value}\t{ex.uri}\t{context}")
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))
