"""Reference training: the row-by-row gradient-descent loop, kept as an oracle.

``tests/test_classifier.py`` checks that ``oadscan.classifier.train``
writes exactly the model file this ``train`` writes.  The loop here scores
every example, duplicates included, and adds each term's product into its
weight's gradient as it walks the rows, with one multiply per term.

The featurizer, the sigmoid and the model record are imported from the
package; the loop lives here.
"""

from __future__ import annotations

from typing import Sequence

from oadscan.classifier import (
    FIXED_FEATURE_NAMES,
    Label,
    LabeledExample,
    TrainedModel,
    TrainingConfig,
    TrainingError,
    _sigmoid,
    _sparse_counts,
    _terms,
)
from oadscan.scope import parse_uri


def train(
    examples: Sequence[LabeledExample], config: TrainingConfig = TrainingConfig()
) -> TrainedModel:
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
    lr, l2 = config.learning_rate, config.l2
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
        for j in range(n_weights):
            weights[j] -= lr * (grad_w[j] / n + l2 * weights[j])
        bias -= lr * (grad_b / n)

    return TrainedModel(
        vocabulary=vocabulary,
        weights=weights,
        bias=bias,
        threshold=config.threshold,
        training=config,
    )
