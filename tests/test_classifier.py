import json

import pytest
from hypothesis import given, settings, strategies as st

import oadscan.classifier as classifier_mod
import train_reference
from conftest import make_mention
from fixture_labels import write_labeled_file
from oadscan.classifier import (
    Classification,
    FIXED_FEATURE_NAMES,
    Label,
    LabeledExample,
    LabeledFileError,
    Provenance,
    TrainedModel,
    TrainingConfig,
    TrainingError,
    _fixed_slots,
    _sparse_counts,
    classify_heuristic,
    classify_hybrid,
    evaluate,
    read_labeled_file,
    score_text,
    train,
)
from oadscan.scope import parse_uri


class TestClassification:
    def test_heuristic_verdict_is_non_oads_with_zero_score(self):
        for label, score in ((Label.OADS, 0.0), (Label.NON_OADS, 0.5)):
            for provenance in (Provenance.HEURISTIC_PDF, Provenance.HEURISTIC_PUBLISHER):
                with pytest.raises(ValueError):
                    Classification(label, provenance, score)
        assert Classification(Label.OADS, Provenance.LEARNED, 0.9).score == 0.9


class TestHeuristics:
    def test_publisher_denylist(self, fixture_model):
        uri = "https://link.springer.com/article/x"
        assert classify_heuristic(parse_uri(uri)) is Provenance.HEURISTIC_PUBLISHER
        c = classify_hybrid(make_mention(uri), fixture_model)
        assert c.label is Label.NON_OADS
        assert c.provenance is Provenance.HEURISTIC_PUBLISHER
        assert c.score == 0.0

    def test_pdf_suffix_upper_and_query(self):
        for uri in (
            "https://example.org/paper.pdf",
            "https://example.org/paper.PDF",
            "https://example.org/paper.Pdf?download=1",
            "https://example.org/dir/paper.pdf#page=3",
        ):
            assert classify_heuristic(parse_uri(uri)) is Provenance.HEURISTIC_PDF, uri

    def test_pdf_in_query_only_does_not_match(self):
        assert classify_heuristic(parse_uri("https://example.org/view?file=a.pdf")) is None

    def test_no_rule_defers(self):
        assert classify_heuristic(parse_uri("https://github.com/user/repo")) is None

    def test_denylist_matches_host_suffix_not_substring(self):
        for uri in ("https://www.wiley.com/en-us/x", "https://journals.sagepub.com/doi/1"):
            assert classify_heuristic(parse_uri(uri)) is Provenance.HEURISTIC_PUBLISHER, uri
        # substring but not a label-boundary suffix
        assert classify_heuristic(parse_uri("https://notspringer.com/x")) is None
        assert classify_heuristic(parse_uri("https://springer.com.evil.org/x")) is None


class TestFeaturize:
    def test_context_tokens_counted_and_uri_masked(self):
        uri = "http://ibm.biz/multishapeinsertion"
        tokens = _sparse_counts(f"The dataset is available at {uri}.", parse_uri(uri))
        assert tokens[b"dataset"] == 1.0
        assert tokens[b"available"] == 1.0
        assert b"multishapeinsertion" not in tokens
        assert tokens[b"host:ibm.biz"] == 1.0
        assert tokens[b"tld:biz"] == 1.0

    def test_empty_context_gives_only_uri_features(self):
        parsed = parse_uri("https://a.b/c")
        assert dict(_sparse_counts("", parsed)) == {b"host:a.b": 1.0, b"tld:b": 1.0}
        assert _fixed_slots(parsed) == [FIXED_FEATURE_NAMES.index("scheme:https")]

    def test_path_keyword_flags(self):
        slots = _fixed_slots(parse_uri("https://x.org/datasets/download/v1"))
        assert [FIXED_FEATURE_NAMES[k] for k in slots] == [
            "path_kw:data", "path_kw:dataset", "path_kw:download", "scheme:https"]

    def test_deterministic(self):
        context, parsed = "Some context with https://x.org/a inside.", parse_uri("https://x.org/a")
        assert _sparse_counts(context, parsed) == _sparse_counts(context, parsed)
        assert _fixed_slots(parsed) == _fixed_slots(parsed)

    def test_token_count_scales(self):
        assert _sparse_counts("data data data", parse_uri(""))[b"data"] == 3.0

    def test_uri_with_nothing_after_the_scheme_masks_only_itself(self):
        # Masking the empty text after "://" would put _url_ in every gap.
        parsed = parse_uri("https://")
        assert _sparse_counts("see data here", parsed) == {b"see": 1, b"data": 1, b"here": 1}
        assert _sparse_counts("at https://.", parsed) == {b"at": 1, b"_url_": 1}
        model = train([LabeledExample("see data here", "https://", Label.OADS),
                       LabeledExample("see", "https://x.org", Label.NON_OADS)],
                      TrainingConfig(iterations=1))
        assert sorted(model.vocabulary) == ["data", "here", "host:x.org", "see", "tld:org"]


# Few words and URIs, so that rows repeat and a context can hold a word twice
# (a count of 2); an empty context leaves only the URI's features.
_EXAMPLES = st.builds(
    LabeledExample,
    context=st.lists(st.sampled_from(["data", "code", "see", "video", "the"]),
                     max_size=4).map(" ".join),
    uri=st.sampled_from(["https://zenodo.org/record/1", "http://github.com/a/code",
                         "https://youtu.be/x", "http://example.org/dataset/download", ""]),
    label=st.sampled_from(Label),
)
LABELED_SETS = st.tuples(
    _EXAMPLES.map(lambda ex: ex._replace(label=Label.OADS)),
    _EXAMPLES.map(lambda ex: ex._replace(label=Label.NON_OADS)),
    st.lists(_EXAMPLES, max_size=12),
).flatmap(lambda parts: st.permutations([parts[0], parts[1], *parts[2]]))
TRAINING_CONFIGS = st.builds(
    TrainingConfig,
    learning_rate=st.sampled_from([0.1, 0.5, 1.7]),
    iterations=st.integers(1, 40),
    l2=st.sampled_from([0.0, 1e-3, 0.05]),
    threshold=st.just(0.5),
    seed=st.just(0),
)


class TestTrain:
    def test_separable_pair(self):
        examples = [
            LabeledExample("The dataset is released here.", "https://zenodo.org/record/1", Label.OADS),
            LabeledExample("Watch the video online.", "https://youtu.be/x", Label.NON_OADS),
        ]
        model = train(examples)
        for ex in examples:
            score = score_text(model, ex.context, parse_uri(ex.uri))
            assert (score >= model.threshold) == (ex.label is Label.OADS)

    def test_seed_set_fully_learned(self, labeled_seed):
        model = train(labeled_seed)
        metrics = evaluate(model, labeled_seed)
        assert metrics.accuracy == 1.0

    def test_single_class_rejected(self):
        with pytest.raises(TrainingError, match="single class"):
            train([LabeledExample("x", "https://a.b/c", Label.OADS)])

    def test_empty_rejected(self):
        with pytest.raises(TrainingError):
            train([])

    def test_byte_identical_across_runs(self, labeled_200):
        a = train(labeled_200)
        b = train(labeled_200)
        assert a.to_json() == b.to_json()

    def test_matches_the_reference_on_the_seed_set(self, labeled_200):
        assert train(labeled_200).to_json() == train_reference.train(labeled_200).to_json()

    @settings(max_examples=150, deadline=None)
    @given(examples=LABELED_SETS, config=TRAINING_CONFIGS)
    def test_matches_the_row_by_row_reference(self, examples, config):
        assert train(examples, config).to_json() == train_reference.train(examples, config).to_json()

    def test_weight_vector_length(self, fixture_model):
        expected = len(fixture_model.vocabulary) + len(FIXED_FEATURE_NAMES)
        assert len(fixture_model.weights) == expected


class TestPredict:
    def test_seed_sentences_with_fixture_model(self, fixture_model, labeled_seed):
        # The seed sentences are not part of the training fixture set.
        for ex in labeled_seed:
            c = classify_hybrid(make_mention(ex.uri, ex.context), fixture_model)
            assert c.label is ex.label, ex.uri
            assert c.provenance is Provenance.LEARNED

    def test_deterministic(self, fixture_model):
        m = make_mention("https://zenodo.org/record/9", "The dataset is available here.")
        assert classify_hybrid(m, fixture_model) == classify_hybrid(m, fixture_model)

    def test_score_in_unit_interval(self, fixture_model, labeled_200):
        for ex in labeled_200[:50]:
            assert 0.0 <= score_text(fixture_model, ex.context, parse_uri(ex.uri)) <= 1.0

    def test_threshold_boundary_assigns_oads(self):
        model = TrainedModel(vocabulary={}, weights=[0.0] * 6, bias=0.0, threshold=0.5)
        c = classify_hybrid(make_mention("", ""), model)
        assert c.score == 0.5
        assert c.label is Label.OADS

    def test_empty_vocabulary_scores_sigmoid_bias(self):
        model = TrainedModel(vocabulary={}, weights=[0.0] * 6, bias=0.0, threshold=0.75)
        c = classify_hybrid(make_mention("anything at all", "http://x.org/a"), model)
        assert c.score == 0.5
        assert c.label is Label.NON_OADS

    def test_score_monotone_in_positive_token(self, fixture_model):
        # "dataset" carries positive weight in the fixture model.
        idx = fixture_model.vocabulary["dataset"]
        assert fixture_model.weights[idx] > 0
        scores = [
            score_text(fixture_model, " ".join(["dataset"] * k), parse_uri("http://x.org/a"))
            for k in range(6)
        ]
        assert all(b >= a for a, b in zip(scores, scores[1:]))


class TestHybrid:
    def test_heuristic_short_circuits_model(self, fixture_model, monkeypatch):
        calls = []
        real = classifier_mod.score_text
        monkeypatch.setattr(
            classifier_mod, "score_text", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        m = make_mention("https://www.sciencedirect.com/science/article/x.pdf")
        c = classifier_mod.classify_hybrid(m, fixture_model)
        assert c.label is Label.NON_OADS
        assert c.provenance is Provenance.HEURISTIC_PDF
        assert calls == []

    def test_heuristic_verdict_independent_of_weights(self, fixture_model):
        m = make_mention("https://link.springer.com/article/1")
        scrambled = TrainedModel(
            vocabulary=fixture_model.vocabulary,
            weights=[-w for w in fixture_model.weights],
            bias=fixture_model.bias + 123.0,
            threshold=fixture_model.threshold,
            training=fixture_model.training,
        )
        assert classify_hybrid(m, fixture_model) == classify_hybrid(m, scrambled)

    def test_deferred_mention_uses_model(self, fixture_model):
        m = make_mention("http://ibm.biz/multishapeinsertion",
                         "The dataset is available at http://ibm.biz/multishapeinsertion.")
        c = classify_hybrid(m, fixture_model)
        assert c.provenance is Provenance.LEARNED
        assert c.label is Label.OADS

    def test_empty_context_falls_back_to_uri_features(self, fixture_model):
        c = classify_hybrid(make_mention("https://zenodo.org/record/1", " "), fixture_model)
        assert c.provenance is Provenance.LEARNED


class TestSerialization:
    def test_roundtrip_bit_exact(self, fixture_model):
        clone = TrainedModel.from_json(fixture_model.to_json())
        assert clone.to_json() == fixture_model.to_json()
        assert clone.weights == fixture_model.weights
        assert clone.bias == fixture_model.bias

    def test_roundtrip_preserves_predictions(self, fixture_model, labeled_200):
        clone = TrainedModel.from_json(fixture_model.to_json())
        for ex in labeled_200[:40]:
            parsed = parse_uri(ex.uri)
            assert score_text(clone, ex.context, parsed) == score_text(
                fixture_model, ex.context, parsed
            )

    def test_save_load(self, tmp_path, fixture_model):
        path = tmp_path / "model.json"
        fixture_model.save(path)
        assert TrainedModel.load(path).to_json() == fixture_model.to_json()

    def test_length_mismatch_rejected(self, fixture_model):
        data = json.loads(fixture_model.to_json())
        data["weights"] = data["weights"][:-1]
        with pytest.raises(ValueError, match="length"):
            TrainedModel.from_json(json.dumps(data))

    @pytest.mark.parametrize("key, value", [
        ("path_keywords", ["code", "data"]),
        ("host_feature_prefix", "h:"),
        ("tld_feature_prefix", "t:"),
    ])
    def test_foreign_featurizer_rejected(self, fixture_model, key, value):
        data = json.loads(fixture_model.to_json())
        data["featurizer"][key] = value
        with pytest.raises(ValueError, match="featurizer"):
            TrainedModel.from_json(json.dumps(data))


class TestEvaluate:
    def _constant_model(self, score_high: bool) -> TrainedModel:
        bias = 5.0 if score_high else -5.0
        return TrainedModel(vocabulary={}, weights=[0.0] * 6, bias=bias, threshold=0.5)

    def test_perfect_predictions(self):
        examples = [LabeledExample("x", "https://a.b/c", Label.OADS)] * 4
        metrics = evaluate(self._constant_model(True), examples)
        assert metrics.accuracy == 1.0

    def test_all_wrong(self):
        examples = [LabeledExample("x", "https://a.b/c", Label.OADS)] * 4
        metrics = evaluate(self._constant_model(False), examples)
        assert metrics.accuracy == 0.0

    def test_three_of_four_hand_counted(self):
        # Constant-OADS model against 3 OADS + 1 Non-OADS:
        # tp=3, fp=1, fn=0, tn=0 -> accuracy 0.75.
        examples = [LabeledExample("x", "https://a.b/c", Label.OADS)] * 3 + [
            LabeledExample("y", "https://d.e/f", Label.NON_OADS)
        ]
        metrics = evaluate(self._constant_model(True), examples)
        assert metrics.accuracy == 0.75
        assert metrics.confusion == {"tp": 3, "fp": 1, "fn": 0, "tn": 0}
        assert sum(metrics.confusion.values()) == 4
        assert metrics.per_label[Label.OADS.value]["precision"] == 0.75
        assert metrics.per_label[Label.OADS.value]["recall"] == 1.0
        assert metrics.per_label[Label.NON_OADS.value]["recall"] == 0.0

    def test_empty_rejected(self, fixture_model):
        with pytest.raises(ValueError):
            evaluate(fixture_model, [])


class TestLabeledFile:
    def test_roundtrip(self, tmp_path):
        examples = [
            LabeledExample("The dataset lives here.", "https://a.b/c", Label.OADS),
            LabeledExample("A video.", "https://d.e/f", Label.NON_OADS),
        ]
        path = tmp_path / "labeled.tsv"
        write_labeled_file(path, examples)
        assert read_labeled_file(path) == examples

    def test_newlines_flattened_on_write(self, tmp_path):
        path = tmp_path / "labeled.tsv"
        write_labeled_file(path, [LabeledExample("a\nb\tc", "https://x.y/z", Label.OADS)])
        assert read_labeled_file(path)[0].context == "a b c"

    def test_label_aliases(self, tmp_path):
        path = tmp_path / "labeled.tsv"
        path.write_text("oads\thttps://a.b/c\tx\nNON-OADS\thttps://d.e/f\ty\n")
        labels = [ex.label for ex in read_labeled_file(path)]
        assert labels == [Label.OADS, Label.NON_OADS]

    def test_unknown_label_rejected(self, tmp_path):
        path = tmp_path / "labeled.tsv"
        path.write_text("maybe\thttps://a.b/c\tx\n")
        with pytest.raises(LabeledFileError, match="maybe"):
            read_labeled_file(path)

    def test_committed_fixture_sets_parse(self, labeled_200, labeled_seed):
        assert len(labeled_200) == 200
        assert sum(1 for e in labeled_200 if e.label is Label.OADS) == 100
        assert len(labeled_seed) == 6
