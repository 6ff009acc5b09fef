"""Committed fixture files must match their generators and stay in sync."""

from pathlib import Path

from fixture_labels import generate_examples, write_labeled_file
from oadscan.classifier import read_labeled_file

DATA = Path(__file__).parent / "data"


def test_labeled_200_matches_generator(tmp_path):
    regenerated = tmp_path / "labeled_200.tsv"
    write_labeled_file(regenerated, generate_examples())
    assert regenerated.read_bytes() == (DATA / "labeled_200.tsv").read_bytes()


def test_labeled_200_balanced():
    examples = read_labeled_file(DATA / "labeled_200.tsv")
    assert len(examples) == 200
    by_label = {}
    for ex in examples:
        by_label[ex.label] = by_label.get(ex.label, 0) + 1
    assert set(by_label.values()) == {100}


def test_seed_examples_disjoint_from_fixture_set():
    fixture_uris = {ex.uri for ex in read_labeled_file(DATA / "labeled_200.tsv")}
    seed_uris = {ex.uri for ex in read_labeled_file(DATA / "labeled_seed.tsv")}
    assert not (fixture_uris & seed_uris)
