from __future__ import annotations

from pathlib import Path

import pytest

from oadscan import shards
from oadscan.classifier import TrainedModel, read_labeled_file
from oadscan.corpus import DocumentId
from oadscan.extraction import UriMention

DATA_DIR = Path(__file__).parent / "data"
FIXTURE_CORPUS = DATA_DIR / "fixture_corpus"
GOLDEN_DIR = DATA_DIR / "golden"


def pytest_addoption(parser):
    parser.addoption("--shards", type=int, default=None, metavar="N",
                     help="cut every command's input into N shards, whatever its size "
                     "(default: the commands' own choice)")


@pytest.fixture
def force_shards(monkeypatch):
    """Call with N to make the commands cut their input into N shards
    (fewer when there are fewer documents or lines)."""
    def force(n: int) -> None:
        monkeypatch.setattr(shards, "shard_count", lambda input_bytes: n)
    return force


@pytest.fixture(autouse=True)
def _shards_option(request, force_shards):
    if request.config.getoption("--shards") is not None:
        force_shards(request.config.getoption("--shards"))


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def fixture_corpus() -> Path:
    return FIXTURE_CORPUS


@pytest.fixture(scope="session")
def golden_dir() -> Path:
    return GOLDEN_DIR


@pytest.fixture(scope="session")
def labeled_200():
    return read_labeled_file(DATA_DIR / "labeled_200.tsv")


@pytest.fixture(scope="session")
def labeled_seed():
    """The six hand-labeled seed sentences (three per label)."""
    return read_labeled_file(DATA_DIR / "labeled_seed.tsv")


@pytest.fixture(scope="session")
def fixture_model() -> TrainedModel:
    """Model trained on labeled_200.tsv with default config (committed)."""
    return TrainedModel.load(DATA_DIR / "model.json")


def make_mention(uri: str, context: str = "", doc: str = "doc1", version: int = 1) -> UriMention:
    if not context:
        context = uri
    return UriMention(DocumentId(doc, version), uri, context, (0, len(uri)))
