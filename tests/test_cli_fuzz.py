"""Whole-CLI fuzz: no document can stop a run.

Each example writes a manifest and documents built from pieces that have
broken real corpora: invalid UTF-8, NUL bytes, a byte order mark, CR-only
and CRLF line ends, empty files and missing paths.  ``pipeline`` must exit
0 at one and two shards, name every unreadable document (and no readable
one) in ``counts.extract.skipped``, and write the same bytes as a staged
``extract`` + ``report``.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from oadscan import cli, shards
from test_cli import MODEL, run

OUTPUTS = ("mentions.tsv", "monthly.csv", "hostnames.csv", "histogram.csv", "top_hostnames.csv")

PIECES = [
    b"The data are at ", b"https://zenodo.org/record/7", b" and the code at ",
    b"https://github.com/u/r", b"http://exam-\nple.org/x", b"https://doi.org/10.5281/z.1",
    b". ", b"\n", b"\r", b"\r\n", b"\x00", "café ".encode(),
    b"\xff", b"\xc3",  # not UTF-8
]


@st.composite
def documents(draw):
    """A list of document bodies; None is a manifest path with no file."""
    docs = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.integers(0, 5)) == 0:
            docs.append(None)
            continue
        body = b"".join(draw(st.lists(st.sampled_from(PIECES), max_size=10)))
        docs.append(b"\xef\xbb\xbf" + body if draw(st.booleans()) else body)
    return docs


def readable(body: bytes | None) -> bool:
    if body is None:
        return False
    try:
        body.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


def run_at(n_shards: int, *argv) -> int:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shards, "shard_count", lambda input_bytes: n_shards)
        return run(*argv)


@settings(max_examples=30, deadline=None)
@given(docs=documents())
def test_pipeline_survives_any_document(tmp_path_factory, docs):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "docs").mkdir()
    lines = []
    for i, body in enumerate(docs):
        lines.append(f"d{i}\t1\t2019-0{1 + i % 3}\tdocs/d{i}.txt")
        if body is not None:
            (root / "docs" / f"d{i}.txt").write_bytes(body)
    manifest = root / "manifest.tsv"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    unreadable = {f"d{i}v1" for i, body in enumerate(docs) if not readable(body)}

    outputs = []
    for n in (1, 2):
        out = root / f"pipeline{n}"
        assert run_at(n, "pipeline", "--manifest", manifest, "--model", MODEL,
                      "--out-dir", out) == cli.EXIT_OK
        counts = json.loads((out / "run_metadata.json").read_text())["counts"]["extract"]
        assert {doc_id for doc_id, _ in counts["skipped"]} == unreadable
        assert counts["documents"] == len(docs)
        assert counts["read_failures"] == len(unreadable)
        outputs.append([(out / name).read_bytes() for name in OUTPUTS])

    staged = root / "staged"
    staged.mkdir()
    assert run_at(2, "extract", "--manifest", manifest,
                  "--out", staged / "mentions.tsv") == cli.EXIT_OK
    assert run_at(2, "report", "--manifest", manifest, "--model", MODEL,
                  "--mentions", staged / "mentions.tsv", "--out-dir", staged) == cli.EXIT_OK
    outputs.append([(staged / name).read_bytes() for name in OUTPUTS])
    assert outputs[0] == outputs[1] == outputs[2]
