"""Extraction runs in linear time and gives exactly what the reference gives.

``extraction_reference`` keeps the direct, quadratic form of the three
extraction passes.  The differential tests here hold the package to its
output byte for byte: mentions, spans and contexts, the repaired text,
the sentences, and the raw URI matches.  The scaling tests check that
doubling the three adversarial input shapes at most about doubles the
extraction time.
"""

from __future__ import annotations

import gc
import math
import random
import statistics
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import extraction_reference as ref
from oadscan import extraction
from oadscan.corpus import Document, DocumentId, load_manifest, read_document

FIXTURE_CORPUS = Path(__file__).parent / "data" / "fixture_corpus"


def doc(text: str) -> Document:
    return Document(DocumentId("d", 1), "2020-01", text)


def shape_a(n: int) -> str:
    """One URI hard-wrapped over n lines of 80 columns."""
    rng = random.Random(n)
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
    head = "The complete archive is at https://store.data-archive.org/"
    chunks = ["".join(rng.choice(alphabet) for _ in range(80 - len(head)))]
    chunks += ["".join(rng.choice(alphabet) for _ in range(80)) for _ in range(n - 1)]
    return ("Every file is kept in one place.\n" + head + "\n".join(chunks)
            + ". Nothing else is needed.\n")


def shape_b(n: int) -> str:
    """A reference list of n URLs, each followed by a full stop."""
    lines = ["References", ""]
    for k in range(1, n + 1):
        lines.append(f"[{k}] Author {k % 17}, data set {k % 5}, {1990 + k % 30}. "
                     f"https://host{k % 37}.example.org/data/{k}.")
    return "\n".join(lines) + "\n"


def shape_c(n: int) -> str:
    """Tokens of about 2n scheme characters that hold a "www." or "://"
    but no URI, the last one ending a line that repair examines."""
    return ("See " + "a." * n + "www.b for it. " + "a." * n + "a_x://y.org/p and 1://"
            + "a." * n + "www.b.\nSee " + "a." * n + "www.b/c\nd more text.\n") * 8


def _outcome(extract, text: str, dedup: bool):
    try:
        return extract(doc(text), dedup=dedup)
    except ValueError as exc:
        return ("ValueError", str(exc))


def assert_same_as_reference(text: str) -> None:
    for dedup in (False, True):
        assert _outcome(extraction.extract_uri_mentions, text, dedup) == _outcome(
            ref.extract_uri_mentions, text, dedup
        ), text
    repaired = ref.repair_linewrap(text)
    assert extraction.repair_linewrap(text) == repaired
    assert extraction.segment_sentences(text) == ref.segment_sentences(text)
    assert [(m.span(), m.lastgroup) for m in extraction._scan_uris(repaired)] == [
        (m.span(), m.lastgroup) for m in extraction.URI_RE.finditer(repaired)
    ]


def test_fixture_corpus_matches_reference():
    entries = list(load_manifest(FIXTURE_CORPUS / "manifest.tsv"))
    assert entries
    for entry in entries:
        assert_same_as_reference(read_document(entry, FIXTURE_CORPUS).text)


@pytest.mark.parametrize("text", [shape_a(1), shape_a(300), shape_b(1), shape_b(300),
                                  shape_a(50) + shape_b(50), shape_c(1), shape_c(300)],
                         ids=["a1", "a300", "b1", "b300", "a50+b50", "c1", "c300"])
def test_adversarial_shapes_match_reference(text):
    assert_same_as_reference(text)


# Pieces that exercise every branch of the three passes: URIs wrapped
# mid-path, separator-free tokens with several "://" or "www." hits,
# CRLF and Unicode line ends and spaces, angle brackets, the Kelvin sign,
# long s and the two Turkish i's (which the case-insensitive grammar reads
# as ASCII letters), long runs of scheme characters, a "://" with no
# scheme start in its run, and prose words right after a break.
PIECES = st.sampled_from([
    "https://", "http://", "ftp://", "://", ":/", "/", "//", "www.", "WWW.", "wWw.",
    "x.org", "github.com/u/r", "/data", "a+b", "-", ".", ",", ";", ")", "(", "]", "!", "?",
    '"', "'", "\u201c", " ", " ", "  ", "\n", "\n", "\r\n", "\n\n", "\n \n", "<", ">",
    "\u00a0", "\u2028", "\x1c", "\t", "\u212a", "\u017f", "\u0130", "\u0131", "The", "A",
    "7", "x", "w", "_", "a.a.a.a.", "a." * 100, "1://", "a_x://",
    "the", "and", "with", "\nthe ", "\nand more", "\ndata",
    "https://zenodo.org/rec\nord/12", "www.example.org/a/\nb/c", "http://h.io/p\n/q",
    "http://a.b/c://d://e", "www.x/y://z", "a+www.q/r:/",
])


@given(st.lists(PIECES, max_size=60).map("".join))
@settings(max_examples=500, deadline=None)
def test_generated_documents_match_reference(text):
    assert_same_as_reference(text)


@given(
    st.lists(PIECES, max_size=40).map("".join),
    st.lists(st.tuples(st.integers(0, 200), st.integers(0, 60)), max_size=8),
)
@settings(max_examples=200, deadline=None)
def test_segmentation_with_overlapping_spans_matches_reference(text, raw_spans):
    spans = [(s, s + length) for s, length in raw_spans]
    assert extraction.segment_sentences(text, spans) == ref.segment_sentences(text, spans)


def _doubling_ratios(small: str, large: str, rounds: int = 9) -> list[float]:
    """t(large) / t(small) of in-process extraction, once per round.

    Each round times the two texts back to back, so a slow phase of the
    machine tends to hit both sides of its ratio.  Each timing repeats the
    extraction until the batch runs for at least 20 ms, far above clock
    jitter, and the clock is the process's CPU time, which other
    processes' load leaves out.  The collector is paused so that its
    passes over the test process's heap are not counted.
    """
    documents = [doc(small), doc(large)]
    gc.collect()
    gc.disable()
    try:
        t0 = time.process_time()
        extraction.extract_uri_mentions(documents[0])
        reps = max(1, math.ceil(0.02 / max(time.process_time() - t0, 1e-6)))
        ratios = []
        for _ in range(rounds):
            seconds = []
            for document in documents:
                t0 = time.process_time()
                for _ in range(reps):
                    extraction.extract_uri_mentions(document)
                seconds.append(time.process_time() - t0)
            ratios.append(seconds[1] / seconds[0])
    finally:
        gc.enable()
    return ratios


@pytest.mark.parametrize("shape, n", [(shape_a, 1000), (shape_b, 1000), (shape_c, 1000)],
                         ids=["a", "b", "c"])
def test_doubling_the_input_at_most_doubles_extraction_time(shape, n):
    ratio = statistics.median(_doubling_ratios(shape(n), shape(2 * n)))
    assert ratio <= 2.5, f"t(2N)/t(N) = {ratio:.2f} at N = {n}"
