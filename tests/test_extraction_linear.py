"""Extraction runs in linear time and gives exactly what the reference gives.

``extraction_reference`` keeps the direct, quadratic form of the three
extraction passes.  The differential tests here hold the package to its
output byte for byte: mentions, spans and contexts, the repaired text,
the sentences, and the raw URI matches.  The scaling tests check that
doubling each adversarial input shape at most about doubles the
extraction time.
"""

from __future__ import annotations

import gc
import math
import random
import re
import statistics
import time
from pathlib import Path
from typing import Callable, TypeVar

import pytest
from hypothesis import given, settings, strategies as st

import extraction_reference as ref
from oadscan import extraction
from oadscan.corpus import Document, DocumentId, load_manifest, read_document

FIXTURE_CORPUS = Path(__file__).parent / "data" / "fixture_corpus"
T = TypeVar("T")


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


def shape_f(n: int) -> str:
    """One URI whose host has n dots."""
    return "The archive is at http://" + "a." * n + "b for reuse.\n"


PROSE = ("The samples were collected at three field sites in 2019. "
         "Each site was visited twice!  Results are listed below (see Table 2). ")


def shape_d(n: int) -> str:
    """n paragraphs of wrapped prose, with one URI in every paragraph of
    about 2 KB."""
    paragraph = "\n".join([PROSE] * 7 + ["All code is at https://github.com/lab/tool{}/tree/"
                                         "main for reuse."] + [PROSE] * 7)
    return "\n\n".join(paragraph.format(k) for k in range(n)) + "\n"


def shape_e(n: int) -> str:
    """n sentences, each a URI after a long run that holds no character a
    sentence scan can start from."""
    runs = [". " * 400, ")" * 800, " \t" * 400]
    return "".join(f"The run{runs[k % 3]}ends at https://x.org/r/{k}. " for k in range(n))


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
                                  shape_a(50) + shape_b(50), shape_c(1), shape_c(300),
                                  "see www.x.org/a:/\n/b\nc/d more"],
                         ids=["a1", "a300", "b1", "b300", "a50+b50", "c1", "c300",
                              "scheme-separator-wrapped"])
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


# Pieces of documents longer than the window that extraction searches
# before a mention for its sentence's start: long prose, runs that hold no
# character a sentence scan can start from, a blank line or a terminator
# right before a URI, and many URIs in one sentence.
LONG_PIECES = st.one_of(
    st.integers(50, 400).map(lambda k: PROSE * k),
    st.integers(50, 400).map(lambda k: PROSE.replace(". ", ".\n") * k),
    st.tuples(st.sampled_from([". ", ")", '"', " ", "\n", "\t", ".\n", "! "]),
              st.integers(100, 1500)).map(lambda t: t[0] * t[1]),
    st.sampled_from(["\n\nhttps://x.org/a/b", ".\nhttps://x.org/a", ". Https://x.org/a.",
                     "\n \nwww.x.org/p", "!) www.x.org/p/q", ". (http://y.io/z)"]),
    st.integers(2, 60).map(lambda k: "See " + " and ".join(
        f"https://h{i}.org/d/{i}" for i in range(k)) + ". "),
)


@given(st.lists(st.one_of(LONG_PIECES, PIECES), min_size=1, max_size=30).map("".join)
       .filter(lambda text: len(text) > 2 * extraction._WINDOW))
@settings(max_examples=60, deadline=None)
def test_long_documents_match_reference(text):
    for dedup in (False, True):
        assert _outcome(extraction.extract_uri_mentions, text, dedup) == _outcome(
            ref.extract_uri_mentions, text, dedup
        )


@given(st.text(alphabet="wWkKsSiI\u212a\u017f\u0130\u0131.:/ ", max_size=40))
@settings(max_examples=300, deadline=None)
def test_dot_led_www_search_finds_what_a_case_insensitive_search_finds(text):
    www = re.compile(r"www\.", re.IGNORECASE)
    for pos in range(len(text) + 1):
        expected = www.search(text, pos)
        assert extraction._find_www(text, pos) == (expected.start() if expected else -1)


@pytest.mark.parametrize("boundary", ["\n\n", "\n \t\n", ". ", "?)  ", ".\n\n"])
def test_search_window_may_begin_inside_a_boundary(boundary):
    """The window before a mention starts at a character that no boundary
    holds, so a window edge inside a blank line or a terminator run does
    not hide that boundary."""
    for filler in range(extraction._WINDOW - 8, extraction._WINDOW + 2):
        assert_same_as_reference("Intro words" + boundary + "X" * filler + " https://a.org/p")


def doubling_ratios(run: Callable[[T], object], small: T, large: T,
                    rounds: int = 9) -> list[float]:
    """t(run(large)) / t(run(small)), once per round.

    Each round times the two inputs back to back, so a slow phase of the
    machine tends to hit both sides of its ratio.  Each timing repeats the
    call until the batch runs for at least 20 ms, far above clock jitter,
    and the clock is the process's CPU time, which other processes' load
    leaves out.  The collector is paused so that its passes over the test
    process's heap are not counted.
    """
    gc.collect()
    gc.disable()
    try:
        t0 = time.process_time()
        run(small)
        reps = max(1, math.ceil(0.02 / max(time.process_time() - t0, 1e-6)))
        ratios = []
        for _ in range(rounds):
            seconds = []
            for value in (small, large):
                t0 = time.process_time()
                for _ in range(reps):
                    run(value)
                seconds.append(time.process_time() - t0)
            ratios.append(seconds[1] / seconds[0])
    finally:
        gc.enable()
    return ratios


@pytest.mark.parametrize("shape, n", [(shape_a, 1000), (shape_b, 1000), (shape_c, 1000),
                                     (shape_d, 200), (shape_e, 500), (shape_f, 4000)],
                         ids=["a", "b", "c", "d", "e", "f"])
def test_doubling_the_input_at_most_doubles_extraction_time(shape, n):
    ratio = statistics.median(doubling_ratios(extraction.extract_uri_mentions,
                                              doc(shape(n)), doc(shape(2 * n))))
    assert ratio <= 2.5, f"t(2N)/t(N) = {ratio:.2f} at N = {n}"
