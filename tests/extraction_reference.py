"""Reference extraction: the straightforward implementation, kept as an oracle.

``tests/test_extraction_linear.py`` checks that ``oadscan.extraction``
produces exactly what these functions produce.  They are the direct,
quadratic-time forms of the three passes:

* linewrap repair rebuilds the joined run for every line, runs the URI
  grammar over all of it, and maps offsets back through a per-character
  index list;
* the URI scan is ``URI_RE.finditer`` over the whole repaired text;
* segmentation checks each candidate boundary against every protected
  span in turn.

The grammar, the character sets of the repair rule, trimming and
candidate validation are imported from the package; the algorithms, and
the terminator pattern they were written against, live here.
"""

from __future__ import annotations

import re

from oadscan.corpus import Document
from oadscan.extraction import (
    URI_RE,
    MentionRecord,
    _BODY_PREFIX_RE,
    _BRACKETS,
    _PROSE_CONTINUATIONS,
    _SENTENCE_OPENERS,
    _TAIL_CLASS,
    _TRIM_CHARS,
    _valid_candidate,
    trim_trailing,
)


_TERMINATOR_RE = re.compile(r"[.!?]+[\"')\]\}]*")


def _has_path(match_text: str) -> bool:
    head, sep, tail = match_text.partition("://")
    rest = tail if sep else match_text[len("www."):]
    return "/" in rest


def _should_join(prev_line: str, next_line: str) -> bool:
    """Decide whether a newline between two lines broke a URI."""
    if not prev_line or not next_line:
        return False
    if prev_line[-1].isspace():
        return False
    # A weak final character (trimmable punctuation) means the URI ended
    # here on its own; joining would glue the next sentence on.
    if prev_line[-1] in _TRIM_CHARS or prev_line[-1] in _BRACKETS:
        return False
    if next_line[0] not in _TAIL_CLASS:
        return False
    # First token limited to URI body characters, so the decision is the
    # same whether we see the whole line or just the matched tail.
    if _BODY_PREFIX_RE.match(next_line).group(0) in _PROSE_CONTINUATIONS:
        return False
    for m in URI_RE.finditer(prev_line):
        if m.end() == len(prev_line):
            # Join only mid-path; a bare host ending the line is complete.
            return _has_path(m.group(0))
    return False


def _repair_with_map(text: str) -> tuple[str, list[int]]:
    """Rejoin wrapped URIs; map each repaired index to its source index."""
    pieces: list[tuple[str, int]] = []
    start = 0
    for i, ch in enumerate(text):
        if ch == "\n":
            pieces.append((text[start:i], start))
            start = i + 1
    pieces.append((text[start:], start))

    # merged[i] is a list of (chunk, original offset); chunks of one line
    # were joined without separator, dropping the newline between them.
    merged: list[list[tuple[str, int]]] = [[pieces[0]]]
    for chunk, offset in pieces[1:]:
        prev_text = "".join(c for c, _ in merged[-1])
        if _should_join(prev_text, chunk):
            merged[-1].append((chunk, offset))
        else:
            merged.append([(chunk, offset)])

    out: list[str] = []
    idx_map: list[int] = []
    for k, line in enumerate(merged):
        if k > 0:
            newline_src = line[0][1] - 1
            out.append("\n")
            idx_map.append(newline_src)
        for chunk, offset in line:
            out.append(chunk)
            idx_map.extend(range(offset, offset + len(chunk)))
    return "".join(out), idx_map


def repair_linewrap(text: str) -> str:
    """Rejoin URI tokens split across a newline; other newlines survive."""
    repaired, _ = _repair_with_map(text)
    return repaired


def _protection_spans(text: str) -> list[tuple[int, int]]:
    spans = []
    for m in URI_RE.finditer(text):
        trimmed = trim_trailing(m.group(0))
        if trimmed:
            spans.append((m.start(), m.start() + len(trimmed)))
    return spans


def segment_sentences(
    text: str, protected_spans: list[tuple[int, int]] | None = None
) -> list[tuple[str, tuple[int, int]]]:
    """Split text into (sentence, span) pairs whose spans tile the text."""
    n = len(text)
    if n == 0:
        return []
    if protected_spans is None:
        protected_spans = _protection_spans(text)
    protected_spans = sorted(protected_spans)

    def _protected(pos: int) -> bool:
        for s, e in protected_spans:
            if s <= pos < e:
                return True
            if s > pos:
                break
        return False

    cuts: set[int] = set()
    for m in _TERMINATOR_RE.finditer(text):
        if _protected(m.start()):
            continue
        j = m.end()
        k = j
        while k < n and text[k].isspace():
            k += 1
        if k == j or k >= n:
            continue
        nxt = text[k]
        if nxt.isupper() or nxt.isdigit() or nxt in _SENTENCE_OPENERS:
            cuts.add(j)
    # Blank lines close a fragment even without a terminator.
    for m in re.finditer(r"\n[ \t]*\n", text):
        if not _protected(m.start()):
            cuts.add(m.start())

    positions = sorted(c for c in cuts if 0 < c < n)
    spans: list[tuple[int, int]] = []
    prev = 0
    for c in positions + [n]:
        spans.append((prev, c))
        prev = c
    # Merge whitespace-only tails into the preceding sentence.
    merged: list[tuple[int, int]] = []
    for s, e in spans:
        if merged and not text[s:e].strip():
            ps, _ = merged[-1]
            merged[-1] = (ps, e)
        else:
            merged.append((s, e))
    return [(text[s:e].strip(), (s, e)) for s, e in merged]


def extract_uri_mentions(doc: Document, dedup: bool = False) -> list[MentionRecord]:
    """Find every URI occurrence in a document, in document order."""
    text = doc.text
    if not text:
        return []
    repaired, idx_map = _repair_with_map(text)

    candidates: list[tuple[int, int, int, str, bool]] = []
    protected: list[tuple[int, int]] = []
    for m in URI_RE.finditer(repaired):
        trimmed = trim_trailing(m.group(0))
        if not trimmed:
            continue
        implicit = m.lastgroup == "www"
        uri = _valid_candidate(trimmed, implicit)
        if uri is None:
            continue
        raw_start = idx_map[m.start()]
        raw_end = idx_map[m.end() - 1] + 1
        trim_end = idx_map[m.start() + len(trimmed) - 1] + 1
        candidates.append((raw_start, raw_end, trim_end, uri, implicit))
        protected.append((raw_start, trim_end))

    if not candidates:
        return []
    sentences = segment_sentences(text, protected_spans=protected)

    mentions: list[MentionRecord] = []
    seen: set[str] = set()
    si = 0
    for raw_start, raw_end, _trim_end, uri, _implicit in candidates:
        while si < len(sentences) and sentences[si][1][1] <= raw_start:
            si += 1
        sentence_text, (s, e) = sentences[si]
        if not (s <= raw_start and raw_end <= e):
            raise ValueError(
                f"{doc.id}: mention {uri!r} at {raw_start}..{raw_end} crosses "
                f"the sentence boundary {s}..{e}"
            )
        if dedup:
            if uri in seen:
                continue
            seen.add(uri)
        mentions.append(
            MentionRecord(doc.id, doc.month, uri, (raw_start, raw_end), sentence_text)
        )
    return mentions
