"""URI mention extraction from PDF-extracted article text.

Three cooperating passes over a document:

1. linewrap repair - URIs hard-wrapped across a newline by the PDF text
   extractor are rejoined (the newline dropped, offsets tracked back to
   the original text);
2. URI detection - a permissive scheme-or-www grammar; scheme filtering
   belongs to the scope stage, so anything URI-shaped is kept here;
3. sentence segmentation - terminator-based splitting with detected URIs
   masked first, so a dot inside a URI never ends a sentence.

Spans index ``Document.text``, the document as read: decoded UTF-8 with
universal newlines, so a CRLF or lone CR line end counts as one newline.
They count Unicode code points and cover the raw match before trimming,
so ``canonicalize_raw(text[start:end])`` reproduces the mention's URI.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .corpus import Document, DocumentId, parse_document_id, validate_month
from .fileio import atomic_write_text
from .scope import parse_uri

__all__ = [
    "UriMention",
    "MentionRecord",
    "MentionsFileError",
    "segment_sentences",
    "extract_uri_mentions",
    "repair_linewrap",
    "trim_trailing",
    "canonicalize_raw",
    "write_mentions_file",
    "read_mentions_file",
]


@dataclass(frozen=True)
class UriMention:
    """One URI occurrence: the cleaned URI plus its context sentence.

    ``span`` covers the raw regex match in the document text; the raw
    substring may still contain the newline that linewrap repair removed
    and the trailing punctuation that trimming removed.
    ``implicit_scheme`` is True when the match was a bare ``www.`` host
    and ``http://`` was supplied.
    """

    doc_id: DocumentId
    uri: str
    context: str
    span: tuple[int, int]
    implicit_scheme: bool = False


# Permissive by design: any scheme followed by ://, or a bare www. host.
# The body class excludes whitespace and angle brackets (common textual
# delimiters); trailing punctuation is handled by trim_trailing.
URI_RE = re.compile(
    r"(?P<scheme>\b[a-z][a-z0-9+.\-]*://[^\s<>]+)"
    r"|(?P<www>(?<![\w.@-])www\.[^\s<>]+)",
    re.IGNORECASE,
)

_TRIM_CHARS = ".,;:!?'\""
_BRACKETS = {")": "(", "]": "[", "}": "{"}


def trim_trailing(raw: str) -> str:
    """Iteratively strip sentence punctuation and unbalanced closers.

    A closing bracket survives only while the URI contains at least as
    many matching openers, so wiki-style ``..._(disambiguation)`` paths
    keep their final parenthesis.
    """
    s = raw
    while s:
        c = s[-1]
        if c in _TRIM_CHARS:
            s = s[:-1]
            continue
        if c in _BRACKETS and s.count(_BRACKETS[c]) < s.count(c):
            s = s[:-1]
            continue
        break
    return s


def _valid_candidate(trimmed: str, implicit: bool) -> str | None:
    """Return the canonical URI string for a trimmed match, or None."""
    if implicit:
        if len(trimmed) <= len("www."):
            return None
        uri = "http://" + trimmed
    else:
        head, sep, tail = trimmed.partition("://")
        if not sep or not tail:
            return None
        uri = trimmed
    if parse_uri(uri).hostname is None:
        return None
    return uri


def canonicalize_raw(raw: str) -> str | None:
    """Repair, trim, and scheme-complete a raw matched substring.

    Applying this to ``text[span]`` reproduces the mention's ``uri``;
    returns None when nothing URI-shaped survives.
    """
    repaired = repair_linewrap(raw)
    m = URI_RE.match(repaired)
    if m is None or m.end() != len(repaired):
        return None
    trimmed = trim_trailing(m.group(0))
    return _valid_candidate(trimmed, m.lastgroup == "www")


# Characters that may plausibly continue a wrapped URI on the next line.
_TAIL_CLASS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789/._~%&=?#+-")

# A continuation line whose first whitespace-delimited token is a bare
# function word is prose, not a URI tail, no matter how URI-shaped its
# first character looks.
_PROSE_CONTINUATIONS = frozenset(
    """a an and are as at be but by during for from has have if in is it its
    of on or our so that the these this to was we were which will with""".split()
)


_BODY_PREFIX_RE = re.compile(r"[^\s<>]+")


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


_TERMINATOR_RE = re.compile(r"[.!?]+[\"')\]\}]*")
_SENTENCE_OPENERS = "\"'([“‘"


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
    """Split text into (sentence, span) pairs whose spans tile the text.

    A sentence ends after a terminator run (``.``, ``!``, ``?`` plus any
    closing quotes/brackets) followed by whitespace and an uppercase,
    digit, or opening-quote start; blank lines and end of text also close
    a sentence, so terminator-less fragments still yield one.  Boundaries
    inside detected URIs are suppressed.  Sentence text is the span's
    substring with surrounding whitespace stripped.
    """
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


def extract_uri_mentions(doc: Document, dedup: bool = False) -> list[UriMention]:
    """Find every URI occurrence in a document, in document order.

    With ``dedup`` set, only the first occurrence of each URI in the
    document is kept.
    """
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

    mentions: list[UriMention] = []
    seen: set[str] = set()
    si = 0
    for raw_start, raw_end, _trim_end, uri, implicit in candidates:
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
            UriMention(doc.id, uri, sentence_text, (raw_start, raw_end), implicit)
        )
    return mentions


# --- mentions file -------------------------------------------------------
#
# Intermediate artifact: one mention per line,
# doc_id<TAB>month<TAB>uri<TAB>span_start<TAB>span_end<TAB>context
# with the context JSON-string-escaped.  Lines starting with # are
# comments.


class MentionsFileError(ValueError):
    """A mentions-file record could not be parsed."""


@dataclass(frozen=True)
class MentionRecord:
    """A mention as persisted between pipeline stages (month attached)."""

    doc_id: DocumentId
    month: str
    uri: str
    span: tuple[int, int]
    context: str


_MENTIONS_HEADER = "# doc_id\tmonth\turi\tspan_start\tspan_end\tcontext"


def mention_records(doc: Document, mentions: Iterable[UriMention]) -> Iterator[MentionRecord]:
    for m in mentions:
        yield MentionRecord(m.doc_id, doc.month, m.uri, m.span, m.context)


def write_mentions_file(path: str | Path, records: Iterable[MentionRecord]) -> int:
    """Write records to a mentions file (atomically); returns the count."""
    count = 0
    lines = [_MENTIONS_HEADER]
    for r in records:
        lines.append(
            f"{r.doc_id}\t{r.month}\t{r.uri}\t{r.span[0]}\t{r.span[1]}\t"
            f"{json.dumps(r.context, ensure_ascii=True)}"
        )
        count += 1
    atomic_write_text(path, "\n".join(lines) + "\n")
    return count


def read_mentions_file(path: str | Path) -> list[MentionRecord]:
    records: list[MentionRecord] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t", 5)
            if len(fields) != 6:
                raise MentionsFileError(f"{path}:{lineno}: expected 6 fields")
            raw_id, month, uri, start, end, context_json = fields
            try:
                record = MentionRecord(
                    parse_document_id(raw_id),
                    validate_month(month),
                    uri,
                    (int(start), int(end)),
                    json.loads(context_json),
                )
            except ValueError as exc:
                raise MentionsFileError(f"{path}:{lineno}: {exc}") from None
            records.append(record)
    return records
