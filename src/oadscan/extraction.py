"""URI mention extraction from PDF-extracted article text.

Three cooperating passes over a document:

1. linewrap repair - URIs hard-wrapped across a newline by the PDF text
   extractor are rejoined (the newline dropped, offsets tracked back to
   the original text);
2. URI detection - a permissive scheme-or-www grammar; scheme filtering
   belongs to the scope stage, so anything URI-shaped is kept here;
3. sentence segmentation - terminator-based splitting with detected URIs
   masked first, so a dot inside a URI never ends a sentence.

Each pass takes time linear in the document, however long a wrapped URI
or however many URIs it holds.

Spans index ``Document.text``, the document as read: decoded UTF-8 with
universal newlines, so a CRLF or lone CR line end counts as one newline.
They count Unicode code points and cover the raw match before trimming,
so ``canonicalize_raw(text[start:end])`` reproduces the mention's URI.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
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

# No URI_RE match contains whitespace or an angle bracket, so every match
# lies inside one token delimited by them, and runs to that token's end.
_DELIM_RE = re.compile(r"[\s<>]")
# Matches up to and including the last delimiter in the searched range;
# its end is where that range's last token starts.
_THROUGH_LAST_DELIM_RE = re.compile(r".*[\s<>]", re.DOTALL)
# Every URI_RE match contains one of these literals.
_WWW_RE = re.compile(r"www\.", re.IGNORECASE)
# Where the two URI_RE branches can start: a scheme start with its run of
# scheme characters and the "://" that may end the run, and a "www."
# whose lookbehind holds and that has a body character after it.
_SCHEME_RUN_RE = re.compile(r"\b[a-z][a-z0-9+.\-]*(://)?", re.IGNORECASE)
_WWW_START_RE = re.compile(r"(?<![\w.@-])www\.[^\s<>]", re.IGNORECASE)


def _token_match(text: str, start: int, end: int) -> re.Match | None:
    """``URI_RE.search(text, start, end)`` for a token ``text[start:end]``
    (no whitespace or angle bracket), in time linear in the token.

    The plain search retries the scheme branch at each word boundary of a
    run of scheme characters and scans to the run's end each time.  Every
    start in one run reaches the same "://" or none, so each run is tested
    once, and the search starts at the leftmost start that can match.  The
    regex engine tests every character, so U+0130, U+0131, U+017F and
    U+212A read as they do in URI_RE.
    """
    if text.find("://", start, end) == -1:
        # Only the www branch can match, and it matches where it starts.
        m = _WWW_START_RE.search(text, start, end)
        return m and URI_RE.match(text, m.start(), end)
    m = URI_RE.match(text, start, end)
    if m is not None:
        return m
    m = _WWW_START_RE.search(text, start, end)
    starts = [m.start()] if m else []
    pos = start
    while (m := _SCHEME_RUN_RE.search(text, pos, end)) is not None:
        if m.group(1):
            # A "://" ends the token or is followed by a body.
            if m.end() < end:
                starts.append(m.start())
            break
        pos = m.end()
    return URI_RE.search(text, min(starts), end) if starts else None


def _has_path(match_text: str) -> bool:
    head, sep, tail = match_text.partition("://")
    rest = tail if sep else match_text[len("www."):]
    return "/" in rest


def _repair(text: str) -> tuple[str, list[int]]:
    """Rejoin wrapped URIs.

    Returns the repaired text and the sorted repaired positions of the
    dropped newlines: repaired index ``i`` came from source index
    ``i + bisect_right(cuts, i)``.

    A newline is dropped when the text before it, back to the last kept
    newline (the "run"), ends in a URI match that has a path, and the
    next line plausibly continues it (see ``_TAIL_CLASS`` and
    ``_PROSE_CONTINUATIONS``).  The pass is linear in the text: the URI
    grammar runs only on the run's last token, and while joined lines add
    to that token its match is carried forward instead of searched again.
    """
    lines = text.split("\n")
    parts = [lines[0]]
    cuts: list[int] = []
    size = len(lines[0])  # of the repaired text so far
    # The URI match in the run's last token; while ``known`` is False that
    # token lies in ``prev`` and has not been searched yet.
    known = has_sep = has_path = False
    for prev, line in zip(lines, lines[1:]):
        join = False
        # Joined lines are never empty, so an empty ``prev`` is an empty
        # run.  A weak final character (trimmable punctuation) means the
        # URI ended there on its own; joining would glue the next
        # sentence on.
        if (
            prev
            and line
            and not prev[-1].isspace()
            and prev[-1] not in _TRIM_CHARS
            and prev[-1] not in _BRACKETS
            and line[0] in _TAIL_CLASS
            and _BODY_PREFIX_RE.match(line).group(0) not in _PROSE_CONTINUATIONS
        ):
            if not known:
                d = _THROUGH_LAST_DELIM_RE.match(prev)
                m = _token_match(prev, d.end() if d else 0, len(prev))
                known = True
                has_sep = m is not None and "://" in m.group(0)
                # Join only mid-path; a bare host ending the line is complete.
                has_path = m is not None and _has_path(m.group(0))
            join = has_path
        if not join:
            known = False
            parts.append("\n")
            size += 1
        else:
            cuts.append(size)
            if _THROUGH_LAST_DELIM_RE.match(line):
                known = False
            elif not has_sep:
                # The token goes on, and its match with it.  The match may
                # now start further left, on a scheme this line completes,
                # but its first "://" is the same, so only a first "://" in
                # this line changes the path test.  ':' ends no joined line
                # (it is trimmable), so a "://" across the break is ":/" + "/".
                if prev.endswith(":/") and line[0] == "/":
                    has_sep, after = True, 1
                else:
                    p = line.find("://")
                    has_sep, after = p != -1, p + 3
                if has_sep:
                    has_path = "/" in line[after:]
        parts.append(line)
        size += len(line)
    return "".join(parts), cuts


def repair_linewrap(text: str) -> str:
    """Rejoin URI tokens split across a newline; other newlines survive."""
    repaired, _ = _repair(text)
    return repaired


def _scan_uris(text: str) -> Iterator[re.Match]:
    """Yield the matches of ``URI_RE.finditer(text)``, in order.

    Only tokens holding a ``://`` or ``www.`` literal can match, and each
    token holds at most one match, so the grammar runs once per such
    token and never over the text between them.
    """
    n = len(text)
    pos = 0
    sep = text.find("://")
    m = _WWW_RE.search(text)
    www = m.start() if m else -1
    while sep != -1 or www != -1:
        hit = min(sep, www) if sep != -1 and www != -1 else max(sep, www)
        d = _THROUGH_LAST_DELIM_RE.match(text, pos, hit)
        start = d.end() if d else pos
        d = _DELIM_RE.search(text, hit)
        pos = d.start() if d else n
        m = _token_match(text, start, pos)
        if m is not None:
            yield m
        if sep != -1 and sep < pos:
            sep = text.find("://", pos)
        if www != -1 and www < pos:
            m = _WWW_RE.search(text, pos)
            www = m.start() if m else -1


# A terminator run and the whitespace after it; a run with no whitespace
# after it never ends a sentence.
_TERMINATOR_RE = re.compile(r"([.!?]+[\"')\]\}]*)\s+")
_SENTENCE_OPENERS = "\"'([“‘"


def _protection_spans(text: str) -> list[tuple[int, int]]:
    spans = []
    for m in _scan_uris(text):
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
    starts = [s for s, _ in protected_spans]
    # reach[i]: the furthest end among the first i + 1 spans, so
    # overlapping spans are handled.
    reach = list(accumulate((e for _, e in protected_spans), max))

    def _protected(pos: int) -> bool:
        i = bisect_right(starts, pos)
        return i > 0 and reach[i - 1] > pos

    cuts: set[int] = set()
    for m in _TERMINATOR_RE.finditer(text):
        k = m.end()
        if k == n:
            continue
        nxt = text[k]
        if nxt.isupper() or nxt.isdigit() or nxt in _SENTENCE_OPENERS:
            if not _protected(m.start()):
                cuts.add(m.end(1))
    # Blank lines close a fragment even without a terminator.
    for m in re.finditer(r"\n[ \t]*\n", text):
        if not _protected(m.start()):
            cuts.add(m.start())

    sentences: list[tuple[str, tuple[int, int]]] = []
    prev = 0
    for c in sorted(c for c in cuts if 0 < c < n) + [n]:
        sentence = text[prev:c].strip()
        if sentences and not sentence:
            # A whitespace-only tail joins the preceding sentence, whose
            # stripped text it does not change.
            sentences[-1] = (sentences[-1][0], (sentences[-1][1][0], c))
        else:
            sentences.append((sentence, (prev, c)))
        prev = c
    return sentences


def extract_uri_mentions(doc: Document, dedup: bool = False) -> list[UriMention]:
    """Find every URI occurrence in a document, in document order.

    With ``dedup`` set, only the first occurrence of each URI in the
    document is kept.
    """
    text = doc.text
    if not text:
        return []
    repaired, cuts = _repair(text)

    def source(i: int) -> int:
        return i + bisect_right(cuts, i)

    candidates: list[tuple[int, int, int, str, bool]] = []
    protected: list[tuple[int, int]] = []
    for m in _scan_uris(repaired):
        trimmed = trim_trailing(m.group(0))
        if not trimmed:
            continue
        implicit = m.lastgroup == "www"
        uri = _valid_candidate(trimmed, implicit)
        if uri is None:
            continue
        raw_start = source(m.start())
        raw_end = source(m.end() - 1) + 1
        trim_end = source(m.start() + len(trimmed) - 1) + 1
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
    # A document's mentions are consecutive lines; they share one DocumentId.
    last_raw_id, doc_id = None, None
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
                if raw_id != last_raw_id:
                    doc_id, last_raw_id = parse_document_id(raw_id), raw_id
                record = MentionRecord(
                    doc_id,
                    validate_month(month),
                    uri,
                    (int(start), int(end)),
                    json.loads(context_json),
                )
            except ValueError as exc:
                raise MentionsFileError(f"{path}:{lineno}: {exc}") from None
            records.append(record)
    return records
