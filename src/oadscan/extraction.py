"""URI mention extraction from PDF-extracted article text.

Three cooperating passes over a document:

1. linewrap repair - URIs hard-wrapped across a newline by the PDF text
   extractor are rejoined (the newline dropped, offsets tracked back to
   the original text);
2. URI detection - a permissive scheme-or-www grammar; scheme filtering
   belongs to the scope stage, so anything URI-shaped is kept here;
3. sentence context - terminator-based splitting with detected URIs
   masked first, so a dot inside a URI never ends a sentence.

Python-level work goes to the tokens that hold a "://" or "www." literal
and to the sentences around mentions; the rest of the text is crossed by
regex and string searches.  Each pass stays linear in the document,
however long a wrapped URI or however many URIs it holds.
"""

from __future__ import annotations

import json
import re
import sys
from bisect import bisect_right
from itertools import accumulate
from json.decoder import scanstring
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

from .corpus import Document, DocumentId, MonthWindow, parse_document_id, validate_month
from .fileio import atomic_open
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
    "MENTIONS_HEADER",
    "format_mention",
    "write_mentions_file",
    "read_mentions_file",
]


class MentionRecord(NamedTuple):
    """One URI occurrence, from extraction through the mentions file to the
    report: its document and month, the cleaned URI and its context sentence.

    ``span`` indexes ``Document.text``, the document as read: decoded UTF-8
    with universal newlines, so a CRLF or lone CR line end counts as one
    newline.  It counts Unicode code points and covers the raw match before
    linewrap repair and trimming, so ``canonicalize_raw(text[start:end])``
    reproduces ``uri``; a bare ``www.`` host gains ``http://`` there only.
    """

    doc_id: DocumentId
    month: str
    uri: str
    span: tuple[int, int]
    context: str


class UriMention(NamedTuple):
    """A mention as ``classifier.classify_hybrid`` reads it; the benchmark's
    traced replay builds one per ``MentionRecord``."""

    doc_id: DocumentId
    uri: str
    context: str
    span: tuple[int, int]


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
# Every URI_RE match contains "://" or "www." in any case.  Only "w" and "W"
# fold to "w", so "www." is found from its dot, which the engine seeks as a
# plain character; a case-insensitive pattern is tested at every character.
_WWW_DOT_RE = re.compile(r"\.(?<=[wW]{3}\.)")
# Where the two URI_RE branches can start: a scheme start with its run of
# scheme characters and the "://" that may end the run, and a "www."
# whose lookbehind holds and that has a body character after it.
_SCHEME_RUN_RE = re.compile(r"\b[a-z][a-z0-9+.\-]*(://)?", re.IGNORECASE)
_WWW_START_RE = re.compile(r"(?<![\w.@-])www\.[^\s<>]", re.IGNORECASE)


def _find_www(text: str, pos: int) -> int:
    """Where the first "www." (any case) at or after ``pos`` starts, or -1."""
    m = _WWW_DOT_RE.search(text, pos + 3)
    return m.start() - 3 if m else -1


def _literal_tokens(text: str) -> Iterator[tuple[int, int]]:
    """Yield ``(hit, end)``, in order, for each token holding a "://" or "www."
    literal: where its first literal starts and the delimiter after it."""
    sep, www = text.find("://"), _find_www(text, 0)
    while sep != -1 or www != -1:
        hit = min(sep, www) if sep != -1 and www != -1 else max(sep, www)
        d = _DELIM_RE.search(text, hit)
        end = d.start() if d else len(text)
        yield hit, end
        if sep != -1 and sep < end:
            sep = text.find("://", end)
        if www != -1 and www < end:
            www = _find_www(text, end)


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
    ``_PROSE_CONTINUATIONS``).  Only a run whose last token holds a "://"
    or "www." literal can end in a match, so the rule runs only where such
    a token, or a join that carries one, ends a line; the rest is copied
    in slices.  The grammar runs only on the run's last token, and while
    joined lines add to it its match is carried, not searched again.
    """
    n = len(text)
    parts: list[str] = []
    cuts: list[int] = []
    done = 0  # text[:done] is in ``parts``
    # Newlines ending a literal's token that pass the rule's character tests
    # (a join that carries the token on tests the next newline too).
    ends = (e for _, e in _literal_tokens(text)
            if text.startswith("\n", e) and text[e + 1:e + 2] in _TAIL_CLASS
            and text[e - 1] not in _TRIM_CHARS and text[e - 1] not in _BRACKETS)
    # The URI match in the run's last token; while ``known`` is False that
    # token lies in ``prev`` and has not been searched yet.
    known = has_sep = has_path = False
    nl = le = -1
    while (nl := le if known else next((e for e in ends if e > nl), n)) < n:
        le = text.find("\n", nl + 1) % (n + 1)  # n when there is no newline
        prev, line = text[text.rfind("\n", 0, nl) + 1:nl], text[nl + 1:le]
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
            continue
        parts.append(text[done:nl])
        done = nl + 1
        cuts.append(nl - len(cuts))
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
    parts.append(text[done:])
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
    pos = 0
    for hit, end in _literal_tokens(text):
        d = _THROUGH_LAST_DELIM_RE.match(text, pos, hit)
        m = _token_match(text, d.end() if d else pos, end)
        if m is not None:
            yield m
        pos = end


# A sentence boundary: a terminator run (an empty group marks its end) and
# the whitespace after it, or a blank line.  Leading with a character class
# lets the engine skip to candidates fast.
_BOUNDARY_RE = re.compile(r"[.!?\n](?:(?<=[.!?])[.!?]*[\"')\]\}]*()\s+|(?<=\n)[ \t]*\n)")
_SENTENCE_OPENERS = "\"'([“‘"
# No boundary match holds a character of this class and a URI match starts
# with a letter, so a scan from one, from a mention or from a cut sees what a
# whole-text scan sees from there, and one that ends at one cuts none short.
_SYNC_RE = re.compile(r"[^\s.!?\"')\]\}]")
_WINDOW = 256  # how far before a mention its sentence's start is sought first


def _protection(spans: Iterable[tuple[int, int]]) -> Callable[[int], bool]:
    """A test of whether a position lies inside one of the (overlapping) spans."""
    spans = sorted(spans)
    starts = [s for s, _ in spans]
    # reach[i]: the furthest end among the first i + 1 spans.
    reach = list(accumulate((e for _, e in spans), max))

    def protected(pos: int) -> bool:
        i = bisect_right(starts, pos)
        return i > 0 and reach[i - 1] > pos
    return protected


def _cuts(text: str, protected: Callable[[int], bool], pos: int, endpos: int) -> Iterator[int]:
    """Yield, in order, the sentence cuts (see ``segment_sentences``) of the
    boundaries that start in ``text[pos:endpos]`` outside protected spans."""
    n = len(text)
    for m in _BOUNDARY_RE.finditer(text, pos, endpos):
        start, end = m.span()
        cut = m.end(1)
        if cut == -1:  # a blank line
            if not protected(start):
                yield start
            continue
        if end < n:
            nxt = text[end]
            if ((nxt.isupper() or nxt.isdigit() or nxt in _SENTENCE_OPENERS)
                    and not protected(start)):
                yield cut
        if end - cut > 1:  # blank lines in the whitespace after the run
            yield from _cuts(text, protected, cut, end)


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
        protected_spans = [(m.start(), m.start() + len(trim_trailing(m.group(0))))
                           for m in _scan_uris(text)]
    cuts = set(_cuts(text, _protection(protected_spans), 0, n))

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


def _mention_sentences(text: str, starts: Iterable[int], protected: Callable[[int], bool]
                       ) -> Iterator[tuple[str, tuple[int, int]]]:
    """Yield, for each ascending mention start, the ``segment_sentences``
    sentence holding it, up to its own cut: the whitespace after it changes
    neither its text nor which mentions it holds.  One cursor walks the
    cuts, jumping over mention-free stretches longer than ``_WINDOW``; after
    a jump, a window before the mention widens back until it holds a cut."""
    n = len(text)
    s = e = 0
    cursor = None  # the cuts from ``known`` on; the next one is ``ahead``
    for r in starts:
        if r >= e:
            behind = e  # the previous sentence's end, or 0
            if cursor is None or e < r - _WINDOW:
                known = max(e, r - _WINDOW)
                if known > e:
                    m = _SYNC_RE.search(text, known, r)
                    known = m.start() if m else r
                cursor = _cuts(text, protected, known, n)
                ahead = next(cursor, n)
            while ahead < r:
                behind, ahead = ahead, next(cursor, n)
            # The last cut before r is ``behind``, or lies in [behind, known).
            s, lo, width = behind, known, _WINDOW
            while s == behind < lo:
                hi, lo = lo, max(behind, lo - width)
                if lo > behind:  # start where a scan may (see _SYNC_RE)
                    m = _SYNC_RE.search(text, lo, hi)
                    lo = m.start() if m else hi
                s = max([behind, *_cuts(text, protected, lo, hi)])
                width *= 2
            e = ahead
            sentence = text[s:e].strip()
        yield sentence, (s, e)


def extract_uri_mentions(doc: Document, dedup: bool = False) -> list[MentionRecord]:
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

    candidates: list[tuple[int, int, str]] = []
    protected: list[tuple[int, int]] = []
    for m in _scan_uris(repaired):
        trimmed = trim_trailing(m.group(0))
        uri = _valid_candidate(trimmed, m.lastgroup == "www")
        if uri is None:
            continue
        raw_start = source(m.start())
        raw_end = source(m.end() - 1) + 1
        trim_end = source(m.start() + len(trimmed) - 1) + 1
        candidates.append((raw_start, raw_end, uri))
        protected.append((raw_start, trim_end))

    sentences = _mention_sentences(text, (c[0] for c in candidates), _protection(protected))
    mentions: list[MentionRecord] = []
    seen: set[str] = set()
    for (raw_start, raw_end, uri), (sentence_text, (s, e)) in zip(candidates, sentences):
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


# --- mentions file -------------------------------------------------------
#
# Intermediate artifact: one mention per line,
# doc_id<TAB>month<TAB>uri<TAB>span_start<TAB>span_end<TAB>context
# with the context JSON-string-escaped.  Lines starting with # are
# comments.


class MentionsFileError(ValueError):
    """A mentions-file record could not be parsed."""


MENTIONS_HEADER = "# doc_id\tmonth\turi\tspan_start\tspan_end\tcontext\n"


def format_mention(r: MentionRecord) -> str:
    """The mentions-file line of a record, ending in a newline."""
    return (f"{r.doc_id}\t{r.month}\t{r.uri}\t{r.span[0]}\t{r.span[1]}\t"
            f"{json.dumps(r.context, ensure_ascii=True)}\n")


def write_mentions_file(path: str | Path, records: Iterable[MentionRecord]) -> int:
    """Write records to a mentions file (atomically); returns the count."""
    records = list(records)
    with atomic_open(path) as fh:
        fh.write(MENTIONS_HEADER)
        fh.writelines(map(format_mention, records))
    return len(records)


# How much of a mentions file the error path reads at once to number a line.
_COUNT_BLOCK = 1 << 20


def read_mentions_file(path: str | Path, start: int = 0, end: int | None = None,
                       window: MonthWindow | None = None) -> list[MentionRecord]:
    """The records of the lines in bytes [start, end) of a mentions file
    (to its end when ``end`` is None).

    ``start`` and ``end`` are line starts, as ``shards.line_ranges`` cuts
    them: 0, the file's size, or just after a line end.  Line ends are read
    as text mode reads them (LF, CRLF or a lone CR), and each line is
    decoded as UTF-8 on its own.  With a ``window``, a month outside it
    makes a line bad.  The first bad line raises ``MentionsFileError``
    naming the path and its line number in the whole file, whatever the
    range.
    """
    records: list[MentionRecord] = []
    # A document's consecutive lines share one id and month, parsed on change.
    last_raw_id, doc_id, last_month = None, None, None
    left = sys.maxsize if end is None else end - start  # bytes still to read
    lineno = 0  # lines read from start
    new = tuple.__new__  # a record from its fields, without MentionRecord's Python-level __new__
    try:
        with open(path, "rb") as fh:
            fh.seek(start)
            readline = fh.readline
            # split at LF only, and never past end, so a run of lines that
            # end in lone CRs is read no further than the range
            while left > 0 and (raw := readline(left)):
                left -= len(raw)
                for chunk in raw.splitlines(True) if b"\r" in raw else (raw,):
                    lineno += 1
                    line = chunk.decode("utf-8").rstrip("\r\n")
                    if not line or line.startswith("#"):
                        continue
                    fields = line.split("\t", 5)
                    if len(fields) != 6:
                        raise ValueError("expected 6 fields")
                    raw_id, month, uri, span_start, span_end, context = fields
                    if raw_id != last_raw_id:
                        doc_id, last_raw_id = parse_document_id(raw_id), raw_id
                    if month != last_month:
                        last_month = validate_month(month)
                        if window is not None and not window.contains(month):
                            raise ValueError(f"mention month {month} outside corpus window "
                                             f"{window.start}..{window.end}")
                    span = (int(span_start), int(span_end))
                    # json.loads runs the same scanstring, at the same offset,
                    # on a string with no space around it.
                    if (context[:1] == '"'
                            and (decoded := scanstring(context, 1))[1] == len(context)):
                        context = decoded[0]
                    else:
                        context = json.loads(context)
                        if not isinstance(context, str):
                            raise ValueError("context is not a JSON string")
                    records.append(new(MentionRecord, (doc_id, last_month, uri, span, context)))
    except ValueError as exc:
        reason = (f"invalid UTF-8 at byte offset {exc.start} of the line ({exc.reason})"
                  if isinstance(exc, UnicodeDecodeError) else exc)
        with open(path, "rb") as fh:  # the line ends before start, a block at a time
            last = b""
            for at in range(0, start, _COUNT_BLOCK):
                data = fh.read(min(_COUNT_BLOCK, start - at))
                # LF, CRLF or a lone CR; a CRLF that a block's end splits is one
                lineno += (data.count(b"\n") + data.count(b"\r") - data.count(b"\r\n")
                           - (last == b"\r" and data[:1] == b"\n"))
                last = data[-1:]
        raise MentionsFileError(f"{path}:{lineno}: {reason}") from None
    return records
