"""Corpus ingest: manifest loading, latest-version selection, document reading.

A corpus is described by a manifest file (one tab-separated record per
article version) plus one UTF-8 plain-text file per version.  Articles may
appear in several versions; only the latest version of each is analyzed.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import NamedTuple

__all__ = [
    "DocumentId",
    "Document",
    "ManifestEntry",
    "MonthWindow",
    "DEFAULT_WINDOW",
    "ManifestError",
    "DuplicateVersionError",
    "DocumentReadError",
    "parse_document_id",
    "validate_month",
    "load_manifest",
    "select_latest_versions",
    "filter_window",
    "read_document",
]


class ManifestError(ValueError):
    """A manifest record could not be parsed; message names the line."""


class DuplicateVersionError(ValueError):
    """The same (base_id, version) pair appears more than once."""


class DocumentReadError(OSError):
    """A document text file was missing, unreadable, or not valid UTF-8;
    ``reason`` names the path and the cause."""


_MONTH_RE = re.compile(r"^(\d{4})-(0[1-9]|1[0-2])$")
_VERSION_SUFFIX_RE = re.compile(r"^(.*)v(\d+)$")


def validate_month(month: str) -> str:
    """Check a YYYY-MM string against the month grammar; return it unchanged."""
    if not _MONTH_RE.match(month):
        raise ValueError(f"invalid month {month!r}: expected YYYY-MM with MM in 01..12")
    return month


# typing.NamedTuple forbids a __new__ of its own, so a record that checks its
# fields subclasses its NamedTuple and checks them there.
class _DocumentId(NamedTuple):
    base_id: str
    version: int


class DocumentId(_DocumentId):
    """An article identifier split into a base id and a version number."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> DocumentId:
        self = super().__new__(cls, *args, **kwargs)
        if self.version < 1:
            raise ValueError(f"version must be >= 1, got {self.version}")
        if not self.base_id or any(c.isspace() for c in self.base_id):
            raise ValueError(f"base_id must be non-empty without whitespace: {self.base_id!r}")
        return self

    def __str__(self) -> str:
        return f"{self.base_id}v{self.version}"


def parse_document_id(raw: str) -> DocumentId:
    """Parse an id string, splitting a trailing ``v<digits>`` suffix.

    ``2104.01234v3`` becomes base ``2104.01234`` version 3; an id without
    the suffix is version 1.
    """
    m = _VERSION_SUFFIX_RE.match(raw)
    if m and m.group(1):
        return DocumentId(m.group(1), int(m.group(2)))
    return DocumentId(raw, 1)


class _MonthWindow(NamedTuple):
    start: str = "2007-04"
    end: str = "2021-12"


class MonthWindow(_MonthWindow):
    """Inclusive publication-month range accepted by the pipeline."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> MonthWindow:
        self = super().__new__(cls, *args, **kwargs)
        validate_month(self.start)
        validate_month(self.end)
        if self.start > self.end:
            raise ValueError(f"window start {self.start} is after end {self.end}")
        return self

    def contains(self, month: str) -> bool:
        # Zero-padded YYYY-MM strings order correctly under string comparison.
        return self.start <= month <= self.end


DEFAULT_WINDOW = MonthWindow()


class ManifestEntry(NamedTuple):
    doc_id: DocumentId
    month: str
    path: str


class Document(NamedTuple):
    """One article version: identifier, publication month, extracted text."""

    id: DocumentId
    month: str
    text: str


def load_manifest(path: str | Path) -> tuple[ManifestEntry, ...]:
    """Load a manifest file without touching the referenced document files.

    Format: UTF-8 (a leading BOM is skipped), one record per line, fields
    ``id<TAB>version<TAB>YYYY-MM<TAB>relative/path.txt``.  Lines starting
    with ``#`` and blank lines are ignored.  Record order is preserved and
    no validation against disk contents happens here.
    """
    entries: list[ManifestEntry] = []
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise ManifestError(
                    f"{path}:{lineno}: expected 4 tab-separated fields, got {len(fields)}"
                )
            raw_id, raw_version, month, rel_path = fields
            try:
                version = int(raw_version)
            except ValueError:
                raise ManifestError(
                    f"{path}:{lineno}: version is not an integer: {raw_version!r}"
                ) from None
            try:
                validate_month(month)
                # The id column may carry a v<digits> suffix; it must then
                # agree with the version column.
                parsed = parse_document_id(raw_id)
                if parsed.base_id != raw_id and parsed.version != version:
                    raise ValueError(
                        f"id suffix {raw_id!r} disagrees with version column {version}")
                if not rel_path:
                    raise ValueError("empty document path")
                doc_id = DocumentId(parsed.base_id, version)
            except ValueError as exc:
                raise ManifestError(f"{path}:{lineno}: {exc}") from None
            entries.append(ManifestEntry(doc_id, month, rel_path))
    return tuple(entries)


def select_latest_versions(manifest: tuple[ManifestEntry, ...]) -> tuple[ManifestEntry, ...]:
    """Keep exactly one entry per base_id: the one with the highest version.

    The relative order of surviving entries is preserved.  Duplicate
    (base_id, version) pairs are an error.
    """
    seen: set[DocumentId] = set()
    duplicates: set[DocumentId] = set()
    latest: dict[str, int] = {}
    for entry in manifest:
        doc_id = entry.doc_id
        if doc_id in seen:
            duplicates.add(doc_id)
        seen.add(doc_id)
        latest[doc_id.base_id] = max(doc_id.version, latest.get(doc_id.base_id, 0))
    if duplicates:
        listing = ", ".join(map(str, sorted(duplicates)))
        raise DuplicateVersionError(f"duplicate id/version pairs in manifest: {listing}")
    return tuple(e for e in manifest if e.doc_id.version == latest[e.doc_id.base_id])


def filter_window(
    manifest: tuple[ManifestEntry, ...], window: MonthWindow = DEFAULT_WINDOW
) -> tuple[tuple[ManifestEntry, ...], int]:
    """Drop entries whose month falls outside the window.

    Returns the filtered manifest and the number of rejected entries; the
    caller is expected to surface the count as a warning, not an error.
    """
    kept = tuple(e for e in manifest if window.contains(e.month))
    return kept, len(manifest) - len(kept)


def read_document(entry: ManifestEntry, root: str | Path) -> Document:
    """Read one document's text file relative to the corpus root.

    The text is decoded as UTF-8 with universal newlines, so CRLF and CR
    line ends each read as a single newline character.
    """
    path = Path(root) / entry.path
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        reason = f"{path}: {exc}"
        error = DocumentReadError(f"cannot read document {entry.doc_id}: {reason}")
        error.reason = reason
        raise error from exc
    return Document(entry.doc_id, entry.month, text)

