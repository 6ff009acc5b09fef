"""Small file helpers shared across the pipeline: atomic output, unlinked
spool files, and the checks of the JSON filter-configuration files."""

from __future__ import annotations

import json
import os
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence, TextIO, TypeVar

T = TypeVar("T")


def _create(path: Path, flags: int) -> tuple[int, Path]:
    """A new file next to path under a fresh ``<name>.<random>.tmp`` name,
    opened with flags: its descriptor and its name."""
    while True:
        tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
        with suppress(FileExistsError):
            return os.open(tmp, flags | os.O_CREAT | os.O_EXCL, 0o666), tmp


@contextmanager
def atomic_open(path: str | Path) -> Iterator[TextIO]:
    """A UTF-8 text handle (``\\n`` line ends) on a temp file next to path,
    renamed to path when the block ends without an exception and removed
    when it raises, so readers never observe a half-written file.

    The file gets mode 0o666 less the process umask, as ``open`` would
    give it.
    """
    fd, tmp = _create(Path(path), os.O_WRONLY)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write text to path with ``atomic_open``."""
    with atomic_open(path) as fh:
        fh.write(text)


def open_spool(directory: str | Path) -> BinaryIO:
    """A new read-write binary file in directory, made under a fresh name
    that is unlinked at once, so that once it is open no exit of the
    process, however abrupt, leaves it behind.  Windows cannot unlink an open file: there it
    is opened O_TEMPORARY, and closing it, as any exit does, deletes it."""
    temporary = getattr(os, "O_TEMPORARY", 0)
    fd, tmp = _create(Path(directory) / "spool",
                      os.O_RDWR | temporary | getattr(os, "O_BINARY", 0))
    if not temporary:
        os.unlink(tmp)
    return open(fd, "w+b")


def load_json(path: str | Path, parse: Callable[[object], T]) -> T:
    """``parse`` applied to the JSON value in a file (a leading BOM is
    skipped).  A file that is not UTF-8 JSON, or a value that ``parse``
    rejects with a ValueError, is a ValueError naming the file."""
    try:
        return parse(json.loads(Path(path).read_text(encoding="utf-8-sig")))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def json_object(value: object, what: str, keys: Sequence[str],
                required: Iterable[str] = ()) -> dict:
    """``value`` checked to be a JSON object with every required key and no
    key outside ``keys``."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, not {json.dumps(value)[:60]}")
    for key in value:
        if key not in keys:
            raise ValueError(f"unknown key {key!r} in {what}; the keys are {', '.join(keys)}")
    for key in required:
        if key not in value:
            raise ValueError(f"{what} has no {key!r} key")
    return value


def string_list(value: object, what: str) -> list[str]:
    """``value`` checked to be a JSON list of strings."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ValueError(f"{what} must be a list of strings, not {json.dumps(value)[:60]}")
    return value
