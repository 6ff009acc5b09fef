"""Small file helpers shared across the pipeline: atomic output, and the
checks of the JSON filter-configuration files."""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")


def atomic_write_text(path: str | Path, *texts: str) -> None:
    """Write the texts, one after another, to path via a temp file and
    rename, so readers never observe a half-written file.

    The file gets mode 0o666 less the process umask, as ``open`` would
    give it.
    """
    path = Path(path)
    while True:
        tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            for text in texts:
                fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_json(path: str | Path, parse: Callable[[object], T]) -> T:
    """``parse`` applied to the JSON value in a file.  A file that is not
    UTF-8 JSON, or a value that ``parse`` rejects with a ValueError, is a
    ValueError naming the file."""
    try:
        return parse(json.loads(Path(path).read_text(encoding="utf-8")))
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
