"""Small file-output helpers shared across the pipeline."""

from __future__ import annotations

import os
from pathlib import Path


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write text to path via a temp file and rename, so readers never
    observe a half-written file.

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
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
