"""The one writer of opscan's files. Each is written beside its target as
``<path>.tmp``, fsynced and renamed over the target, so a reader, or a
crash, sees either the previous file or the complete new one."""

from __future__ import annotations

import os
from collections.abc import Iterable
from pathlib import Path


def write_atomic(path, content: str | bytes | Iterable[str | bytes]) -> None:
    """Replace ``path`` with ``content``: str or bytes, or an iterable of str
    and bytes chunks written in order; str is written as UTF-8. On any
    failure, the iterator's included, the tmp file is removed and ``path``
    is left as it was."""
    tmp = Path(f"{path}.tmp")
    chunks = (content,) if isinstance(content, (str, bytes)) else content
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
