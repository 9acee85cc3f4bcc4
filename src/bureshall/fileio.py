"""Atomic text-file writes, shared by the CLI reports and manifests and by the
sample and density CSV writers."""

from __future__ import annotations

import os
import tempfile


def write_atomic(path: str, content: str) -> None:
    """Write `content` to `path` via a temporary file in the same directory
    and an atomic rename; the directory is created if missing."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
