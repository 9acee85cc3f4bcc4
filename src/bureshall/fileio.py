"""Atomic text-file writes, shared by the CLI reports and manifests, and the
one CSV formatter behind the sample, density and figure-2 CSVs."""

from __future__ import annotations

import os
import tempfile
from itertools import chain
from typing import Iterable, Sequence

_CSV_BLOCK = 8192


def write_atomic(path: str, content: str | Iterable[str]) -> None:
    """Write `content` (a string, or chunks of one) to `path` via a temporary
    file in the same directory and an atomic rename; the directory is created
    if missing."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines([content] if isinstance(content, str) else content)
        # mkstemp creates the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: str, header: str, columns: Sequence) -> None:
    """Write equal-length columns as CSV rows under `header`, each value as
    its Python repr (round-trip floats).  Rows are formatted and written a
    block at a time, so the whole file never sits in memory."""
    import numpy as np  # imported here so that only sampling loads numpy

    columns = [np.asarray(col) for col in columns]
    row = ",".join(["%r"] * len(columns)) + "\n"

    def chunks():
        yield header + "\n"
        for start in range(0, len(columns[0]), _CSV_BLOCK):
            cells = [col[start:start + _CSV_BLOCK].tolist() for col in columns]
            yield (row * len(cells[0])) % tuple(chain.from_iterable(zip(*cells)))

    write_atomic(path, chunks())
