"""Atomic text-file writes, shared by the CLI reports and manifests, the
one CSV formatter behind the sample, density and figure-2 CSVs, and the one
count of the processes that may share independent jobs.

A CSV is formatted a block of rows at a time.  When it has two or more
blocks and the process may run on two or more CPUs, forked workers format
the blocks in parallel and the parent writes them in order; otherwise the
blocks are formatted in-process.  Either way the bytes are the same.
"""

from __future__ import annotations

import os
import tempfile
from itertools import chain
from typing import Iterable, Sequence

_CSV_BLOCK = 8192

# (row template, columns) of the CSV being written; forked workers inherit it
_job = None


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


def _fork_workers(jobs: int) -> int:
    """How many processes may share `jobs` independent jobs: the usable CPUs
    (`os.sched_getaffinity`, taken as 1 where the platform lacks it), capped
    at `jobs`, and 1 where the platform cannot start processes by `fork`.
    multiprocessing is imported only when the answer could exceed 1."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if min(cpus, jobs) > 1:
        import multiprocessing  # imported here so that no other path pays for it

        if "fork" in multiprocessing.get_all_start_methods():
            return min(cpus, jobs)
    return 1


def _format_block(start: int) -> str:
    """The CSV rows start .. start + _CSV_BLOCK - 1 of the current job."""
    row, columns = _job
    cells = [col[start:start + _CSV_BLOCK].tolist() for col in columns]
    return (row * len(cells[0])) % tuple(chain.from_iterable(zip(*cells)))


def _write_csv(path: str, header: str, columns: Sequence) -> None:
    """Write equal-length columns as CSV rows under `header`, each value as
    its Python repr (round-trip floats).  Rows are formatted and written a
    block of _CSV_BLOCK at a time, so the whole file never sits in memory.
    With two or more blocks and two or more usable CPUs, a pool of forked
    workers formats the blocks (they inherit the columns, so only the
    formatted text crosses processes) and the blocks are written in order."""
    import numpy as np  # imported here so that only sampling loads numpy

    global _job
    columns = [np.asarray(col) for col in columns]
    starts = range(0, len(columns[0]), _CSV_BLOCK)
    workers = _fork_workers(len(starts))
    _job = (",".join(["%r"] * len(columns)) + "\n", columns)
    try:
        if workers > 1:
            import multiprocessing

            with multiprocessing.get_context("fork").Pool(workers) as pool:
                write_atomic(path, chain([header + "\n"], pool.imap(_format_block, starts)))
        else:
            write_atomic(path, chain([header + "\n"], map(_format_block, starts)))
    finally:
        _job = None
