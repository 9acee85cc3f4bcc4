"""Atomic text-file writes, shared by the CLI reports and manifests, the
one CSV formatter behind the sample, density and figure-2 CSVs, and the one
fan-out of independent jobs over forked workers, `fork_map`.

`fork_map(fn, items)` yields fn(item) in order.  The calling process maps
the first item; when the process may run on two or more CPUs, forked
workers map the rest meanwhile, else the caller maps every item.  Either way
the results are the same.  A CSV is formatted a block of rows at a time
through it, and `verify identities` checks its shares of the suite through
it.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import closing
from itertools import chain
from typing import Callable, Iterable, Iterator, Sequence

_CSV_BLOCK = 8192

# the function that fork_map's workers apply; set before they fork
_fork_fn = None


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
    at `jobs`, and 1 where the platform cannot start processes by `fork`."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    processes = min(cpus, jobs)
    return processes if processes > 1 and hasattr(os, "fork") else 1


def _apply(item):
    return _fork_fn(item)


def fork_map(fn: Callable, items: Sequence) -> Iterator:
    """Yield fn(item) for each item, in order, as the consumer asks for them.

    This process applies `fn` to items[0].  When `_fork_workers(len(items))`
    allows two or more processes, a pool of min(that, len(items) - 1) forked
    workers applies it to items[1:] meanwhile; they inherit `fn` (set in a
    module global before the fork), so only items and results are pickled,
    and an exception in a worker is raised here.  Otherwise every item is
    mapped in-process.  multiprocessing is imported only for a pool.  Close
    the generator when the consumer stops early: that ends the pool."""
    global _fork_fn
    processes = _fork_workers(len(items))
    if processes < 2:
        yield from map(fn, items)
        return
    import multiprocessing  # imported here so that no other path pays for it

    _fork_fn = fn
    try:
        with multiprocessing.get_context("fork").Pool(min(processes, len(items) - 1)) as pool:
            rest = pool.imap(_apply, items[1:])
            yield fn(items[0])
            yield from rest
    finally:
        _fork_fn = None


def _write_csv(path: str, header: str, columns: Sequence) -> None:
    """Write equal-length columns as CSV rows under `header`, each value as
    its Python repr (round-trip floats).  Rows are formatted and written a
    block of _CSV_BLOCK at a time, so the whole file never sits in memory;
    the blocks are formatted by `fork_map`, so forked workers, which inherit
    the columns, send back only the formatted text."""
    import numpy as np  # imported here so that only sampling loads numpy

    columns = [np.asarray(col) for col in columns]
    row = ",".join(["%r"] * len(columns)) + "\n"

    def block(start: int) -> str:
        cells = [col[start:start + _CSV_BLOCK].tolist() for col in columns]
        return (row * len(cells[0])) % tuple(chain.from_iterable(zip(*cells)))

    with closing(fork_map(block, range(0, len(columns[0]), _CSV_BLOCK))) as blocks:
        write_atomic(path, chain([header + "\n"], blocks))
