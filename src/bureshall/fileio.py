"""Atomic text-file writes, shared by the CLI reports and manifests, the
one CSV formatter behind the sample, density and figure-2 CSVs, and the one
fan-out of independent jobs over forked workers, `fork_map`.

`fork_map(fn, items)` yields fn(item) in order, taking the items as it
goes.  The calling process maps the first item; when the process may run on
two or more CPUs, workers forked before the first item is taken map the rest
meanwhile, else the caller maps every item.  Either way the results are the
same.  `verify identities` checks its shares of the suite through it, and a
sample CSV formats its blocks through it as the sampler draws them: a worker
formats block k while the caller draws block k + 1, and the workers inherit
only the small heap the caller had before sampling.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from contextlib import closing
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, Optional

# the function that fork_map's workers apply; set before they fork
_fork_fn = None


def write_atomic(path: str, content: str | Iterable[str]) -> None:
    """Write `content` (a string, or chunks of one) to `path` via a temporary
    file in the same directory and an atomic rename; the directory is created
    if missing.  The temporary file is named for this process and thread and
    created exclusively, with the mode that open() gives under the umask."""
    target = os.path.abspath(path)
    os.makedirs(os.path.dirname(target), exist_ok=True)
    tmp = f"{target}.{os.getpid()}-{threading.get_ident()}.tmp"
    try:
        with open(tmp, "x") as fh:
            fh.writelines([content] if isinstance(content, str) else content)
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


def fork_map(fn: Callable, items: Iterable, jobs: Optional[int] = None) -> Iterator:
    """Yield fn(item) for each item, in order, as the consumer asks for them.

    `jobs` is the number of items, len(items) by default.  This process
    applies `fn` to the first item.  When `_fork_workers(jobs)` allows two
    or more processes, a pool of w = min(that, jobs - 1) workers is forked
    before the first item is taken, and applies `fn` to the rest meanwhile.
    The items are taken lazily, in this thread: w of them before this
    process maps the first, then one more each time a result is yielded, so
    at most w + 1 are in flight.  Workers inherit `fn` (set in a module
    global before the fork), so only items and results are pickled, an item
    in a pool thread after it is handed over: `items` must not change an
    item it has yielded.  An exception in a worker is raised here.
    Otherwise every item is mapped in-process.  multiprocessing is imported
    only for a pool.  Close the generator when the consumer stops early:
    that ends the pool."""
    global _fork_fn
    jobs = len(items) if jobs is None else jobs
    processes = _fork_workers(jobs)
    if processes < 2:
        yield from map(fn, items)
        return
    import multiprocessing  # imported here so that no other path pays for it

    _fork_fn = fn
    workers = min(processes, jobs - 1)
    try:
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            items = iter(items)
            first = next(items)
            pending = deque(pool.apply_async(_apply, (item,)) for item in islice(items, workers))
            yield fn(first)
            for item in items:
                pending.append(pool.apply_async(_apply, (item,)))
                yield pending.popleft().get()
            for result in pending:
                yield result.get()
    finally:
        _fork_fn = None


def _write_csv(path: str, header: str, blocks: Iterable, count: int = 1) -> None:
    """Write CSV rows under `header`, each value as its Python repr
    (round-trip floats).  Each of the `count` blocks is a list of
    equal-length columns, formatted with one row template through
    `fork_map`, so the whole file never sits in memory, and forked workers
    send back only the formatted text."""
    import numpy as np  # imported here so that only sampling loads numpy

    def block(columns: list) -> str:
        cells = [np.asarray(col).tolist() for col in columns]
        row = ",".join(["%r"] * len(cells)) + "\n"
        return (row * len(cells[0])) % tuple(chain.from_iterable(zip(*cells)))

    with closing(fork_map(block, blocks, count)) as formatted:
        write_atomic(path, chain([header + "\n"], formatted))
