"""Atomic text-file writes, shared by the CLI reports and manifests, the
one CSV formatter behind the sample, density and figure-2 CSVs, and the one
fan-out of independent jobs over forked workers, `fork_map`.

`fork_map(fn, items)` returns [fn(item) for item in items].  The calling
process maps the first item; when the process may run on two or more CPUs,
forked workers map the rest meanwhile, else the caller maps every item.
Either way the results are the same.  `verify identities` checks its shares
of the suite through it.

A CSV of two or more blocks, on two or more usable CPUs, is formatted and
written by one writer process, forked before the first block is drawn, so it
inherits only the small heap the caller had before sampling.  The caller
draws each block and pickles its columns into a pipe; no text comes back.
"""

from __future__ import annotations

import os
import threading
from itertools import chain
from typing import Callable, Iterable, Sequence

# the function that fork_map's workers apply; set before they fork
_fork_fn = None


def _temp_path(path: str) -> str:
    """The temporary file that a write of `path` goes through: in the same
    directory, which is created if missing, and named for this process and
    thread."""
    target = os.path.abspath(path)
    os.makedirs(os.path.dirname(target), exist_ok=True)
    return f"{target}.{os.getpid()}-{threading.get_ident()}.tmp"


def write_atomic(path: str, content: str | Iterable[str]) -> None:
    """Write `content` (a string, or chunks of one) to `path` via a temporary
    file in the same directory and an atomic rename; the directory is created
    if missing.  The temporary file is named for this process and thread and
    created exclusively, with the mode that open() gives under the umask."""
    tmp = _temp_path(path)
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


def fork_map(fn: Callable, items: Sequence) -> list:
    """[fn(item) for item in items], in order.

    This process applies `fn` to the first item.  When `_fork_workers`
    allows two or more processes, a pool of len(items) - 1 of them, capped
    at the usable CPUs less one, applies `fn` to the rest meanwhile.  Workers
    inherit `fn` (set in a module global before the fork), so only items and
    results are pickled.  An exception in a worker is raised here.
    Otherwise every item is mapped in-process.  multiprocessing is imported
    only for a pool."""
    global _fork_fn
    processes = _fork_workers(len(items))
    if processes < 2:
        return list(map(fn, items))
    import multiprocessing  # imported here so that no other path pays for it

    _fork_fn = fn
    try:
        with multiprocessing.get_context("fork").Pool(processes - 1) as pool:
            rest = pool.map_async(_apply, items[1:])
            first = fn(items[0])
            return [first, *rest.get()]
    finally:
        _fork_fn = None


def _write_csv(path: str, header: str, blocks: Iterable, count: int = 1) -> None:
    """Write CSV rows under `header`, each value as its Python repr
    (round-trip floats).  Each of the `count` blocks is a list of
    equal-length columns, formatted with one row template, so the whole file
    never sits in memory.  With two or more blocks and usable CPUs, one
    forked writer process formats and writes them (see _forked_write)."""
    import numpy as np  # imported here so that only sampling loads numpy

    def block(columns: list) -> str:
        cells = [np.asarray(col).tolist() for col in columns]
        row = ",".join(["%r"] * len(cells)) + "\n"
        return (row * len(cells[0])) % tuple(chain.from_iterable(zip(*cells)))

    if _fork_workers(count) < 2:
        write_atomic(path, chain([header + "\n"], map(block, blocks)))
    else:
        _forked_write(path, header, blocks, block)


def _forked_write(path: str, header: str, blocks: Iterable, block: Callable) -> None:
    """write_atomic(path, header and block(columns) for each of `blocks`),
    formatted and written by one writer process, forked before the first
    block is taken.  This process pickles each block's columns into a pipe,
    then an end marker (None), and renames the temporary file once the
    writer has exited with status 0.  The writer ends with os._exit, so it
    never returns into the caller's frames.  If it fails, or reads the end
    of the pipe with no end marker (this process failed or was killed), it
    unlinks the file, sends its exception back through a second pipe, which
    is raised here, and exits with status 1.  Every path reaps the writer."""
    import pickle

    tmp = _temp_path(path)
    data_r, data_w = os.pipe()
    report_r, report_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(data_w)
            os.close(report_r)
            # leaving the with closes the pipe, so a caller blocked on a
            # full pipe gets EPIPE before the report is written
            with open(data_r, "rb") as source, open(tmp, "x") as out:
                out.write(header + "\n")
                while (columns := pickle.load(source)) is not None:
                    out.write(block(columns))
            status = 0
        except BaseException as exc:
            if os.path.exists(tmp):
                os.unlink(tmp)
            # an exception that cannot be pickled, or a caller that is gone,
            # ends the report early: the caller then reports the exit status
            with open(report_w, "wb") as fh:
                fh.write(pickle.dumps(exc))
        finally:
            os._exit(status)

    os.close(data_r)
    os.close(report_w)
    try:
        try:
            with open(data_w, "wb") as sink:
                for columns in blocks:
                    pickle.dump(columns, sink, pickle.HIGHEST_PROTOCOL)
                pickle.dump(None, sink)
        except BrokenPipeError:
            pass  # the writer stopped reading; its exception is raised below
        finally:
            # read the report to its end, which the writer's exit marks,
            # before reaping it, so that a long report cannot block the writer
            with open(report_r, "rb") as fh:
                report = fh.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if status != 0:
            raise (pickle.loads(report) if report else
                   RuntimeError(f"CSV writer process {pid} exited with status {status}"))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):  # the writer was killed before it could unlink it
            os.unlink(tmp)
        raise
