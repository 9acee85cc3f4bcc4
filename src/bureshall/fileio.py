"""Atomic text-file writes, shared by the CLI reports and manifests, the
one CSV formatter behind the sample, density and figure-2 CSVs, and `_fork`,
the one way the package starts a process: a forked child inherits the
function and its arguments, and pickles back only the outcome.  Its users:
`fork_map`, through which `verify identities` maps one share of its suite
per usable CPU, and the writer of a CSV of two or more blocks, forked before
the first block is drawn, so it inherits only the small heap the caller had
before sampling; the caller pickles each block's columns into a pipe, and no
text comes back.  That pipe asks for _PIPE_SIZE bytes, Linux's default
`pipe-max-size`, so that the caller can hand over several blocks while the
writer formats one; where the size cannot be set, the pipe keeps the default
(64 KiB on Linux).  `manifest` also forks, through `_fork`, the process
that writes a run's manifest.
"""

from __future__ import annotations

import os
import threading
from itertools import chain
from typing import Callable, Iterable, Sequence

_PIPE_SIZE = 1 << 20


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


def _fork(fn: Callable, *args) -> Callable:
    """Run fn(*args) in a forked child and return a join() for its outcome.

    The child pickles fn's result, or the exception it raised, into a report
    pipe and leaves by os._exit, so it never returns into the caller's
    frames; its status is 0 only once the report is written.  join(), called
    once, reads the report to its end, reaps the child, then returns the
    result or raises the child's exception.  A child that left no report (it
    was killed, or its outcome did not pickle) makes join() raise
    RuntimeError naming its exit status."""
    import pickle

    report_r, report_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(report_r)
            try:
                outcome = fn(*args), None
            except BaseException as exc:
                outcome = None, exc
            with open(report_w, "wb") as fh:
                pickle.dump(outcome, fh, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(report_w)

    def join():
        with open(report_r, "rb") as fh:
            report = fh.read()
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if status != 0:
            raise RuntimeError(f"forked process {pid} exited with status {status}")
        result, exc = pickle.loads(report)
        if exc is not None:
            raise exc
        return result

    return join


def fork_map(fn: Callable, items: Sequence) -> list:
    """[fn(item) for item in items], in order: this process maps items[0]
    while one forked child per other item maps that item (see _fork), so the
    caller sizes `items`.  A child's exception is raised here.  Every child is
    reaped; if this process's own item raises, that error is raised."""
    joins = []
    try:
        for item in items[1:]:
            joins.append(_fork(fn, item))
        results = [fn(items[0])]
        while joins:
            results.append(joins.pop(0)())
        return results
    finally:
        for join in joins:  # left by an error here, which is the one raised
            try:
                join()
            except BaseException:
                pass


def _write_csv(path: str, header: str, blocks: Iterable, count: int = 1) -> None:
    """Write CSV rows under `header`, each value as its Python repr
    (round-trip floats).  Each of the `count` blocks is a list of
    equal-length columns, formatted with one row template, so the whole file
    never sits in memory.  With two or more blocks, where os.fork exists, a
    writer child formats and writes them while this process pickles their
    columns into a pipe, then an end marker (None).  No failure leaves the
    temporary file, and an error here wins over the writer's."""
    import numpy as np  # imported here so that only sampling loads numpy

    def block(columns: list) -> str:
        cells = [np.asarray(col).tolist() for col in columns]
        row = ",".join(["%r"] * len(cells)) + "\n"
        return (row * len(cells[0])) % tuple(chain.from_iterable(zip(*cells)))

    if count < 2 or not hasattr(os, "fork"):
        write_atomic(path, chain([header + "\n"], map(block, blocks)))
        return
    import fcntl
    import pickle

    tmp = _temp_path(path)
    data_r, data_w = os.pipe()
    try:
        fcntl.fcntl(data_w, fcntl.F_SETPIPE_SZ, _PIPE_SIZE)
    except (AttributeError, OSError):  # no such fcntl here, or the size was refused
        pass

    def send() -> None:
        os.close(data_r)  # so that a write after the writer has failed gets EPIPE
        try:
            with open(data_w, "wb") as sink:
                for columns in blocks:
                    pickle.dump(columns, sink, pickle.HIGHEST_PROTOCOL)
                pickle.dump(None, sink)
        except BrokenPipeError:
            pass  # the writer stopped reading; joining it raises its error

    def write() -> None:
        # pickle.load raises EOFError at the end of a pipe with no end
        # marker: the sender failed or was killed
        os.close(data_w)
        try:
            with open(data_r, "rb") as fh, open(tmp, "x") as out:
                columns = iter(lambda: pickle.load(fh), None)
                out.writelines(chain([header + "\n"], map(block, columns)))
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    try:
        fork_map(lambda job: job(), [send, write])  # the writer forks before a block is taken
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):  # the writer was killed before it could unlink it
            os.unlink(tmp)
        raise
