"""Atomic text-file writes, shared by the CLI reports and manifests, the
one CSV formatter behind the sample, density and figure-2 CSVs, and `_fork`,
the one way the package starts a process: a forked child inherits the
function and its arguments, and pickles back only the outcome.  Its one
caller is `fork_map`, through which `verify identities` maps one share of
its suite per usable CPU, and `_feed` hands items through a pipe to one
forked consumer: the CSV writer, or the process that writes a run's
manifest (see `manifest`).
"""

from __future__ import annotations

import os
import threading
from contextlib import suppress
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
    _write_via(_temp_path(path), path, content)


def _write_via(tmp: str, path: str, content: str | Iterable[str]) -> None:
    """write_atomic through the temporary file `tmp`, which no failure leaves."""
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


class _End(Exception):
    """A feed's end: put sends it after the last item (a class pickles by
    reference, so it arrives as itself) and raises it once the consumer ended."""


def _feed(produce: Callable, consume: Callable):
    """Return produce(put), run here, while one forked child runs
    consume(items) over what put(item) pickles into a pipe of _PIPE_SIZE
    bytes (Linux's default `pipe-max-size`, where it can be set), so that
    this process can run several items ahead.  An error in produce is raised
    as it is and ends `items` with EOFError, as does this process's death.
    An error in consume is raised here, and the next put stops produce.  If
    consume returns early, the child drops the items left."""
    import fcntl
    import pickle

    data_r, data_w = os.pipe()
    with suppress(AttributeError, OSError):  # no such fcntl here, or the size was refused
        fcntl.fcntl(data_w, fcntl.F_SETPIPE_SZ, _PIPE_SIZE)

    def send():
        os.close(data_r)  # so that a put after the consumer has ended gets EPIPE

        def put(item) -> None:
            data = memoryview(pickle.dumps(item, pickle.HIGHEST_PROTOCOL))
            try:
                while data:
                    data = data[os.write(data_w, data):]
            except BrokenPipeError as exc:
                raise _End from exc

        try:
            result = produce(put)
            put(_End)
            return result
        except _End:
            return None  # the consumer has failed: joining it raises its error
        finally:
            os.close(data_w)

    def receive():
        os.close(data_w)
        with open(data_r, "rb") as fh:
            def items():
                # EOFError at the end of a pipe with no marker: produce
                # failed or this process died
                while (item := pickle.load(fh)) is not _End:
                    yield item

            remaining = items()
            consume(remaining)
            for _ in remaining:  # consume returned early: drop the items left
                pass

    return fork_map(lambda job: job(), [send, receive])[0]


def _write_csv(path: str, header: str, blocks: Iterable) -> None:
    """Write CSV rows under `header`, each value as its Python repr
    (round-trip floats), like write_atomic.  Each block is a list of
    equal-length columns, formatted with one row template, so the whole file
    never sits in memory.  Where os.fork exists, a writer child formats and
    writes the blocks (see _feed), and an error here wins over the writer's."""
    import numpy as np  # imported here so that only sampling loads numpy

    def block(columns: list) -> str:
        cells = [np.asarray(col).tolist() for col in columns]
        row = ",".join(["%r"] * len(cells)) + "\n"
        return (row * len(cells[0])) % tuple(chain.from_iterable(zip(*cells)))

    tmp = _temp_path(path)

    def write(columns: Iterable) -> None:
        _write_via(tmp, path, chain([header + "\n"], map(block, columns)))

    def send(put: Callable) -> None:
        for columns in blocks:
            put(columns)

    if not hasattr(os, "fork"):
        return write(blocks)
    try:
        _feed(send, write)
    finally:
        if os.path.exists(tmp):  # the writer was killed before it could unlink it
            os.unlink(tmp)
