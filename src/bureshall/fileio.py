"""Atomic file writes, shared by the CLI reports, CSVs and run manifests,
the one CSV formatter behind the sample, density and figure-2 CSVs, and
`_fork`, the one way the package starts a process: a forked child inherits
the function and its arguments, and pickles back only the outcome.  Its one
caller is `fork_map`, through which `verify identities` maps one share of
its suite per usable CPU, and `_feed` hands items through a pipe to one
forked consumer, the CSV writer.

Every output is written by `_write_via`, which hashes the bytes as it
writes them, so `write_manifest` lists the SHA-256 and size of each output
in the run's own process without reading it back.  Only the commands that
write a manifest import this module, so `cumulants` compiles none of it.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from contextlib import suppress
from itertools import chain
from typing import Callable, Iterable, Sequence

_PIPE_SIZE = 1 << 20

# the SHA-256 and size of each file written here, by the path it was given,
# until a manifest lists it
_written: dict[str, tuple[str, int]] = {}


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
    _written[path] = _write_via(_temp_path(path), path, content)


def _write_via(tmp: str, path: str, content: str | Iterable[str]) -> tuple[str, int]:
    """write_atomic through the temporary file `tmp`, which no failure leaves;
    return the SHA-256 and size of the bytes written.  hashlib is imported
    here, the one place that hashes, so that only a run that writes loads it."""
    import hashlib

    digest, size = hashlib.sha256(), 0
    try:
        with open(tmp, "xb") as fh:
            for text in [content] if isinstance(content, str) else content:
                data = text.encode()
                digest.update(data)
                size += fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return digest.hexdigest(), size


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
    """Return consume(items), run in one forked child over what put(item)
    pickles into a pipe of _PIPE_SIZE bytes (Linux's default
    `pipe-max-size`, where it can be set), while produce(put) runs here, so
    that this process can run several items ahead.  An error in produce is
    raised as it is and ends `items` with EOFError, as does this process's
    death.  An error in consume is raised here, and the next put stops
    produce."""
    import fcntl
    import pickle

    data_r, data_w = os.pipe()
    with suppress(AttributeError, OSError):  # no such fcntl here, or the size was refused
        fcntl.fcntl(data_w, fcntl.F_SETPIPE_SZ, _PIPE_SIZE)

    def send() -> None:
        os.close(data_r)  # so that a put after the consumer has ended gets EPIPE

        def put(item) -> None:
            data = memoryview(pickle.dumps(item, pickle.HIGHEST_PROTOCOL))
            try:
                while data:
                    data = data[os.write(data_w, data):]
            except BrokenPipeError as exc:
                raise _End from exc

        try:
            produce(put)
            put(_End)
        except _End:
            pass  # the consumer has ended: joining it returns its result or raises its error
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

            return consume(items())

    return fork_map(lambda job: job(), [send, receive])[1]


def _write_csv(path: str, header: str, blocks: Iterable) -> None:
    """Write CSV rows under `header`, each value as its Python repr
    (round-trip floats), like write_atomic.  Each block is a list of
    equal-length columns, formatted with one row template, so the whole file
    never sits in memory.  Where os.fork exists, a writer child formats,
    hashes and writes the blocks (see _feed), and an error here wins over
    the writer's."""
    import numpy as np  # imported here so that only sampling loads numpy

    def block(columns: list) -> str:
        cells = [np.asarray(col).tolist() for col in columns]
        row = ",".join(["%r"] * len(cells)) + "\n"
        return (row * len(cells[0])) % tuple(chain.from_iterable(zip(*cells)))

    tmp = _temp_path(path)

    def write(columns: Iterable) -> tuple[str, int]:
        return _write_via(tmp, path, chain([header + "\n"], map(block, columns)))

    def forked_write(columns: Iterable) -> tuple[str, int]:
        # the writer alone lifts the run's block (see _without_openssl), so
        # that it hashes with OpenSSL, several times faster than the builtin
        if sys.modules.get("_hashlib", False) is None:
            del sys.modules["_hashlib"]
            sys.modules.pop("hashlib", None)
        return write(columns)

    def send(put: Callable) -> None:
        for columns in blocks:
            put(columns)

    if not hasattr(os, "fork"):
        _written[path] = write(blocks)
        return
    try:
        _written[path] = _feed(send, forked_write)
    finally:
        if os.path.exists(tmp):  # the writer was killed before it could unlink it
            os.unlink(tmp)


# ---------------------------------------------------------------------------
# run manifest
# ---------------------------------------------------------------------------

# hashlib's builtin algorithms, without which an `import hashlib` that finds
# no _hashlib logs an error for each algorithm it lacks
_BUILTIN_HASHES = ("_md5", "_sha1", "_sha3", "_blake2",
                   *(("_sha2",) if sys.version_info >= (3, 12) else ("_sha256", "_sha512")))


def _without_openssl() -> None:
    """Make `import _hashlib` fail in this process, unless it is loaded
    already or a builtin algorithm is missing, so that hashlib, which
    numpy.random loads through secrets and hmac and _write_via to hash,
    runs on its builtins and OpenSSL is never mapped."""
    from importlib.util import find_spec

    try:
        if all(find_spec(name) for name in _BUILTIN_HASHES):
            sys.modules.setdefault("_hashlib", None)
    except ValueError:  # find_spec of a name that sys.modules maps to None
        pass


def _timestamp() -> str:
    """Now, in UTC, as YYYY-MM-DDTHH:MM:SS.ffffff+00:00 with all six digits
    of the fraction, from the builtin time module: importing datetime
    maps about half a MiB."""
    seconds, ns = divmod(time.time_ns(), 1_000_000_000)
    return f"{time.strftime('%Y-%m-%dT%H:%M:%S', time.gmtime(seconds))}.{ns // 1000:06d}+00:00"


def write_manifest(args, kernel: dict | None = None) -> str:
    """Write the manifest of the run that `args` describes next to its first
    output and return its path: the argv that `cli.main` parsed, the seeds,
    the version, a timestamp, the SHA-256 and size that each output's write
    recorded and, for an MCMC run, the kernel's diagnostics."""
    import json

    from . import __version__

    path = args.outputs[0] + ".manifest.json"
    manifest = {
        "command": "simulate" if args.command == "simulate" else f"verify-{args.target}",
        "argv": args.argv,
        "seeds": args.seeds,
        "version": __version__,
        "timestamp": _timestamp(),
        "outputs": [{"path": p, "sha256": sha256, "bytes": size}
                    for p in args.outputs for sha256, size in [_written.pop(p)]],
    }
    if kernel:
        manifest["kernel"] = kernel
    write_atomic(path, json.dumps(manifest, indent=2) + "\n")
    return path


def run_with_manifest(args) -> int:
    """Run a simulate or verify command as `args.func(args, write)`, without
    OpenSSL (see _without_openssl): write(kernel), called once the outputs
    are written, writes the manifest with the kernel's diagnostics, or
    none, and returns its path.  A run that raises before it writes no
    manifest."""
    _without_openssl()
    return args.func(args, lambda kernel=None: write_manifest(args, kernel))
