"""The manifest of a simulate or verify run, written next to its first
output: the argv that `cli.main` parsed, the seeds, the version, a
timestamp, the SHA-256 and size of every output and, for an MCMC run, the
kernel's diagnostics.

`run_with_manifest` forks the process that writes it, through
`fileio._fork`, before the run starts, while the heap is still small.  That
process alone loads hashlib (with OpenSSL), datetime and json for the
manifest, and loads them while the run works.  Only the commands that write
a manifest import this module, so `cumulants` compiles none of it.
"""

from __future__ import annotations

import os

from . import __version__


def _sha256(path: str) -> str:
    import hashlib

    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(args, kernel: dict | None = None) -> str:
    """Write the manifest of the run that `args` describes and return its
    path.  It runs in the process that `run_with_manifest` forks, or in the
    run's own where os.fork is missing."""
    # imported here, like hashlib in _sha256, so that only the process that
    # writes the manifest loads them
    import datetime
    import json

    from .fileio import write_atomic

    manifest = {
        "command": "simulate" if args.command == "simulate" else f"verify-{args.target}",
        "argv": args.argv,
        "seeds": args.seeds,
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": [
            {"path": p, "sha256": _sha256(p), "bytes": os.path.getsize(p)}
            for p in args.outputs
        ],
    }
    if kernel:
        manifest["kernel"] = kernel
    path = args.outputs[0] + ".manifest.json"
    write_atomic(path, json.dumps(manifest, indent=2) + "\n")
    return path


def run_with_manifest(args) -> int:
    """Run a simulate or verify command as `args.func(args, write)`: write(kernel)
    hands the run's kernel diagnostics (or None) to the manifest process and
    returns the manifest's path.

    The manifest process waits for one pickled message on a pipe, not for
    the pipe's end, since every process the run forks later inherits the
    write end.  If the run fails first, the pipe is closed and the process
    reaped: it reads the pipe's end once the run's own children are gone,
    and writes no manifest."""
    if not hasattr(os, "fork"):
        return args.func(args, lambda kernel=None: write_manifest(args, kernel))
    import pickle

    from .fileio import _fork

    kernel_r, kernel_w = os.pipe()

    def wait_and_write() -> str | None:
        os.close(kernel_w)
        # loaded while the run works, so that its end does not wait for them
        import datetime
        import hashlib
        import json
        with open(kernel_r, "rb") as fh:
            try:
                kernel = pickle.load(fh)
            except EOFError:  # the run failed
                return None
        return write_manifest(args, kernel)

    join = _fork(wait_and_write)
    os.close(kernel_r)
    sink = open(kernel_w, "wb")

    def write(kernel: dict | None = None) -> str:
        try:
            with sink:
                pickle.dump(kernel, sink, pickle.HIGHEST_PROTOCOL)
        except BrokenPipeError:
            pass  # the process has ended; joining it raises its error
        return join()

    try:
        return args.func(args, write)
    finally:
        if not sink.closed:  # the run failed before its manifest
            sink.close()
            try:
                join()
            except BaseException:
                pass  # the run's error is the one raised
