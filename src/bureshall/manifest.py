"""The manifest of a simulate or verify run, written next to its first
output: the argv that `cli.main` parsed, the seeds, the version, a
timestamp, the SHA-256 and size of every output and, for an MCMC run, the
kernel's diagnostics.

`run_with_manifest` forks the process that writes it, through
`fileio._feed`, before the run starts, while the heap is still small.  That
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


def write_manifest(args, path: str, kernel: dict | None) -> None:
    """Write the manifest of the run that `args` describes to `path`.  It
    runs in the process that `run_with_manifest` forks, or in the run's own
    where os.fork is missing."""
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
    write_atomic(path, json.dumps(manifest, indent=2) + "\n")


def run_with_manifest(args) -> int:
    """Run a simulate or verify command as `args.func(args, write)`: write(kernel)
    hands the run's kernel diagnostics (or None) to the manifest process and
    returns the manifest's path.  That process, forked through `fileio._feed`,
    writes the manifest from the first item it reads; the run joins it after
    the command's body, so its error is raised after the run's stdout.  A run
    that raises before write() leaves no manifest."""
    path = args.outputs[0] + ".manifest.json"

    def run(put) -> int:
        def write(kernel: dict | None = None) -> str:
            put(kernel)
            return path

        return args.func(args, write)

    if not hasattr(os, "fork"):
        return run(lambda kernel: write_manifest(args, path, kernel))
    from .fileio import _feed

    def wait_and_write(kernels) -> None:
        # loaded while the run works, so that its end does not wait for them
        import datetime
        import hashlib
        import json
        write_manifest(args, path, next(kernels))

    return _feed(run, wait_and_write)
