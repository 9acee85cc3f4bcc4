"""Atomic writer tests: written files get the mode that open() would give,
CSV blocks formatted by forked workers give the in-process bytes, a failed
write ends the workers, and the workers fork before the blocks are taken."""

import multiprocessing
import os
import re
import stat

import numpy as np
import pytest

from bureshall import fileio
from bureshall.fileio import write_atomic


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)],
                         ids=["022", "077", "002"])
def test_mode_follows_umask(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        write_atomic(str(tmp_path / "out.txt"), "x\n")
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "out.txt").stat().st_mode) == mode
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_umask_untouched(tmp_path, monkeypatch):
    # the umask is process-wide: setting it, even to read it, would give a
    # file that another thread creates meanwhile the wrong mode
    def umask(mask):
        raise AssertionError("write_atomic set the umask")

    monkeypatch.setattr(os, "umask", umask)
    write_atomic(str(tmp_path / "out.txt"), "x\n")
    assert (tmp_path / "out.txt").read_text() == "x\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


ROWS = 500


def blocks(*columns):
    """The columns as blocks of ROWS rows, taken lazily as a sampler hands
    them out, and the number of blocks."""
    starts = range(0, len(columns[0]), ROWS)
    return ([col[start:start + ROWS] for col in columns] for start in starts), len(starts)


def test_worker_pool_matches_in_process(tmp_path, cpus):
    # 2345 rows in 500-row blocks: five blocks, the last one partial
    rng = np.random.default_rng(3)
    columns = [np.arange(2345), rng.standard_normal(2345), rng.standard_normal(2345) ** 3]
    written = {}
    for count, pool_size in ((1, 0), (2, 2)):
        forks = cpus(count)
        path = tmp_path / f"cpus{count}.csv"
        fileio._write_csv(str(path), "i,a,b", *blocks(*columns))
        assert len(forks) == pool_size
        written[count] = path.read_bytes()
    assert written[1] == written[2]
    assert written[1].count(b"\n") == 2346
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cpus1.csv", "cpus2.csv"]


class _Unprintable:
    def __repr__(self):
        raise RuntimeError(f"repr in process {os.getpid()}")


def test_worker_error_propagates(tmp_path, cpus):
    # a value that fails to format in a worker fails the write: no temporary
    # file is left and the existing target keeps its content
    forks = cpus(2)
    target = tmp_path / "out.csv"
    target.write_text("old\n")
    values = np.array([1.0] * 1200 + [_Unprintable()], dtype=object)
    with pytest.raises(RuntimeError, match=r"repr in process \d+") as exc:
        fileio._write_csv(str(target), "v", *blocks(values))
    assert int(re.search(r"\d+", str(exc.value)).group()) in forks
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
    assert target.read_text() == "old\n"


def test_consumer_error_ends_pool(tmp_path, cpus, monkeypatch):
    # a write that fails after the header and one block is raised here, and
    # closing fork_map's generator ends its workers and clears its handoff;
    # `exc` keeps the traceback, and so the generator, alive meanwhile
    forks = cpus(2)
    target = tmp_path / "out.csv"
    target.write_text("old\n")

    def failing_write(path, chunks):
        next(chunks), next(chunks)
        raise OSError("disk full")

    monkeypatch.setattr(fileio, "write_atomic", failing_write)
    with pytest.raises(OSError, match="disk full") as exc:
        fileio._write_csv(str(target), "v", *blocks(np.arange(2345.0)))
    assert len(forks) == 2
    assert multiprocessing.active_children() == []
    assert fileio._fork_fn is None
    assert target.read_text() == "old\n"


def test_items_are_taken_after_the_fork_and_as_needed(cpus):
    # the pool forks before the first item is taken, so its workers inherit
    # nothing a lazy sampler builds; after that this process takes one item
    # per result, and holds at most one more than the two workers in flight
    forks = cpus(2)
    taken = []

    def items():
        for k in range(6):
            taken.append(len(forks))
            yield k

    for k, result in enumerate(fileio.fork_map(lambda k: k * k, items(), 6)):
        assert result == k * k
        assert len(taken) <= k + 3
    assert taken == [2] * 6
    assert multiprocessing.active_children() == []
