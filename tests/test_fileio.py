"""Atomic writer and fork tests: written files get the mode that open()
would give, CSV blocks formatted by a forked writer give the in-process
bytes, a failed write raises here and leaves no writer and no temporary
file, the writer forks before the blocks are taken, its data pipe holds
several blocks while it is stalled on one, every failure of `fork_map` is
raised here and leaves no child, and `_feed` keeps a consumer's early
return, a producer's own BrokenPipeError and a consumer's error apart."""

import fcntl
import os
import re
import signal
import stat
import time

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
    them out."""
    starts = range(0, len(columns[0]), ROWS)
    return ([col[start:start + ROWS] for col in columns] for start in starts)


def test_worker_pool_matches_in_process(tmp_path, cpus, monkeypatch):
    # 2345 rows in 500-row blocks: five blocks, the last one partial, and the
    # same rows as one block; on one usable CPU or two, one forked writer
    # formats and writes them, and where os.fork is missing this process
    # does, with the same bytes
    rng = np.random.default_rng(3)
    columns = [np.arange(2345), rng.standard_normal(2345), rng.standard_normal(2345) ** 3]
    written = {}
    for name, count in (("cpus1", 1), ("cpus2", 2), ("one_block", 1), ("nofork", 2),
                        ("one_block_nofork", 1)):
        forks = cpus(count)
        if name == "nofork":
            monkeypatch.delattr(os, "fork")
        path = tmp_path / f"{name}.csv"
        fileio._write_csv(str(path), "i,a,b",
                          [columns] if name.startswith("one_block") else blocks(*columns))
        assert len(forks) == (name in ("cpus1", "cpus2", "one_block"))
        written[name] = path.read_bytes()
    assert len(set(written.values())) == 1
    assert written["cpus1"].count(b"\n") == 2346
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"{name}.csv" for name in written)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _Unprintable:
    def __repr__(self):
        raise RuntimeError(f"repr in process {os.getpid()}")


def test_worker_error_propagates(tmp_path, cpus):
    # a value that fails to format in the writer fails the write: its error is
    # raised here, no temporary file is left and the target keeps its content
    forks = cpus(2)
    target = tmp_path / "out.csv"
    target.write_text("old\n")
    values = np.array([1.0] * 1200 + [_Unprintable()], dtype=object)
    with pytest.raises(RuntimeError, match=r"repr in process \d+") as exc:
        fileio._write_csv(str(target), "v", blocks(values))
    assert [int(re.search(r"\d+", str(exc.value)).group())] == forks
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
    assert target.read_text() == "old\n"
    assert_no_child_left()


def test_consumer_error_ends_pool(tmp_path, cpus, monkeypatch):
    # a write to the temporary file that fails in the writer after the header
    # and one block is raised here; the writer is reaped, its temporary file
    # is gone and the target keeps its content
    forks = cpus(2)
    target = tmp_path / "out.csv"
    target.write_text("old\n")
    real_open = open

    def open_failing_after_two_writes(file, *args, **kwargs):
        fh = real_open(file, *args, **kwargs)
        if isinstance(file, str):  # the temporary file, not a pipe
            writes = []

            def write(text):
                writes.append(text)
                if len(writes) > 2:
                    raise OSError("disk full")
                return type(fh).write(fh, text)

            fh.write = write
        return fh

    monkeypatch.setattr(fileio, "open", open_failing_after_two_writes, raising=False)
    with pytest.raises(OSError, match="disk full"):
        fileio._write_csv(str(target), "v", blocks(np.arange(2345.0)))
    assert len(forks) == 1
    assert_no_child_left()
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
    assert target.read_text() == "old\n"


def test_killed_writer_fails_the_write(tmp_path, cpus):
    # a writer killed mid-stream reports nothing: the write fails with its
    # exit status, and this process unlinks the temporary file it left
    forks = cpus(2)
    target = tmp_path / "out.csv"
    target.write_text("old\n")

    def columns():
        for k in range(6):
            if k == 2:
                os.kill(forks[0], signal.SIGKILL)
            yield [np.arange(1000.0)]

    with pytest.raises(RuntimeError, match=r"exited with status -9"):
        fileio._write_csv(str(target), "v", columns())
    assert_no_child_left()
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
    assert target.read_text() == "old\n"


def test_items_are_taken_after_the_fork_and_as_needed(tmp_path, cpus):
    # the writer forks before the first block is taken, so it inherits
    # nothing a lazy sampler builds
    forks = cpus(2)
    taken = []

    def columns():
        for k in range(6):
            taken.append(len(forks))
            yield [np.arange(k * 10, k * 10 + 10)]

    fileio._write_csv(str(tmp_path / "out.csv"), "k", columns())
    assert taken == [1] * 6
    assert (tmp_path / "out.csv").read_text() == "k\n" + "".join(f"{k}\n" for k in range(60))
    assert_no_child_left()


class _Stall:
    """A value whose repr waits until `flag` exists, for at most 10 s, and
    reads 'handed' if it appeared, 'stalled' if it did not."""

    def __init__(self, flag):
        self.flag = flag

    def __repr__(self):
        deadline = time.monotonic() + 10
        while not os.path.exists(self.flag):
            if time.monotonic() > deadline:
                return "stalled"
            time.sleep(0.01)
        return "handed"


@pytest.mark.skipif(not hasattr(fcntl, "F_SETPIPE_SZ"), reason="needs F_SETPIPE_SZ")
def test_caller_runs_ahead_of_a_stalled_writer(tmp_path, cpus):
    # the data pipe holds several blocks: while the writer is stalled on the
    # first block, this process hands over four more of 64 KB each, which a
    # default 64 KiB pipe would not take
    cpus(2)
    flag = tmp_path / "handed"

    def columns():
        yield [np.array([_Stall(str(flag))], dtype=object)]
        for _ in range(4):
            yield [np.arange(8000.0)]
        flag.touch()
        yield [np.arange(3.0)]

    fileio._write_csv(str(tmp_path / "out.csv"), "v", columns())
    assert (tmp_path / "out.csv").read_text().splitlines()[1] == "handed"
    assert_no_child_left()


def test_fork_map_killed_child(cpus):
    # a child killed before it reports fails the map with its exit status
    forks = cpus(3)

    def square(k):
        if k == 2:
            os.kill(os.getpid(), signal.SIGKILL)
        return k * k

    with pytest.raises(RuntimeError, match=r"exited with status -9"):
        fileio.fork_map(square, range(3))
    assert len(forks) == 2
    assert_no_child_left()


def test_fork_map_unpicklable_result(cpus):
    # a result that cannot be pickled leaves no report, which fails the map
    # with the child's nonzero status, not a silent status 0
    cpus(2)
    with pytest.raises(RuntimeError, match=r"exited with status 1"):
        fileio.fork_map(lambda k: (lambda: k), range(2))
    assert_no_child_left()


def test_fork_map_caller_error_wins(cpus):
    # this process's own item fails, and so does every child's: the error
    # raised is this process's, and every child is reaped
    caller = os.getpid()
    forks = cpus(3)

    def failing(k):
        raise ValueError(f"item {k} in process {os.getpid()}")

    with pytest.raises(ValueError, match=f"item 0 in process {caller}$"):
        fileio.fork_map(failing, range(3))
    assert len(forks) == 2
    assert_no_child_left()


def test_feed_consumer_returns_early(cpus):
    # a consumer that returns after one item leaves the items after it, and
    # the end marker, to be dropped: produce runs to its end and its result
    # comes back
    forks = cpus(1)

    def produce(put):
        for k in range(5):
            put(np.arange(10_000.0) + k)
        return "produced"

    assert fileio._feed(produce, lambda items: next(items)) == "produced"
    assert len(forks) == 1
    assert_no_child_left()


def test_feed_producer_broken_pipe_is_its_own(cpus):
    # a BrokenPipeError that produce raises itself, from a closed stdout say,
    # is not the consumer's end: it is raised as it is
    cpus(1)
    error = BrokenPipeError(32, "stdout closed")

    def produce(put):
        put([1.0])
        raise error

    with pytest.raises(BrokenPipeError) as exc:
        fileio._feed(produce, lambda items: list(items))
    assert exc.value is error
    assert_no_child_left()


def test_feed_consumer_error_stops_the_producer(cpus):
    # a consumer that fails on its first item ends the feed: its error is
    # raised here, and the producer, whose pipe holds about four of these
    # 256 KiB items, stops at its next put in place of drawing all 64
    cpus(1)
    taken = []

    def produce(put):
        for k in range(64):
            taken.append(k)
            put(np.full(32_768, float(k)))

    def consume(items):
        raise ValueError(f"refused item {next(items)[0]:g}")

    with pytest.raises(ValueError, match="refused item 0"):
        fileio._feed(produce, consume)
    assert len(taken) <= 8, taken
    assert_no_child_left()
