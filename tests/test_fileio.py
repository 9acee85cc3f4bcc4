"""Atomic writer tests: written files get the mode that open() would give."""

import os
import stat

import pytest

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
