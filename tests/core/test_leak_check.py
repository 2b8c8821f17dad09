"""The fd snapshot behind ``leak_check`` and ``no_fd_leak``."""

import os

from tests.core.conftest import _fds


def test_back_to_back_snapshots_agree_and_every_fd_resolves():
    first, second = _fds(), _fds()
    assert first == second
    for fd in first:
        os.readlink(f"/proc/self/fd/{fd}")


def test_a_briefly_held_fd_leaves_no_phantom():
    """An fd open during the first snapshot and closed before the second
    is the only difference: the second snapshot's own listing fd, which
    may take the freed number, is not counted."""
    held = os.open(os.devnull, os.O_RDONLY)
    try:
        before = _fds()
    finally:
        os.close(held)
    assert _fds() == before - {str(held)}
