"""A time limit on every test, so that a search that stops terminating fails
with a traceback instead of hanging the run (pytest-timeout is not a
dependency)."""
from __future__ import annotations

import signal

import pytest

TIME_LIMIT_S = 120  # the whole suite runs in well under a minute


@pytest.fixture(autouse=True)
def time_limit():
    def expired(signum, frame):
        raise TimeoutError(f"test still running after {TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
