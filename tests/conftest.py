"""Tier-1 runs every test under a wall-clock bound: a test that passes it,
such as a kernel that never terminates, ends the run with every thread's
traceback and a failing exit status instead of hanging it."""

import faulthandler
import os
import sys

import pytest

# Seconds a single test may take: far above the slowest test (a few
# seconds), so only a test that does not terminate reaches it.
TEST_SECONDS = 120

_stderr = None  # the terminal's stderr, which output capture does not take


def pytest_configure(config):
    global _stderr
    _stderr = os.dup(sys.stderr.fileno())


@pytest.fixture(autouse=True)
def _wall_clock_bound():
    faulthandler.dump_traceback_later(TEST_SECONDS, exit=True, file=_stderr)
    yield
    faulthandler.cancel_dump_traceback_later()
