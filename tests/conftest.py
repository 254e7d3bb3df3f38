"""Turns a hang into a failure: a test still running after HANG_LIMIT_S
seconds prints every thread's traceback on the terminal's stderr and ends
the test process with exit code 1."""

import faulthandler
import os
import sys

import pytest

# far above the slowest test, the C7 calibration gate (11-15 s)
HANG_LIMIT_S = 300

_DUMP_FD = pytest.StashKey[int]()


def pytest_configure(config):
    # output capture is suspended here, so this copies the terminal's
    # stderr; a dump into a capture file would vanish with the process
    config.stash[_DUMP_FD] = os.dup(sys.__stderr__.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_DUMP_FD])


@pytest.fixture(autouse=True)
def hang_limit(request):
    faulthandler.dump_traceback_later(HANG_LIMIT_S, exit=True, file=request.config.stash[_DUMP_FD])
    yield
    faulthandler.cancel_dump_traceback_later()
