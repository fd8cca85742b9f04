"""A time limit on every test.

A wrong row step in _diagonalize_mod can repeat its pivot passes
without end; _smith checks its passes and raises AssertionError
instead.  Where the platform has SIGALRM, each test gets LIMIT_S
seconds and then fails with TimeLimitExceeded, so such a loop fails
its own test instead of hanging the run; the slowest test takes about
3 s.  TimeLimitExceeded is not an Exception, so neither an
`except Exception` in the code under test nor hypothesis, which would
go on to shrink the failing example with no time limit left, can catch
it.
"""

import signal

import pytest

LIMIT_S = 120


class TimeLimitExceeded(BaseException):
    pass


def _expired(signum, frame):
    raise TimeLimitExceeded(f"the test ran for more than {LIMIT_S} s")


@pytest.fixture(autouse=True)
def _time_limit():
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
