"""A wall-clock budget for every test.

A defect in the shared column reducer can make a reduction loop forever
(an ``add_pivot`` that leaves its lead unnormalized does, on odd-prime
inputs), so without a budget such a defect hangs the suite instead of
failing it.
"""
import signal

import pytest

BUDGET_S = 120  # the slowest test takes about 13 s


class BudgetExceeded(BaseException):
    """A test ran past ``BUDGET_S``.  Not an ``Exception``: hypothesis takes
    one for a failing example and replays it to shrink, with no budget left
    armed, so a looping property test would hang after all."""


@pytest.fixture(autouse=True)
def wall_clock_budget():
    """Raise one ``BudgetExceeded`` in a test still running after ``BUDGET_S``."""
    def expire(signum, frame):
        raise BudgetExceeded(f"test still running after its {BUDGET_S} s budget")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(BUDGET_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
