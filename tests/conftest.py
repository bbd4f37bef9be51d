"""Shared fixtures for the test suite."""

import pytest

from repro.core import sweeppool
from repro.sim.kernel import Simulator
from repro.sim.clock import ClockDomain


@pytest.fixture(autouse=True)
def _cold_sweep_pool():
    """Drain the warm sweep-worker set after every test.

    Warm workers carry the state of the test that started them (a forked
    copy of its monkeypatches, a stubbed ``sweeppool._start_worker``), so
    each test starts from an empty set and spawns what it needs.
    """
    yield
    sweeppool.shutdown_pool()


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def accel_clock():
    return ClockDomain(100)  # 10 ns period


@pytest.fixture
def cpu_clock():
    return ClockDomain(667)


def make_linear_trace(n=16, arrays_kind="input"):
    """A tiny load-op-store trace used across scheduler/SoC tests."""
    from repro.aladdin.trace import TraceBuilder

    tb = TraceBuilder("linear")
    tb.array("a", n, 4, kind=arrays_kind, init=list(range(n)))
    tb.array("out", n, 4, kind="output")
    for i in range(n):
        with tb.iteration(i):
            x = tb.load("a", i)
            y = tb.fmul(x, 2.0)
            tb.store("out", i, y)
    return tb


def make_serial_trace(n=8):
    """A fully serial dependence chain (accumulator)."""
    from repro.aladdin.trace import TraceBuilder

    tb = TraceBuilder("serial")
    tb.array("a", n, 4, kind="input", init=[1.0] * n)
    tb.array("out", 1, 4, kind="output")
    acc = 0.0
    for i in range(n):
        with tb.iteration(i):
            x = tb.load("a", i)
            acc = tb.fadd(acc, x)
    tb.store("out", 0, acc)
    return tb
