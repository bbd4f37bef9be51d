"""Event queue and simulator driver.

This is the heart of the gem5-like substrate: a single global event queue
ordered by (tick, sequence).  Every component — the accelerator datapath,
caches, DMA engine, bus, DRAM, CPU driver — schedules callbacks on the same
queue, which is what lets the simulator capture the *dynamic interactions*
between accelerators and the SoC that the paper is about.

Ticks are picoseconds (see :mod:`repro.units`).

Hot-path notes (see DESIGN.md "Kernel fast paths"):

* Same-tick events bypass the heap entirely: an event scheduled for the
  current tick lands in a plain FIFO.  Sequence ordering is preserved
  because every heap event at tick T was scheduled *before* ``now``
  reached T, so all of its sequence numbers precede any FIFO entry —
  draining heap-at-T before the FIFO reproduces (tick, seq) order exactly.
* :meth:`EventQueue.run` drains inline rather than re-dispatching through
  :meth:`step` per event, and binds the heap/FIFO to locals.
* Profiling (:mod:`repro.sim.profiling`) is opt-in: when no profiler is
  attached, the only cost is one ``is None`` check per :meth:`run` call.
* A callback may run events of its own inline, as the datapath's cycle
  loop does (DESIGN.md, "Datapath cycle loop"): it reads the next queued
  ``(tick, seq)`` from ``_heap[0]`` and ``_fifo``, stops at
  :attr:`EventQueue.horizon`, and spends :attr:`EventQueue.budget`.
"""

import heapq
from collections import deque

from repro.errors import DeadlockError, SimulationError
from repro.obs import trace

_FOREVER = float("inf")


class EventQueue:
    """A monotonically ordered callback queue.

    Events scheduled at the same tick fire in scheduling order (a stable
    sequence number breaks ties), which keeps simulations deterministic.
    """

    __slots__ = ("_heap", "_fifo", "_seq", "now", "_profiler", "horizon",
                 "budget")

    def __init__(self):
        self._heap = []
        self._fifo = deque()   # events for the *current* tick, FIFO order
        self._seq = 0
        self.now = 0
        self._profiler = None
        # The running run()'s ``until`` (no event past it may run) and the
        # events it may still run, inline ones included.
        self.horizon = _FOREVER
        self.budget = 0

    def set_profiler(self, profiler):
        """Attach (or with ``None`` detach) an event profiler.

        While attached, :meth:`run` times every callback and attributes
        counts and wall time per component — see
        :class:`repro.sim.profiling.EventProfiler`.
        """
        self._profiler = profiler

    @property
    def profiler(self):
        return self._profiler

    def schedule(self, delay, callback, *args):
        """Run ``callback(*args)`` ``delay`` ticks from now.

        ``delay`` must be non-negative; zero-delay events run later in the
        current tick, after all previously scheduled same-tick events.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule event in the past (delay={delay})")
        if delay == 0:
            self._fifo.append((callback, args))
            return
        heapq.heappush(self._heap, (self.now + delay, self._seq, callback, args))
        self._seq += 1

    def schedule_at(self, when, callback, *args):
        """Run ``callback(*args)`` at absolute tick ``when``."""
        if when <= self.now:
            if when == self.now:
                self._fifo.append((callback, args))
                return
            raise SimulationError(
                f"cannot schedule event at tick {when}, now is {self.now}"
            )
        heapq.heappush(self._heap, (when, self._seq, callback, args))
        self._seq += 1

    def empty(self):
        """True when no events remain."""
        return not self._fifo and not self._heap

    def peek_time(self):
        """Tick of the next pending event, or None when empty."""
        if self._heap and self._heap[0][0] == self.now:
            return self.now
        if self._fifo:
            return self.now
        return self._heap[0][0] if self._heap else None

    def step(self):
        """Pop and run the next event.  Returns False when the queue is empty.

        Heap events already due at the current tick run before FIFO
        entries: the FIFO only ever holds events scheduled *while* ``now``
        was the current tick, whose sequence numbers are necessarily later.
        """
        heap = self._heap
        if heap and heap[0][0] == self.now:
            _when, _seq, callback, args = heapq.heappop(heap)
        elif self._fifo:
            callback, args = self._fifo.popleft()
        elif not heap:
            return False
        else:
            when, _seq, callback, args = heapq.heappop(heap)
            self.now = when
        # Events a callback runs inline stay within this tick.
        self.horizon = self.now
        callback(*args)
        return True

    def run(self, max_events=50_000_000, until=None):
        """Drain the queue.

        ``max_events`` guards against livelock (a runaway simulation raises
        :class:`SimulationError` rather than spinning forever); events a
        callback runs inline count toward it.  ``until`` optionally stops
        the simulation once the next event would fire past that tick;
        ``now`` advances to ``until`` either way — including when the
        queue drains before the horizon.  Returns the events run.
        """
        self.horizon = _FOREVER if until is None else until
        self.budget = max_events
        if self._profiler is not None:
            self._run_profiled(max_events, until)
            return max_events - self.budget
        heap = self._heap
        fifo = self._fifo
        pop = heapq.heappop
        popleft = fifo.popleft
        while True:
            # Heap events already due at the current tick first (their
            # sequence numbers predate everything in the FIFO), then the
            # same-tick FIFO, then advance to the next heap tick.
            if heap and heap[0][0] == self.now:
                if self.budget <= 0:
                    raise _budget_error(max_events)
                callback, args = pop(heap)[2:]
            elif fifo:
                if self.budget <= 0:
                    raise _budget_error(max_events)
                callback, args = popleft()
            elif heap:
                when = heap[0][0]
                if until is not None and when > until:
                    self.now = until
                    return max_events - self.budget
                if self.budget <= 0:
                    raise _budget_error(max_events)
                entry = pop(heap)
                self.now = entry[0]
                callback, args = entry[2:]
            else:
                if until is not None and self.now < until:
                    self.now = until
                return max_events - self.budget
            self.budget -= 1
            callback(*args)

    def _run_profiled(self, max_events, until):
        """The :meth:`run` loop with per-callback wall-time attribution.

        Kept separate so the unprofiled hot loop pays nothing for the
        instrumentation.
        """
        profiler = self._profiler
        heap = self._heap
        fifo = self._fifo
        pop = heapq.heappop
        while True:
            if heap and heap[0][0] == self.now:
                if self.budget <= 0:
                    raise _budget_error(max_events)
                callback, args = pop(heap)[2:]
            elif fifo:
                if self.budget <= 0:
                    raise _budget_error(max_events)
                callback, args = fifo.popleft()
            elif heap:
                when = heap[0][0]
                if until is not None and when > until:
                    self.now = until
                    return
                if self.budget <= 0:
                    raise _budget_error(max_events)
                entry = pop(heap)
                self.now = entry[0]
                callback, args = entry[2:]
            else:
                if until is not None and self.now < until:
                    self.now = until
                return
            self.budget -= 1
            profiler.run_event(callback, args)


def _budget_error(max_events):
    return SimulationError(
        f"event budget exceeded ({max_events} events): likely livelock"
    )


class Simulator:
    """Owns an event queue plus end-of-simulation bookkeeping.

    Components register completion flags through :meth:`add_done_dependency`;
    the simulation is *done* when every registered dependency reports done.
    This mirrors gem5's exit-event idiom without global state.
    """

    __slots__ = ("queue", "_done_checks", "events_executed", "_trace",
                 "_diagnosers")

    def __init__(self):
        self.queue = EventQueue()
        self._done_checks = []
        # Total events drained across every run() call: accumulated from
        # the loop's own counter, so the per-event hot path is untouched.
        self.events_executed = 0
        self._trace = trace.tracer("kernel", "sim")
        self._diagnosers = []

    @property
    def now(self):
        return self.queue.now

    def schedule(self, delay, callback, *args):
        """Schedule a relative-delay event on the queue."""
        self.queue.schedule(delay, callback, *args)

    def schedule_at(self, when, callback, *args):
        """Schedule an absolute-tick event on the queue."""
        self.queue.schedule_at(when, callback, *args)

    def add_done_dependency(self, check):
        """Register a zero-arg callable that returns True once its component
        has finished all its work."""
        self._done_checks.append(check)

    def add_deadlock_diagnoser(self, diagnoser):
        """Register a zero-arg callable invoked when the queue drains with
        unfinished work.  It must return a report dict; a ``"summary"``
        entry, if present, is appended to the raised
        :class:`~repro.errors.DeadlockError`'s message.  Installed by
        :class:`repro.check.Checker` — without one, deadlocks raise the
        plain :class:`SimulationError` as before."""
        self._diagnosers.append(diagnoser)

    def all_done(self):
        """True when every registered component reports done."""
        return all(check() for check in self._done_checks)

    def run(self, max_events=50_000_000):
        """Run until the event queue drains, then verify completion.

        Raises :class:`SimulationError` if the queue drained while some
        component still had outstanding work — that is a deadlock (e.g. a
        load waiting on a full/empty bit that no DMA will ever set).
        """
        if self._trace is not None:
            self._trace(self.now, "run: draining event queue")
        executed = self.queue.run(max_events=max_events)
        self.events_executed += executed
        if self._trace is not None:
            self._trace(self.now, "run: drained %d event(s)", executed)
        if not self.all_done():
            pending = [check for check in self._done_checks if not check()]
            message = (
                f"simulation deadlocked: {len(pending)} component(s) still "
                f"busy at tick {self.now} with an empty event queue"
            )
            if self._diagnosers:
                reports = [diagnose() for diagnose in self._diagnosers]
                report = (reports[0] if len(reports) == 1
                          else {"reports": reports})
                summaries = [r.get("summary") for r in reports
                             if r.get("summary")]
                for summary in summaries:
                    message += f"\n{summary}"
                raise DeadlockError(message, report)
            raise SimulationError(message)
        return executed

    def release(self):
        """Drop the done checks and deadlock diagnosers of a finished run.

        Both are closures over the components that own this simulator,
        so they close reference cycles; once the queue has drained and
        the run is complete nothing calls them again.
        """
        self._done_checks.clear()
        self._diagnosers.clear()

    def reg_stats(self, stats, prefix="soc.sim"):
        """Mirror the event-loop's bookkeeping into a stats registry."""
        stats.scalar(f"{prefix}.events", lambda: self.events_executed,
                     desc="events executed across all run() calls")
        stats.scalar(f"{prefix}.final_tick", lambda: self.now,
                     desc="simulated tick at the last dump")
