"""Opt-in event-loop profiling.

Attributes event counts and callback wall time to the *component* that
owns each callback (the class of a bound method's receiver, or the
function's qualified name), answering "where does simulation time go?" —
the datapath issue loop, the cache, the bus, DRAM, the DMA engine...

The profiler is attached to an :class:`~repro.sim.kernel.EventQueue` via
``set_profiler``; while detached the event loop pays zero overhead (one
``is None`` check per ``run()`` call, not per event).

    profiler = EventProfiler()
    soc.sim.queue.set_profiler(profiler)
    soc.run()
    print(profiler.report())

CLI: ``repro run <workload> --profile [N]`` and
``repro sweep <workload> --profile``.
"""

from time import perf_counter


class EventProfiler:
    """Per-component event counts and callback wall time."""

    __slots__ = ("records", "_timer")

    def __init__(self, timer=perf_counter):
        # component label -> [event count, wall seconds]
        self.records = {}
        self._timer = timer

    # -- the hot hook --------------------------------------------------------

    def run_event(self, callback, args):
        """Invoke ``callback(*args)``, timing it and attributing the cost.

        Called by ``EventQueue._run_profiled`` for every event; exceptions
        from the callback propagate after the sample is recorded.
        """
        timer = self._timer
        start = timer()
        try:
            callback(*args)
        finally:
            elapsed = timer() - start
            key = _component_of(callback)
            record = self.records.get(key)
            if record is None:
                self.records[key] = [1, elapsed]
            else:
                record[0] += 1
                record[1] += elapsed

    # -- results -------------------------------------------------------------

    @property
    def total_events(self):
        return sum(count for count, _secs in self.records.values())

    @property
    def total_seconds(self):
        return sum(secs for _count, secs in self.records.values())

    def events_per_second(self):
        """Aggregate event throughput over the profiled window."""
        secs = self.total_seconds
        return self.total_events / secs if secs else 0.0

    def as_dict(self):
        """{component: {"events": n, "seconds": s}} sorted by time desc."""
        items = sorted(self.records.items(), key=lambda kv: -kv[1][1])
        return {key: {"events": count, "seconds": secs}
                for key, (count, secs) in items}

    def report(self, top=None):
        """A formatted table, heaviest components first."""
        items = sorted(self.records.items(), key=lambda kv: -kv[1][1])
        if top is not None:
            items = items[:top]
        total_secs = self.total_seconds or 1.0
        lines = [f"{'component':40s} {'events':>10s} {'seconds':>9s} "
                 f"{'share':>6s}"]
        for key, (count, secs) in items:
            lines.append(f"{key:40s} {count:10d} {secs:9.4f} "
                         f"{100.0 * secs / total_secs:5.1f}%")
        lines.append(f"{'total':40s} {self.total_events:10d} "
                     f"{self.total_seconds:9.4f} "
                     f"({self.events_per_second():,.0f} events/s)")
        return "\n".join(lines)

    def clear(self):
        self.records.clear()


def _component_of(callback):
    """A stable component label for one event callback."""
    owner = getattr(callback, "__self__", None)
    if owner is not None:
        return f"{type(owner).__name__}.{callback.__name__}"
    return getattr(callback, "__qualname__", None) or repr(callback)


def profile_run(fn, *args, **kwargs):
    """Convenience: run ``fn`` (which must accept ``profiler=``) under a
    fresh profiler; returns ``(result, profiler)``."""
    profiler = EventProfiler()
    result = fn(*args, profiler=profiler, **kwargs)
    return result, profiler
