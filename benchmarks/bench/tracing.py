"""Per-layer host-time attribution for the traced run.

Everything here measures the simulator from outside, by timing calls
into its public functions; no program file is touched.  Three pieces:

* :class:`LayerClock` keeps a per-thread stack of open frames and
  charges each frame its *self* time (its duration minus the part its
  child frames cover), keyed by ``(layer, label)``.  Stage spans the
  harness opens around public calls (``assign_lanes``, ``SoC(...)``,
  ``soc.sim.run()``...) are frames too, and are also kept as spans for
  the Chrome trace.
* :func:`instrument` temporarily wraps the public methods of the
  simulator's component classes (cache, coherence, TLB, bus, DRAM, DMA,
  CPU driver, event queue) so calls made from inside an event callback
  are charged to the component that does the work.
* :class:`LayerProfiler` is an :class:`~repro.sim.profiling.
  EventProfiler` that opens a frame per event callback, labelled with
  the callback's component and mapped to its module's layer.  Attached
  with ``soc.sim.queue.set_profiler``.
"""

import contextlib
import functools
import importlib
import inspect
import threading
import time

from repro.obs.timeline import TimelineBuilder
from repro.sim.profiling import EventProfiler
from repro.units import TICKS_PER_US

#: Module prefix -> layer name (longest prefix wins).
LAYER_OF_MODULE = {
    "repro.aladdin.scheduler": "aladdin.scheduler",
    "repro.memory.cache": "memory.cache",
    "repro.memory.mshr": "memory.cache",
    "repro.memory.prefetch": "memory.cache",
    "repro.memory.coherence": "memory.coherence",
    "repro.memory.tlb": "memory.tlb",
    "repro.memory.bus": "memory.bus",
    "repro.memory.dram": "memory.dram",
    "repro.memory.sram": "memory.spad",
    "repro.memory.fullempty": "memory.fullempty",
    "repro.memory.traffic": "memory.traffic",
    "repro.dma": "dma.engine",
    "repro.cpu": "cpu.driver",
    "repro.sim": "sim.kernel",
    "repro.core.soc": "core.soc",
    "repro.core.pipeline": "core.pipeline",
}

#: Modules whose classes get their public methods wrapped during
#: simulation.  The scheduler module is deliberately absent: its time
#: stays with the event callback (issue pass, completion batch) that
#: runs it.
SIM_MODULES = ("repro.memory.cache", "repro.memory.mshr",
               "repro.memory.prefetch", "repro.memory.coherence",
               "repro.memory.tlb", "repro.memory.bus", "repro.memory.dram",
               "repro.memory.sram", "repro.memory.fullempty",
               "repro.memory.traffic", "repro.dma.engine",
               "repro.cpu.driver", "repro.sim.kernel", "repro.sim.ports")

#: Host-side entry points of the sweep store, calibration and Pareto
#: reductions, wrapped for the pool and service workloads:
#: ``(module, attribute path, layer)``.
HOST_TARGETS = (
    ("repro.core.sweeppool", "SweepCache.get", "core.sweeppool.store_get"),
    ("repro.core.sweeppool", "SweepCache.get_many",
     "core.sweeppool.store_get"),
    ("repro.core.sweeppool", "SweepCache.put", "core.sweeppool.store_put"),
    ("repro.core.calibrate", "Calibration.predict", "core.calibrate.predict"),
    ("repro.serve.service", "pareto_frontier", "core.pareto.reduce"),
    ("repro.serve.service", "edp_optimal", "core.pareto.reduce"),
)

_SKIP_METHODS = ("reg_stats",)


def layer_of(module):
    best = ""
    for prefix in LAYER_OF_MODULE:
        if (module == prefix or module.startswith(prefix + ".")) \
                and len(prefix) > len(best):
            best = prefix
    return LAYER_OF_MODULE.get(best, "other")


class LayerClock:
    """Self-time accounting over nested frames, one stack per thread."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables = []      # one {key: [calls, self_s]} per thread
        self.spans = []        # (thread name, row, start_s, end_s)
        self.origin = time.perf_counter()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.table = {}
            with self._lock:
                self._tables.append(local.table)
        return local

    def enter(self, key):
        self._state().stack.append([key, time.perf_counter(), 0.0])

    def exit(self):
        local = self._local
        key, start, child = local.stack.pop()
        end = time.perf_counter()
        elapsed = end - start
        if local.stack:
            local.stack[-1][2] += elapsed
        record = local.table.get(key)
        if record is None:
            local.table[key] = [1, elapsed - child]
        else:
            record[0] += 1
            record[1] += elapsed - child
        return start, end

    @contextlib.contextmanager
    def span(self, layer, label=""):
        """A stage frame that is also kept as a timeline span."""
        self.enter((layer, label))
        try:
            yield
        finally:
            start, end = self.exit()
            self.spans.append((threading.current_thread().name, layer,
                               start - self.origin, end - self.origin))

    def totals(self):
        """{(layer, label): [calls, self_seconds]} merged over threads."""
        merged = {}
        with self._lock:
            tables = [dict(t) for t in self._tables]
        for table in tables:
            for key, (calls, secs) in table.items():
                record = merged.setdefault(key, [0, 0.0])
                record[0] += calls
                record[1] += secs
        return merged

    def layer_seconds(self):
        """{layer: self seconds} summed over labels."""
        out = {}
        for (layer, _label), (_calls, secs) in self.totals().items():
            out[layer] = out.get(layer, 0.0) + secs
        return out

    def reset(self):
        """Zero the self-time tables (spans are kept for the trace)."""
        with self._lock:
            for table in self._tables:
                table.clear()

    def timeline(self, process_name):
        """The kept spans as a Chrome trace (seconds -> ticks)."""
        builder = TimelineBuilder(process_name=process_name)
        for thread, row, start, end in self.spans:
            builder.add_track(f"{thread}.{row}",
                              [(start * 1e6 * TICKS_PER_US,
                                end * 1e6 * TICKS_PER_US)], label=row)
        return builder


def _wrapped(clock, key, fn):
    enter, leave = clock.enter, clock.exit

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        enter(key)
        try:
            return fn(*args, **kwargs)
        finally:
            leave()
    return wrapper


def _sim_targets():
    """(owner, attribute, layer, label) for every wrapped sim method."""
    targets = []
    for name in SIM_MODULES:
        module = importlib.import_module(name)
        layer = layer_of(name)
        for cls_name, cls in vars(module).items():
            if not inspect.isclass(cls) or cls.__module__ != name:
                continue
            for attr, value in vars(cls).items():
                if (attr.startswith("_") or attr in _SKIP_METHODS
                        or not inspect.isfunction(value)):
                    continue
                targets.append((cls, attr, layer, f"{cls_name}.{attr}"))
    return targets


def _host_targets():
    targets = []
    for module_name, path, layer in HOST_TARGETS:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        targets.append((owner, attr, layer, path))
    return targets


@contextlib.contextmanager
def instrument(clock, sim=True, host=False):
    """Wrap the selected entry points for the duration of the block."""
    targets = (_sim_targets() if sim else []) + \
        (_host_targets() if host else [])
    saved = []
    try:
        for owner, attr, layer, label in targets:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrapped(clock, (layer, label), original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class LayerProfiler(EventProfiler):
    """An EventProfiler that opens a clock frame per event callback."""

    __slots__ = ("clock", "_keys")

    def __init__(self, clock):
        super().__init__()
        self.clock = clock
        self._keys = {}

    def run_event(self, callback, args):
        # Closures are fresh objects per event; their code is shared.
        owner = getattr(callback, "__self__", None)
        func = getattr(callback, "__func__", callback)
        cache_key = (type(owner), getattr(func, "__code__", type(func)))
        key = self._keys.get(cache_key)
        if key is None:
            if owner is not None:
                module = type(owner).__module__
                label = f"{type(owner).__name__}.{callback.__name__}"
            else:
                module = getattr(callback, "__module__", "") or ""
                label = getattr(callback, "__qualname__", repr(callback))
            key = self._keys[cache_key] = (layer_of(module), label)
        self.clock.enter(key)
        try:
            EventProfiler.run_event(self, callback, args)
        finally:
            self.clock.exit()
