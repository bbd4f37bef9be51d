"""Timed CPU driver.

Models the software half of CPU-accelerator communication:

* **flush / invalidate** — per-cache-line software coherence management at
  the paper's measured rates: 84 ns per flushed line, 71 ns per invalidated
  line (Figure 3; characterized as 56 Cortex-A9 cycles/line at 667 MHz).
  Flushed dirty lines generate writeback traffic to DRAM through the CPU's
  own memory port (the Zynq CPU and the accelerator fabric reach DDR through
  separate ports, so flush writebacks do not occupy the accelerator bus).
* **ioctl** — accelerator invocation through the emulated ioctl system call
  (Section III-E), a fixed software latency.
* **spin-wait** — after invocation the CPU polls the shared completion flag;
  coherence makes the accelerator's final write visible.

All actions are sequential on one CPU and report busy intervals so runtime
breakdowns can attribute flush-only time.
"""

from repro.obs import trace
from repro.sim.ports import MemRequest
from repro.sim.stats import IntervalTracker
from repro.units import ns_to_ticks


class DriverTimings:
    """Measured constants for driver-hardware interactions."""

    def __init__(self, flush_ns_per_line=84.0, invalidate_ns_per_line=71.0,
                 ioctl_ns=500.0, poll_interval_ns=100.0):
        self.flush_ns_per_line = flush_ns_per_line
        self.invalidate_ns_per_line = invalidate_ns_per_line
        self.ioctl_ns = ioctl_ns
        self.poll_interval_ns = poll_interval_ns


class CPUDriver:
    """One CPU core running the accelerator's device driver."""

    def __init__(self, sim, clock, cpu_cache=None, dram=None,
                 timings=None, line_size=64, name="cpu0"):
        self.sim = sim
        self.clock = clock
        self.cpu_cache = cpu_cache
        self.dram = dram
        self.timings = timings or DriverTimings()
        self.line_size = line_size
        self.name = name
        self.flush_busy = IntervalTracker(f"{name}-flush")
        self.busy = IntervalTracker(name)
        self.lines_flushed = 0
        self.lines_invalidated = 0
        self.dirty_writebacks = 0
        self.polls = 0
        self._trace = trace.tracer("driver", name)

    # -- software coherence management --------------------------------------

    def flush_region(self, start, size, on_done):
        """Flush [start, start+size) line by line, then call ``on_done()``.

        Serial at ``flush_ns_per_line``; dirty lines in the CPU cache are
        written back to DRAM as they are cleaned.
        """
        lines = self._lines(start, size)
        if self._trace is not None:
            self._trace(self.sim.now, "flush 0x%x..0x%x (%d lines)",
                        start, start + size, len(lines))
        self.flush_busy.begin(self.sim.now)
        self.busy.begin(self.sim.now)
        self._flush_step(lines, 0, on_done)

    def _flush_step(self, lines, index, on_done):
        if index >= len(lines):
            self.flush_busy.end(self.sim.now)
            self.busy.end(self.sim.now)
            on_done()
            return
        line = lines[index]
        self.lines_flushed += 1
        if self.cpu_cache is not None and self.cpu_cache.extract_line(line):
            self.dirty_writebacks += 1
            if self.dram is not None:
                # The CPU's writeback path to DDR is distinct from the
                # accelerator fabric, so flushes do not occupy the system
                # bus (they may still contend for DRAM banks).
                self.dram.handle(MemRequest(line, self.line_size,
                                            is_write=True,
                                            requester=f"{self.name}-flush"))
        self.sim.schedule(ns_to_ticks(self.timings.flush_ns_per_line),
                          self._flush_step, lines, index + 1, on_done)

    def invalidate_region(self, start, size, on_done):
        """Invalidate the CPU's cached copies of a DMA return region."""
        self.busy.begin(self.sim.now)
        self._invalidate_step(self._lines(start, size), 0, on_done)

    def _invalidate_step(self, lines, index, on_done):
        if index >= len(lines):
            self.busy.end(self.sim.now)
            on_done()
            return
        self.lines_invalidated += 1
        if self.cpu_cache is not None:
            self.cpu_cache.invalidate_line(lines[index])
        self.sim.schedule(ns_to_ticks(self.timings.invalidate_ns_per_line),
                          self._invalidate_step, lines, index + 1, on_done)

    def _lines(self, start, size):
        first = start - (start % self.line_size)
        out = []
        line = first
        while line < start + size:
            out.append(line)
            line += self.line_size
        return out

    # -- invocation and completion ------------------------------------------

    def ioctl_invoke(self, on_done):
        """Invoke the accelerator through the emulated ioctl syscall."""
        if self._trace is not None:
            self._trace(self.sim.now, "ioctl invoke")
        self.busy.begin(self.sim.now)

        def fire():
            self.busy.end(self.sim.now)
            on_done()

        self.sim.schedule(ns_to_ticks(self.timings.ioctl_ns), fire)

    def spin_wait(self, is_done, on_done):
        """Poll the shared completion flag until ``is_done()`` is true."""
        interval = ns_to_ticks(self.timings.poll_interval_ns)
        self.sim.schedule(interval, self._poll, interval, is_done, on_done)

    def _poll(self, interval, is_done, on_done):
        self.polls += 1
        if is_done():
            if self._trace is not None:
                self._trace(self.sim.now, "completion seen after %d polls",
                            self.polls)
            on_done()
        else:
            self.sim.schedule(interval, self._poll, interval, is_done,
                              on_done)

    def reg_stats(self, stats, prefix=None):
        """Mirror this driver's counters into a stats registry."""
        prefix = prefix or f"soc.{self.name}"
        stats.scalar(f"{prefix}.lines_flushed", lambda: self.lines_flushed,
                     desc="cache lines flushed before offload")
        stats.scalar(f"{prefix}.lines_invalidated",
                     lambda: self.lines_invalidated,
                     desc="cache lines invalidated (DMA return regions)")
        stats.scalar(f"{prefix}.dirty_writebacks",
                     lambda: self.dirty_writebacks,
                     desc="flushed lines that were dirty")
        stats.scalar(f"{prefix}.polls", lambda: self.polls,
                     desc="completion-flag polls")
        stats.scalar(f"{prefix}.flush_busy_ticks",
                     lambda: self.flush_busy.total_busy(),
                     desc="ticks spent in flush loops")
        stats.scalar(f"{prefix}.busy_ticks",
                     lambda: self.busy.total_busy(),
                     desc="ticks the CPU driver was busy")
