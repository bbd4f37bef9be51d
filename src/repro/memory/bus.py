"""Shared system bus.

The paper modulates the system bus width (32 / 64 bits) as a proxy for
shared-resource contention (Section V-B2), and the DMA engine "fully
utilizes the available bus bandwidth", creating the serial-data-arrival
effect (Section IV-C2).  Both behaviours fall out of an occupancy model:

* FIFO arbitration: requests are granted in arrival order.
* A granted transfer occupies the bus for ``arb + ceil(bytes / width)``
  bus cycles; nothing else moves during that window.
* After occupancy the request is handed to its target (DRAM by default,
  or a cache-to-cache fill path supplied by the coherence domain).
"""

import math

from repro.obs import trace
from repro.sim.stats import IntervalTracker


class SystemBus:
    """Bandwidth-limited shared interconnect with FIFO arbitration."""

    def __init__(self, sim, clock, width_bits, downstream=None,
                 arb_cycles=1, name="bus"):
        if width_bits % 8:
            raise ValueError("bus width must be a whole number of bytes")
        self.sim = sim
        self.clock = clock
        self.width_bits = width_bits
        self.width_bytes = width_bits // 8
        self.downstream = downstream
        self.arb_cycles = arb_cycles
        self.name = name
        self._next_free = 0
        self.busy = IntervalTracker(name)
        self.bytes_transferred = 0
        self.num_requests = 0
        self.queue_ticks = 0      # total arbitration wait (grant - issue)
        self.max_queue_ticks = 0
        # Per-request queue-wait distributions, one per registry that
        # reg_stats attached (none keeps the request path free of
        # sampling).
        self.queue_wait_dists = ()
        self._trace = trace.tracer("bus", name)

    def occupancy_ticks(self, size):
        """Bus occupancy (ticks) of one transfer of ``size`` bytes."""
        beats = max(1, math.ceil(size / self.width_bytes))
        return self.clock.cycles_to_ticks(self.arb_cycles + beats)

    def request(self, req, target=None, extra_delay=0):
        """Queue ``req`` on the bus.

        ``target`` overrides the default downstream component; it must expose
        ``handle(req)``.  ``extra_delay`` adds fixed ticks before arbitration
        (used for snoop latencies).  Completion is signalled through
        ``req.callback`` by whoever ultimately services the request.
        """
        now = self.sim.now + extra_delay
        grant = max(self.clock.next_edge(now), self._next_free)
        occupancy = self.occupancy_ticks(req.size)
        self._next_free = grant + occupancy
        self.busy.add(grant, grant + occupancy)
        self.bytes_transferred += req.size
        self.num_requests += 1
        # Issue = arrival at arbitration (after any snoop delay); grant =
        # the tick the transfer actually wins the bus.  Their difference is
        # the queueing latency under contention.
        req.issue_tick = now
        req.grant_tick = grant
        waited = grant - now
        self.queue_ticks += waited
        self.max_queue_ticks = max(self.max_queue_ticks, waited)
        if self.queue_wait_dists:
            for dist in self.queue_wait_dists:
                dist.sample(waited)
        if self._trace is not None:
            self._trace(now,
                        "%s 0x%x size=%d from=%s waited=%d occupy=[%d,%d)",
                        "wr" if req.is_write else "rd", req.addr, req.size,
                        req.requester, waited, grant, grant + occupancy)
        handler = target if target is not None else self.downstream
        if handler is None:
            # No downstream: the bus itself completes the request once the
            # data beats have moved (used by cache-to-cache transfers).
            self.sim.schedule_at(grant + occupancy, req.complete, grant + occupancy)
        else:
            self.sim.schedule_at(grant + occupancy, handler.handle, req)

    def avg_queue_ticks(self):
        """Mean arbitration wait per request (ticks)."""
        return self.queue_ticks / self.num_requests if self.num_requests else 0.0

    def utilization(self, start, end):
        """Fraction of [start, end) during which the bus moved data."""
        span = end - start
        if span <= 0:
            return 0.0
        covered = sum(
            max(0, min(e, end) - max(s, start)) for s, e in self.busy.merged()
        )
        return covered / span

    @property
    def next_free(self):
        return self._next_free

    def reg_stats(self, stats, prefix="soc.bus"):
        """Mirror this bus's counters into a stats registry.

        Also adds a per-request queue-wait :class:`~repro.obs.stats.
        Distribution` to the ones the bus samples into (sampling starts
        once the registry is attached; earlier registries keep sampling).
        """
        stats.scalar(f"{prefix}.requests", lambda: self.num_requests,
                     desc="transfers granted")
        stats.scalar(f"{prefix}.bytes", lambda: self.bytes_transferred,
                     desc="bytes moved over the bus")
        stats.scalar(f"{prefix}.queue_ticks", lambda: self.queue_ticks,
                     desc="total arbitration wait (ticks)")
        stats.scalar(f"{prefix}.max_queue_ticks",
                     lambda: self.max_queue_ticks,
                     desc="worst single arbitration wait (ticks)")
        stats.scalar(f"{prefix}.busy_ticks", lambda: self.busy.total_busy(),
                     desc="ticks the bus was moving data")
        stats.formula(f"{prefix}.avg_queue_ticks",
                      lambda ticks, reqs: ticks / reqs,
                      deps=(f"{prefix}.queue_ticks", f"{prefix}.requests"),
                      desc="mean arbitration wait per request")
        self.queue_wait_dists += (stats.distribution(
            f"{prefix}.queue_wait", desc="arbitration wait per request"),)
