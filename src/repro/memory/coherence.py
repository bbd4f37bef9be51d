"""MOESI snooping coherence over the system bus.

gem5-Aladdin attaches the accelerator cache to gem5's classic memory system
with "a basic MOESI cache coherence protocol" (Section III-D).  We model a
snooping domain: a missing cache broadcasts a probe; if a peer owns the line
(M/O/E) it forwards the data cache-to-cache, otherwise the fill comes from
DRAM through the bus.  Writes invalidate peer copies.

This is what lets cache-based accelerators skip the explicit software flush
that DMA-based designs must pay for: the CPU's dirty input data is pulled
on demand, line by line.
"""

from repro.obs import trace
from repro.sim.ports import MemRequest
from repro.units import ns_to_ticks


class LineState:
    """MOESI states, stored per cache line."""

    MODIFIED = "M"
    OWNED = "O"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"

    OWNER_STATES = ("M", "O", "E")
    DIRTY_STATES = ("M", "O")


class _ForwardResponder:
    """Terminates a cache-to-cache transfer: the owning cache supplies the
    data directly on the bus, so the request never reaches DRAM."""

    def __init__(self, sim):
        self.sim = sim
        self.forwards = 0

    def handle(self, req):
        self.forwards += 1
        req.complete(self.sim.now)


class CoherenceDomain:
    """The set of caches snooping one bus, plus the path to memory."""

    def __init__(self, sim, bus, snoop_ns=20.0):
        self.sim = sim
        self.bus = bus
        self.snoop_ticks = ns_to_ticks(snoop_ns)
        self.caches = []
        self._responder = _ForwardResponder(sim)
        self.cache_to_cache_transfers = 0
        self.memory_fetches = 0
        self.invalidations = 0
        self.upgrades = 0
        # Same-line fetch serialization: line_addr -> list of deferred
        # (requester, for_write, callback) fetches.  Two caches fetching
        # one line concurrently would both compute their fill state from
        # the *pre-fill* snoop picture — e.g. a read probe finding INVALID
        # everywhere installs EXCLUSIVE next to the peer's in-flight
        # MODIFIED fill.  Conflicting fetches wait for the in-flight fill
        # and then re-probe against the updated state.
        self._pending = {}
        self.deferred_fetches = 0
        self.checker = None  # set by attach_checker (see repro.check)
        self._trace = trace.tracer("coh", "coherence")

    def register(self, cache):
        """Attach a cache to this snooping domain."""
        self.caches.append(cache)
        cache.domain = self
        cache._checker = self.checker

    def attach_checker(self, checker):
        """Hook a :class:`repro.check.invariants.MOESIChecker` into every
        line-state transition of this domain (None detaches)."""
        self.checker = checker
        for cache in self.caches:
            cache._checker = checker

    def release(self):
        """Unhook the caches and the MOESI checker from this domain after
        the run: ``cache.domain`` and ``checker.domain`` point back here,
        closing reference cycles.  The domain keeps its forward
        references (``caches``, counters) for post-run inspection."""
        self.attach_checker(None)
        for cache in self.caches:
            cache.domain = None

    def _peers(self, requester):
        return [c for c in self.caches if c is not requester]

    def fetch_line(self, requester, line_addr, for_write, callback):
        """Fetch a line on behalf of ``requester``.

        ``callback(fill_state)`` fires when the data arrives, where
        ``fill_state`` is the MOESI state the requester should install.
        A fetch for a line with another fetch already in flight is
        deferred until that fill lands, so its snoop probe sees the
        post-fill state.
        """
        pending = self._pending
        if line_addr in pending:
            self.deferred_fetches += 1
            pending[line_addr].append((requester, for_write, callback))
            if self._trace is not None:
                self._trace(self.sim.now, "defer 0x%x for %s (fetch in flight)",
                            line_addr, requester.name)
            return
        pending[line_addr] = []
        self._issue_fetch(requester, line_addr, for_write, callback)

    def _issue_fetch(self, requester, line_addr, for_write, callback):
        owner = None
        sharers = []
        for peer in self._peers(requester):
            state = peer.peek_state(line_addr)
            if state in LineState.OWNER_STATES:
                owner = peer
            elif state == LineState.SHARED:
                sharers.append(peer)

        if for_write:
            # Read-for-ownership: every other copy dies.
            for peer in self._peers(requester):
                if peer.peek_state(line_addr) != LineState.INVALID:
                    peer.snoop_invalidate(line_addr)
                    self.invalidations += 1
            fill_state = LineState.MODIFIED
        elif owner is not None:
            # Owner keeps a copy and becomes responsible for the dirty data.
            owner.snoop_downgrade(line_addr)
            fill_state = LineState.SHARED
        elif sharers:
            fill_state = LineState.SHARED
        else:
            fill_state = LineState.EXCLUSIVE

        line_size = requester.line_size
        req = MemRequest(
            line_addr, line_size, is_write=False,
            requester=requester.name,
            callback=lambda _req: self._fetch_complete(line_addr, callback,
                                                       fill_state),
        )
        if self._trace is not None:
            self._trace(self.sim.now,
                        "fetch 0x%x for %s (%s) -> %s from %s", line_addr,
                        requester.name, "write" if for_write else "read",
                        fill_state, owner.name if owner else "memory")
        if owner is not None:
            # Cache-to-cache transfer: data moves over the bus but skips DRAM.
            self.cache_to_cache_transfers += 1
            self.bus.request(req, target=self._responder,
                             extra_delay=self.snoop_ticks)
        else:
            self.memory_fetches += 1
            self.bus.request(req, extra_delay=self.snoop_ticks)

    def _fetch_complete(self, line_addr, callback, fill_state):
        """A fill arrived: install it, then release one deferred fetch."""
        callback(fill_state)
        deferred = self._pending.pop(line_addr)
        if deferred:
            requester, for_write, next_cb = deferred.pop(0)
            self._pending[line_addr] = deferred
            self._issue_fetch(requester, line_addr, for_write, next_cb)

    def upgrade_line(self, requester, line_addr):
        """Upgrade ``requester``'s pending fill to ownership.

        Used when a write merged into a read-allocated MSHR: the original
        probe was a plain read, so peers still hold S/O copies that must be
        invalidated before the requester may install MODIFIED.  The
        invalidation piggybacks on the in-flight fill's bus transaction, so
        no extra timing cost is modeled — only the state change.
        """
        self.upgrades += 1
        for peer in self._peers(requester):
            if peer.peek_state(line_addr) != LineState.INVALID:
                peer.snoop_invalidate(line_addr)
                self.invalidations += 1

    def writeback(self, cache, line_addr, state=None):
        """Evict dirty data to memory (fire-and-forget for timing).

        ``state`` is the line's MOESI state at eviction time; the
        invariant checker uses it to reject writebacks from clean lines
        (``None`` skips that check for callers that predate the hook).
        """
        if self.checker is not None:
            self.checker.on_writeback(cache, line_addr, state)
        req = MemRequest(line_addr, cache.line_size, is_write=True,
                         requester=f"{cache.name}-wb")
        self.bus.request(req)

    def reg_stats(self, stats, prefix="soc.coherence"):
        """Mirror the domain's counters into a stats registry."""
        stats.scalar(f"{prefix}.cache_to_cache_transfers",
                     lambda: self.cache_to_cache_transfers,
                     desc="fills forwarded from a peer cache")
        stats.scalar(f"{prefix}.memory_fetches",
                     lambda: self.memory_fetches,
                     desc="fills serviced by DRAM")
        stats.scalar(f"{prefix}.invalidations", lambda: self.invalidations,
                     desc="peer copies invalidated")
        stats.scalar(f"{prefix}.upgrades", lambda: self.upgrades,
                     desc="read-allocated MSHRs upgraded to ownership")
        stats.scalar(f"{prefix}.deferred_fetches",
                     lambda: self.deferred_fetches,
                     desc="same-line fetches serialized behind an "
                          "in-flight fill")
