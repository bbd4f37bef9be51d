"""Accelerator TLB.

gem5-Aladdin implements a custom TLB (Section III-D) because (1) gem5's TLBs
are ISA-specific and (2) Aladdin's *trace* addresses must be translated into
the simulated virtual and then physical address space.  We reproduce both
functions: a translation map from trace arrays to simulated addresses, and
an 8-entry fully-associative page TLB with a pre-characterized 200 ns miss
penalty (Figure 3), with a single page-table walker serializing misses.
"""

from collections import OrderedDict

from repro.obs import trace
from repro.units import ns_to_ticks

PAGE_SIZE = 4096


class AcceleratorTLB:
    """Fully-associative, LRU page TLB with one walker."""

    def __init__(self, sim, entries=8, miss_latency_ns=200.0,
                 page_size=PAGE_SIZE, name="accel-tlb"):
        self.sim = sim
        self.entries = entries
        self.page_size = page_size
        self.miss_ticks = ns_to_ticks(miss_latency_ns)
        self.name = name
        self._tlb = OrderedDict()  # vpn -> ppn
        self._pending = {}         # vpn -> list of (callback, offset)
        self._walker_free = 0
        self.hits = 0
        self.misses = 0
        self.walks = 0
        self.evictions = 0
        self._trace = trace.tracer("tlb", name)

    def _vpn(self, vaddr):
        return vaddr // self.page_size

    def peek(self, vaddr):
        """The physical address of ``vaddr`` if its page is resident, else
        None; counts nothing and leaves recency alone."""
        ppn = self._tlb.get(vaddr // self.page_size)
        if ppn is None:
            return None
        return ppn * self.page_size + vaddr % self.page_size

    def lookup(self, vaddr):
        """:meth:`peek`, counting a hit and making the page most recently
        used.  A resident page stays resident until ``evictions`` moves."""
        page_size = self.page_size
        vpn = vaddr // page_size
        ppn = self._tlb.get(vpn)
        if ppn is None:
            return None
        self.hits += 1
        self._tlb.move_to_end(vpn)
        return ppn * page_size + vaddr % page_size

    def rehit(self, pages, count):
        """Count ``count`` more hits on the resident ``pages`` (vpns, in
        order of last touch): the counts and recency that ``count``
        lookups of them leave behind."""
        self.hits += count
        touch = self._tlb.move_to_end
        for vpn in pages:
            touch(vpn)

    def translate(self, vaddr, phys_offset, callback):
        """Translate ``vaddr``; ``callback(paddr)`` fires when done.

        Hits complete immediately (the lookup is folded into the cache hit
        latency, as in the paper); misses pay the walk latency, serialized
        through the single walker.
        """
        paddr = self.lookup(vaddr)
        if paddr is not None:
            callback(paddr)
            return True
        vpn = self._vpn(vaddr)
        offset = vaddr % self.page_size
        self.misses += 1
        if vpn in self._pending:
            # A walk for this page is already in flight: coalesce.
            self._pending[vpn].append((callback, offset))
            return False
        self._pending[vpn] = [(callback, offset)]
        self.walks += 1
        start = max(self.sim.now, self._walker_free)
        done = start + self.miss_ticks
        self._walker_free = done
        ppn = (vaddr + phys_offset) // self.page_size
        if self._trace is not None:
            self._trace(self.sim.now, "miss vpn=0x%x walk done=%d", vpn, done)
        self.sim.schedule_at(done, self._finish_walk, vpn, ppn)
        return False

    def _finish_walk(self, vpn, ppn):
        # Refills must refresh recency: an already-resident vpn is moved to
        # the MRU end, not left at its stale position (and never triggers a
        # spurious eviction).  Residency is checked *before* the capacity
        # test so the two cases stay disjoint.
        if vpn in self._tlb:
            self._tlb.move_to_end(vpn)
        elif len(self._tlb) >= self.entries:
            victim, _ = self._tlb.popitem(last=False)
            self.evictions += 1
            if self._trace is not None:
                self._trace(self.sim.now, "evict vpn=0x%x", victim)
        self._tlb[vpn] = ppn
        for callback, offset in self._pending.pop(vpn):
            callback(ppn * self.page_size + offset)

    def miss_rate(self):
        """TLB misses over all translations."""
        total = self.hits + self.misses
        return self.misses / total if total else 0.0

    def reg_stats(self, stats, prefix="accel0.tlb"):
        """Mirror this TLB's counters into a stats registry."""
        stats.scalar(f"{prefix}.hits", lambda: self.hits,
                     desc="translations hitting a resident entry")
        stats.scalar(f"{prefix}.misses", lambda: self.misses,
                     desc="translations missing the TLB")
        stats.scalar(f"{prefix}.walks", lambda: self.walks,
                     desc="page-table walks issued (coalesced misses share)")
        stats.scalar(f"{prefix}.evictions", lambda: self.evictions,
                     desc="LRU entries evicted on refill")
        stats.formula(f"{prefix}.miss_rate",
                      lambda misses, hits: misses / (hits + misses),
                      deps=(f"{prefix}.misses", f"{prefix}.hits"),
                      desc="misses / translations")
