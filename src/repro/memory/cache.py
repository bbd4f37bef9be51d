"""Set-associative, write-back, coherent cache.

Models gem5's "classic cache" as used by gem5-Aladdin for accelerator-side
caches (Section III-D): configurable size / line size / associativity /
ports, MSHRs for hit-under-miss, LRU replacement, write-allocate, and an
optional strided prefetcher.  Coherence state per line is MOESI, managed
through the :class:`~repro.memory.coherence.CoherenceDomain`.

The cache is timing-only: data values flow through the functional execution
of the kernel trace, so lines carry state but no bytes.
"""

from collections import OrderedDict

from repro.errors import ConfigError
from repro.memory.coherence import LineState
from repro.memory.mshr import MSHRFile
from repro.memory.prefetch import NullPrefetcher, StridePrefetcher
from repro.obs import trace

_INVALID = LineState.INVALID
_MODIFIED = LineState.MODIFIED
# The states a write hits in.
_WRITABLE = (LineState.MODIFIED, LineState.EXCLUSIVE)


class Cache:
    """One coherent cache (used for both the accelerator and the CPU side)."""

    def __init__(self, sim, clock, name, size_bytes, line_size, assoc,
                 mshrs=16, hit_latency_cycles=2, prefetcher="none",
                 prefetch_degree=2):
        if size_bytes % (line_size * assoc):
            raise ConfigError(
                f"cache size {size_bytes} not divisible by line*assoc "
                f"({line_size}x{assoc})"
            )
        self.sim = sim
        self.clock = clock
        self.name = name
        self.size_bytes = size_bytes
        self.line_size = line_size
        self.assoc = assoc
        self.num_sets = size_bytes // (line_size * assoc)
        self.hit_latency = hit_latency_cycles
        # Hot-path precomputation: line/set math as shift+mask when the
        # geometry is power-of-two (the overwhelmingly common case), and
        # the hit latency in ticks so accesses never re-derive it.
        if line_size & (line_size - 1) == 0:
            self._line_mask = ~(line_size - 1)
            self._line_shift = line_size.bit_length() - 1
        else:
            self._line_mask = None
            self._line_shift = None
        if self.num_sets & (self.num_sets - 1) == 0:
            self._set_mask = self.num_sets - 1
        else:
            self._set_mask = None
        self._hit_ticks = clock.cycles_to_ticks(hit_latency_cycles)
        self.mshrs = MSHRFile(mshrs)
        # Bumped on every MSHR release and every line install: the only
        # changes that can turn an access refused for full MSHRs into a
        # hit, a merge or an allocation.
        self.epoch = 0
        # set index -> OrderedDict(line_addr -> state), LRU order (oldest first)
        self._sets = [OrderedDict() for _ in range(self.num_sets)]
        self.domain = None  # set by CoherenceDomain.register
        self._checker = None  # set by CoherenceDomain.attach_checker
        if prefetcher == "stride":
            self.prefetcher = StridePrefetcher(degree=prefetch_degree)
        else:
            self.prefetcher = NullPrefetcher()
        self.hits = 0
        self.misses = 0          # primary demand misses (fills issued)
        self.merged = 0          # secondary misses absorbed by an MSHR
        self.blocked = 0         # rejected attempts (MSHRs full)
        self.writebacks = 0
        self.fills = 0           # lines actually installed (demand)
        self.prefetch_fills = 0
        self.reads = 0
        self.writes = 0
        self._trace = trace.tracer("cache", name)

    # -- address helpers ---------------------------------------------------

    def line_addr(self, addr):
        """The line-aligned base address containing ``addr``."""
        if self._line_mask is not None:
            return addr & self._line_mask
        return addr - (addr % self.line_size)

    def _set_index(self, line_addr):
        if self._set_mask is not None and self._line_shift is not None:
            return (line_addr >> self._line_shift) & self._set_mask
        return (line_addr // self.line_size) % self.num_sets

    def _set_of(self, line_addr):
        return self._sets[self._set_index(line_addr)]

    # -- snooping interface (called by the coherence domain) ----------------

    def peek_state(self, line_addr):
        """MOESI state of a line without touching LRU (snoop view)."""
        return self._set_of(line_addr).get(line_addr, LineState.INVALID)

    def snoop_invalidate(self, line_addr):
        """A peer is taking ownership: drop the line.

        Dirty data is forwarded cache-to-cache by the domain, so no
        writeback traffic is generated here.
        """
        self._set_of(line_addr).pop(line_addr, None)

    def snoop_downgrade(self, line_addr):
        """A peer read a line we own: M/E -> O/S (we keep responsibility
        for dirty data in the O state)."""
        cache_set = self._set_of(line_addr)
        state = cache_set.get(line_addr)
        if state == LineState.MODIFIED:
            cache_set[line_addr] = LineState.OWNED
        elif state == LineState.EXCLUSIVE:
            cache_set[line_addr] = LineState.SHARED

    # -- direct state manipulation (preload / flush engines) ----------------

    def preload(self, start, size, state=LineState.MODIFIED):
        """Install every line of [start, start+size) — e.g. CPU-generated
        input data sitting dirty in the CPU's cache before offload."""
        line = self.line_addr(start)
        while line < start + size:
            self._install(line, state)
            line += self.line_size

    def flush_line(self, line_addr):
        """Software flush (writeback + invalidate) of one line.

        Returns True when the line was dirty (a writeback was generated).
        """
        cache_set = self._set_of(line_addr)
        state = cache_set.pop(line_addr, LineState.INVALID)
        if state in LineState.DIRTY_STATES:
            self.writebacks += 1
            if self.domain is not None:
                self.domain.writeback(self, line_addr, state)
            return True
        return False

    def extract_line(self, line_addr):
        """Remove a line without generating traffic; returns True when it
        was dirty.  Used by flush engines that own their writeback path
        (the CPU reaches DRAM through its own port, not the accelerator
        fabric)."""
        state = self._set_of(line_addr).pop(line_addr, LineState.INVALID)
        if state in LineState.DIRTY_STATES:
            self.writebacks += 1
            return True
        return False

    def invalidate_line(self, line_addr):
        """Software invalidate (no writeback — used for DMA return regions)."""
        self._set_of(line_addr).pop(line_addr, None)

    # -- the access path -----------------------------------------------------

    def access(self, addr, size, is_write, callback, args=(), stream=None,
               defer_hit=False):
        """Attempt one demand access.

        Returns ``"hit"``, ``"miss"`` (accepted, fill in flight) or
        ``"blocked"`` (MSHRs exhausted — caller must retry).
        ``callback(*args)`` fires once the data is available (after the
        hit latency, or after the fill plus hit latency); ``stream`` keys
        the prefetcher's stride detection.  With ``defer_hit`` a hit
        schedules nothing and returns the hit latency in ticks instead:
        the caller schedules the completion itself.  A blocked access
        changes nothing but ``blocked``, and stays blocked until ``epoch``
        moves.

        Every demand access of the accelerator takes this path once, so it
        does its own arithmetic: the line and set come from the
        precomputed shift and masks (power-of-two geometry), and a hit
        counts its read or write and its prefetcher observation in this
        body, in the order :meth:`_count_access` counts a miss's.
        """
        mask = self._line_mask
        if self._set_mask is not None and mask is not None:
            line = addr & mask
            last = (addr + size - 1) & mask
            cache_set = self._sets[(line >> self._line_shift)
                                   & self._set_mask]
        else:
            line = self.line_addr(addr)
            last = self.line_addr(addr + size - 1)
            cache_set = self._sets[self._set_index(line)]
        if last != line:
            raise ConfigError(
                f"access at 0x{addr:x} size {size} spans cache lines"
            )
        state = cache_set.get(line, _INVALID)
        if state != _INVALID and (not is_write or state in _WRITABLE):
            if is_write:
                self.writes += 1
            else:
                self.reads += 1
            for target in self.prefetcher.observe(stream or "anon", addr,
                                                  self.line_size):
                self._try_prefetch(target)
            self.hits += 1
            cache_set.move_to_end(line)
            if is_write:
                cache_set[line] = _MODIFIED
                if self._checker is not None:
                    self._checker.on_install(self, line, _MODIFIED)
            if defer_hit:
                return self._hit_ticks
            self.sim.schedule(self._hit_ticks, callback, *args)
            return "hit"

        # Miss (or write upgrade, which we conservatively treat as a miss).
        if self.mshrs.lookup(line):
            self._count_access(is_write, addr, stream)
            self.merged += 1
            self.mshrs.merge(line, (callback, args, is_write))
            return "miss"
        if not self.mshrs.allocate(line):
            # Rejected: the caller retries, so count nothing yet.
            self.blocked_again(1, (line,))
            return "blocked"
        self._count_access(is_write, addr, stream)
        self.misses += 1
        if self._trace is not None:
            self._trace(self.sim.now, "%s miss 0x%x",
                        "write" if is_write else "read", line)
        self.mshrs.merge(line, (callback, args, is_write))
        self.domain.fetch_line(
            self, line, for_write=is_write,
            callback=lambda fill_state, _line=line: self._fill(_line, fill_state),
        )
        return "miss"

    def blocked_again(self, count, addrs):
        """Count ``count`` more refused accesses without probing them:
        while ``epoch`` stands still a refused access is refused again and
        changes nothing else.  ``addrs`` (one address per access) is read
        only when traced."""
        self.blocked += count
        if self._trace is not None:
            for addr in addrs:
                self._trace(self.sim.now, "blocked 0x%x (MSHRs full)",
                            self.line_addr(addr))

    def _count_access(self, is_write, addr, stream):
        """Per accepted access: stats plus one prefetcher observation."""
        if is_write:
            self.writes += 1
        else:
            self.reads += 1
        for target in self.prefetcher.observe(stream or "anon", addr,
                                              self.line_size):
            self._try_prefetch(target)

    def _try_prefetch(self, line_addr):
        """Issue a prefetch fill if the line is absent and MSHRs allow."""
        if self.peek_state(line_addr) != LineState.INVALID:
            return
        if self.mshrs.lookup(line_addr) or self.mshrs.full():
            return
        self.mshrs.allocate(line_addr)
        self.domain.fetch_line(
            self, line_addr, for_write=False,
            callback=lambda st, _line=line_addr: self._fill(_line, st,
                                                            prefetch=True),
        )

    def _fill(self, line_addr, fill_state, prefetch=False):
        waiters = self.mshrs.release(line_addr)
        self.epoch += 1
        # A waiter that wrote forces the installed state to M.  If the fill
        # came back from a plain read probe (anything but M), peers may still
        # hold the line — the domain must invalidate them or they would
        # retain stale SHARED copies next to our MODIFIED one.
        if any(w_is_write for _cb, _args, w_is_write in waiters):
            if fill_state != LineState.MODIFIED and self.domain is not None:
                self.domain.upgrade_line(self, line_addr)
            fill_state = LineState.MODIFIED
        self._install(line_addr, fill_state)
        if prefetch:
            self.prefetch_fills += 1
        else:
            self.fills += 1
        if self._trace is not None:
            self._trace(self.sim.now, "fill 0x%x state=%s%s", line_addr,
                        fill_state, " (prefetch)" if prefetch else "")
        delay = self._hit_ticks
        for cb, args, _is_write in waiters:
            self.sim.schedule(delay, cb, *args)

    def _install(self, line_addr, state):
        self.epoch += 1
        cache_set = self._set_of(line_addr)
        if line_addr in cache_set:
            cache_set.move_to_end(line_addr)
            cache_set[line_addr] = state
        else:
            if len(cache_set) >= self.assoc:
                victim, victim_state = cache_set.popitem(last=False)
                if victim_state in LineState.DIRTY_STATES:
                    # Every dirty eviction generates writeback traffic —
                    # including preload-path evictions, which used to skip
                    # the domain and silently drop modeled bus/DRAM work.
                    self.writebacks += 1
                    if self.domain is not None:
                        self.domain.writeback(self, victim, victim_state)
            cache_set[line_addr] = state
        if self._checker is not None:
            self._checker.on_install(self, line_addr, state)

    # -- stats ----------------------------------------------------------------

    def miss_rate(self):
        """Primary demand misses over accepted accesses (merged secondary
        misses count as neither hit nor miss, matching gem5's convention)."""
        total = self.hits + self.misses + self.merged
        return self.misses / total if total else 0.0

    def resident_lines(self):
        """Number of valid lines currently installed."""
        return sum(len(s) for s in self._sets)

    def reg_stats(self, stats, prefix=None):
        """Mirror this cache's counters into a stats registry."""
        prefix = prefix or f"soc.{self.name}"
        stats.scalar(f"{prefix}.reads", lambda: self.reads,
                     desc="accepted read accesses")
        stats.scalar(f"{prefix}.writes", lambda: self.writes,
                     desc="accepted write accesses")
        stats.scalar(f"{prefix}.hits", lambda: self.hits,
                     desc="demand hits")
        stats.scalar(f"{prefix}.misses", lambda: self.misses,
                     desc="primary demand misses (fills issued)")
        stats.scalar(f"{prefix}.merged", lambda: self.merged,
                     desc="secondary misses absorbed by an MSHR")
        stats.scalar(f"{prefix}.blocked", lambda: self.blocked,
                     desc="rejected accesses (MSHRs full)")
        stats.scalar(f"{prefix}.fills", lambda: self.fills,
                     desc="demand lines installed")
        stats.scalar(f"{prefix}.prefetch_fills", lambda: self.prefetch_fills,
                     desc="prefetched lines installed")
        stats.scalar(f"{prefix}.writebacks", lambda: self.writebacks,
                     desc="dirty lines written back")
        stats.formula(f"{prefix}.miss_rate",
                      lambda misses, hits, merged:
                      misses / (hits + misses + merged),
                      deps=(f"{prefix}.misses", f"{prefix}.hits",
                            f"{prefix}.merged"),
                      desc="primary misses / accepted accesses")
