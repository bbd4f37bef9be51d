"""End-of-run resource-leak audits.

A simulation that *completes* can still be wrong: an MSHR entry that was
allocated but never released, a full/empty-bit waiter that never woke, a
DMA transaction left in flight, a bus reservation stretching past the
final tick — all of these mean some modeled work silently vanished, and
the run's timing is quietly optimistic.

:func:`audit_platform` walks one :class:`~repro.core.soc.Platform` (the
shared bus / DRAM / coherence / CPU-cache half plus every attached
:class:`~repro.core.soc.SoC`) after the event queue has drained and
returns a structured result; :class:`~repro.check.Checker` raises
:class:`~repro.errors.LeakError` when any finding survives.

Audited resources:

* cache MSHR files (CPU and accelerator side) — no unreleased entries;
* coherence domain — no pending or deferred line fetches;
* full/empty ``ReadyBits`` — no callbacks still blocked on unfilled lines;
* DMA engine — channel idle, no queued transactions, no bursts in flight,
  busy interval closed;
* accelerator TLB — no pending page-table walks, and every TLB hit
  reached the cache exactly once (``tlb.hits`` equals the cache's hits +
  misses + merged + blocked);
* datapath accesses — without perfect memory, every load and store the
  cache-design datapath issued reached memory exactly once
  (``issued_loads + issued_stores`` equals the cache's reads + writes
  plus the scratchpad's accesses);
* datapath scheduler — finished, nothing in flight, no nodes stranded in
  the per-lane ready queues (checked against the actual queue contents,
  with counter drift reported separately), none parked behind round or
  modulo-II gates, no unopened modulo gates;
* CPU driver — busy/flush intervals closed;
* system bus — ``next_free`` not beyond the final tick;
* cache/scratchpad port accounting — per-cycle counters within bounds;
* pipeline handoff buffers — no committed-but-unconsumed chunks, no
  producer still stalled on buffer credit, no consumer still parked on an
  empty buffer, stall/park intervals closed.
"""


def _leak(leaks, component, kind, detail):
    leaks.append({"component": component, "kind": kind, "detail": detail})


def _audit_cache(leaks, name, cache):
    mshrs = cache.mshrs
    if mshrs.in_use:
        lines = ", ".join(f"0x{a:x}" for a in mshrs.pending_lines()[:8])
        _leak(leaks, name, "mshr_leak",
              f"{mshrs.in_use} unreleased MSHR entrie(s): {lines}")


def _audit_scheduler(leaks, name, sched):
    """Datapath scheduler: finished, nothing in flight, queued or parked.

    The ready audit inspects the *actual* per-lane ready buckets, not just
    the ``_num_ready`` counter: with round barriers off (or modulo-gated)
    a wedged pipelined schedule can strand nodes in the lane queues, and
    a counter bug could report zero while queues still hold work.  Both
    the stranded nodes and any counter drift are separate findings.
    """
    if not sched.done:
        _leak(leaks, name, "datapath_unfinished",
              f"{sched._completed}/{sched._num_nodes} nodes completed")
    if sched._in_flight:
        _leak(leaks, name, "nodes_in_flight",
              f"{sched._in_flight} node(s) still in flight")
    queued = sum(len(bucket) for lane in sched._ready for bucket in lane)
    if queued:
        _leak(leaks, name, "nodes_ready_unissued",
              f"{queued} ready node(s) never issued")
    if queued != sched._num_ready:
        _leak(leaks, name, "ready_counter_drift",
              f"_num_ready reads {sched._num_ready} but the lane queues "
              f"hold {queued} node(s)")
    if sched._round_parked:
        parked = sum(len(v) for v in sched._round_parked.values())
        rounds = ", ".join(str(r) for r in sorted(sched._round_parked)[:8])
        _leak(leaks, name, "nodes_parked",
              f"{parked} node(s) parked behind round gate(s) {rounds}")
    started = sched._round_started
    if started is not None and not sched.done:
        unopened = started.count(False)
        if unopened:
            _leak(leaks, name, "ii_gates_unopened",
                  f"{unopened} of {len(started)} modulo round gate(s) "
                  f"never opened (II={sched.ii})")
    return 1


def _audit_soc(leaks, soc):
    prefix = f"accel{soc.accel_id}"
    count = 0

    sched = soc.scheduler
    count += _audit_scheduler(leaks, f"{prefix}.sched", sched)

    if soc.dma is not None:
        count += 1
        dma = soc.dma
        if not dma.idle():
            active = dma._active
            detail = (f"active transaction "
                      f"({active.completed_bursts}/{len(active.bursts)} "
                      f"bursts)" if active is not None else
                      f"{len(dma._queue)} transaction(s) still queued")
            _leak(leaks, f"{prefix}.dma", "dma_channel_busy", detail)
        if dma._in_flight:
            _leak(leaks, f"{prefix}.dma", "dma_bursts_in_flight",
                  f"{dma._in_flight} burst(s) never completed")
        if dma.busy.busy:
            _leak(leaks, f"{prefix}.dma", "open_busy_interval",
                  "busy interval opened but never closed")

    for array, bits in soc.ready_bits.items():
        count += 1
        waiters = bits.pending_waiters()
        if waiters:
            _leak(leaks, f"{prefix}.ready_bits.{array}", "pending_waiters",
                  f"{waiters} lane callback(s) still blocked on unfilled "
                  f"lines of {array!r}")

    if soc.accel_cache is not None:
        count += 1
        _audit_cache(leaks, f"{prefix}.cache", soc.accel_cache)

    tlb = soc.tlb
    if tlb is not None:
        count += 1
        if tlb._pending:
            _leak(leaks, f"{prefix}.tlb", "pending_walks",
                  f"{len(tlb._pending)} page-table walk(s) never "
                  f"finished")
        cache = soc.accel_cache
        reached = cache.hits + cache.misses + cache.merged + cache.blocked
        if tlb.hits != reached:
            _leak(leaks, f"{prefix}.tlb", "tlb_cache_conservation",
                  f"{tlb.hits} TLB hits, but the cache counted {reached} "
                  f"accesses (hits + misses + merged + blocked)")
        if not sched.mem_if.perfect:
            issued = sched.issued_loads + sched.issued_stores
            reached = cache.reads + cache.writes + soc.spad.accesses
            if issued != reached:
                _leak(leaks, f"{prefix}.sched",
                      "datapath_access_conservation",
                      f"{issued} loads and stores issued, but the cache "
                      f"and scratchpad accepted {reached} (reads + writes "
                      f"+ scratchpad accesses)")

    mem_if = sched.mem_if
    ports = getattr(mem_if, "ports", None)
    if ports is not None:
        count += 1
        used = mem_if._ports_used
        if not 0 <= used <= ports:
            _leak(leaks, f"{prefix}.cache_ports", "port_accounting",
                  f"{used} ports in use, {ports} exist (refund imbalance)")

    count += 1
    spad = soc.spad
    for array, banks in spad._banks.items():
        for bank, slot in enumerate(banks):
            if slot[1] > spad.ports:
                _leak(leaks, f"{prefix}.spad.{array}", "port_accounting",
                      f"bank {bank} recorded {slot[1]} accesses in one "
                      f"cycle with {spad.ports} port(s)")
                break

    driver = soc.driver
    count += 1
    if driver.busy.busy or driver.flush_busy.busy:
        _leak(leaks, f"cpu{soc.accel_id}", "open_busy_interval",
              "driver busy interval opened but never closed")

    return count


def _audit_link(leaks, link):
    """One streaming handoff buffer (repro.core.pipeline.HandoffLink).

    At the end of a clean run every committed chunk was drained and both
    sides retired: leftover full bits are producer data the consumer never
    read, pending waiters are a consumer parked forever, pending *empty*
    waiters are a producer that died stalled on buffer credit.
    """
    name = f"pipeline.{link.name}"
    bits = link.bits
    full = sum(bits._ready)
    if full:
        _leak(leaks, name, "unconsumed_handoff_data",
              f"{full} committed chunk(s) of "
              f"{link.producer_workload!r} -> "
              f"{link.consumer_workload!r} "
              f"never drained by the consumer")
    waiters = bits.pending_waiters()
    if waiters:
        _leak(leaks, name, "consumer_parked",
              f"{waiters} consumer callback(s) still waiting for the "
              f"producer to commit")
    empty_waiters = bits.pending_empty_waiters()
    if empty_waiters:
        _leak(leaks, name, "producer_stalled",
              f"{empty_waiters} producer callback(s) still waiting for "
              f"buffer credit")
    if link.producer_stall.busy:
        _leak(leaks, name, "open_busy_interval",
              "producer stall interval opened but never closed")
    if link.consumer_park.busy:
        _leak(leaks, name, "open_busy_interval",
              "consumer park interval opened but never closed")
    return 1


def audit_platform(platform):
    """Audit every component of ``platform`` for leaked end-of-run state.

    Returns ``{"tick", "components_audited", "leaks", "clean"}``; callers
    that want an exception on findings go through
    :meth:`repro.check.Checker.audit`.
    """
    leaks = []
    now = platform.sim.now
    components = 0

    components += 1
    bus = platform.bus
    if bus.next_free > now:
        _leak(leaks, "soc.bus", "bus_busy_past_end",
              f"bus reserved until tick {bus.next_free}, simulation ended "
              f"at {now}")

    components += 1
    domain = platform.domain
    pending = getattr(domain, "_pending", None)
    if pending:
        lines = ", ".join(f"0x{a:x}" for a in list(pending)[:8])
        _leak(leaks, "soc.coherence", "pending_fetches",
              f"{len(pending)} line fetch(es) still in flight or "
              f"deferred: {lines}")

    components += 1
    _audit_cache(leaks, "soc.cpu_cache", platform.cpu_cache)

    for soc in platform.socs:
        components += _audit_soc(leaks, soc)

    for link in getattr(platform, "handoff_links", ()):
        components += _audit_link(leaks, link)

    return {"tick": now, "components_audited": components,
            "leaks": leaks, "clean": not leaks}


def format_leaks(leaks):
    """One human-readable line per leak finding."""
    return [f"{leak['component']}: {leak['kind']} — {leak['detail']}"
            for leak in leaks]
