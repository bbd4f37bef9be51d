"""Dynamic, resource-constrained datapath scheduling.

Aladdin schedules the DDDG "through a breadth-first traversal, while
accounting for user-defined hardware constraints" (Section III-B).  Because
gem5-Aladdin must capture *dynamic* interactions — variable-latency cache
accesses, DMA arrival order, bus contention — scheduling here is not a
static pass: the scheduler is an event-driven component that issues ready
nodes on accelerator clock edges and hears back from the memory system.

Constraints modeled per cycle:

* one pipelined functional unit per class per lane (II = 1; widened by
  ``fu_per_lane``);
* one memory issue per lane, arbitrating for scratchpad bank ports or
  cache ports;
* loop pipelining, one of three modes over the iteration rounds of
  :mod:`transforms`:

  - ``barriers`` — rounds synchronize, but within a round a lane blocked
    on a cache miss or an unfilled full/empty bit stalls alone (Section
    IV-D's miss-handling scheme);
  - ``off`` — rounds overlap freely (classic Aladdin loop pipelining);
  - ``modulo`` — round r+1 opens II cycles after round r's first issue,
    or when round r completes, whichever comes first
    (:mod:`repro.aladdin.modulo`).

Ready set.  Each lane queues its ready nodes in one FIFO bucket per FU
class, each node with its enqueue sequence number, so the lane's issue
order is the merge of its buckets in sequence order.  An issue pass takes
a compute bucket's issuable heads in bulk and walks the memory bucket
(each node needs its own bank, bit or cache) only until the memory port
saturates.  The conflicts a node-by-node scan would have counted on the
nodes of a saturated bucket come from the bucket's sequence range.

Per-lane work.  A lane's FU row counts only while its stamp is the
current cycle: a pass resets it when it visits the lane, and tries only
the compute classes the graph uses.  A scratchpad lane whose memory
bucket is all its memoized blocked run is counted, not walked.  Once
every cache port is taken, a pass walks a cache lane only in a design
with internal arrays, whose scratchpad nodes it may still reach.  Loads
and stores are counted where a walk accepts the access.  A completion
batch also runs the batches due on its tick that follow it with nothing
queued in between, then books one issue pass.
"""

from bisect import bisect_left
from collections import deque
from heapq import heappop, heappush
from itertools import compress, islice
from operator import attrgetter

from repro.errors import SimulationError
from repro.aladdin.ir import FuClass, MEMORY_OPS, OP_INFO, Op
from repro.obs import trace
from repro.sim.stats import IntervalTracker

# Functional-unit classes as dense indices, so the per-cycle issue loop
# counts FU use in flat lists instead of dicts.
_FU_INDEX = {fu: i for i, fu in enumerate(FuClass.ALL)}
_NUM_FU = len(FuClass.ALL)
_MEM = _FU_INDEX[FuClass.MEM]
_COMPUTE_FUS = tuple(fu for fu in range(_NUM_FU) if fu != _MEM)
# Beyond every sequence key: "the lane never stopped".
_NEVER = float("inf")
# Shortest run of bank-blocked nodes worth remembering between walks.
_MEMO_BLOCKED = 8
# Agenda entry kinds: an issue pass, a completion batch, a modulo II gate.
_PASS, _BATCH, _GATE = 0, 1, 2


def _ports_taken(now, cycle, lane, mem, used, issued, launched, batches):
    """The memory step of a lane that finds every cache port taken, with
    no internal array to reach: it launches the lane's compute issues
    and probes nothing, as the cache walk would (see
    :meth:`DatapathScheduler._cache_walker`)."""
    issued.sort()
    launched += issued
    return _NEVER


class DatapathScheduler:
    """Executes one DDDG on a configured datapath inside the event queue."""

    def __init__(self, sim, clock, ddg, assignment, mem_if,
                 fu_per_lane=None, on_done=None, name="accel",
                 pipelining="barriers", ii=0,
                 rec_mii=0, res_mii=0):
        self.sim = sim
        self.clock = clock
        self.ddg = ddg
        self.trace = ddg.trace
        self.assign = assignment
        self.mem_if = mem_if
        self.on_done = on_done
        self.name = name
        self.lanes = assignment.lanes
        self.fu_per_lane = dict(fu_per_lane or {})
        # Round-release discipline.  ``pipelining`` names the mode:
        #   "barriers" — rounds synchronize (Section IV-D);
        #   "off"      — free overlap, the classic-Aladdin loop pipelining;
        #   "modulo"   — round r+1 opens II cycles after round r's first
        #                issue, or when round r fully completes, whichever
        #                comes first (see repro.aladdin.modulo).  The
        #                completion fallback makes barriers the degenerate
        #                case: an II at or above the dynamic round duration
        #                reproduces barrier timing instead of throttling
        #                below it, so the gate can only add overlap.
        if pipelining not in ("off", "barriers", "modulo"):
            raise SimulationError(
                f"{name}: unknown pipelining mode {pipelining!r}")
        self.pipelining = pipelining
        self.round_barriers = pipelining == "barriers"
        self.ii = int(ii or 0)           # enforced II, accelerator cycles
        self.rec_mii = int(rec_mii or 0)
        self.res_mii = int(res_mii or 0)
        if self.ii < 0:
            raise SimulationError(f"{name}: ii must be >= 0, got {ii!r}")
        # A degenerate modulo schedule (single round, no rounds, or II 0)
        # has nothing to gate and behaves like barriers trivially.
        self._ii_gated = (pipelining == "modulo" and self.ii > 0
                          and assignment.num_rounds > 1)
        self._ii_ticks = clock.cycles_to_ticks(self.ii) if self._ii_gated \
            else 0
        # First-issue tick per round (modulo mode): the anchor for the
        # round r+1 gate at first_issue[r] + II.
        self._round_started = ([False] * assignment.num_rounds
                               if self._ii_gated else None)
        self.reservation_conflicts = 0
        self._indegree = list(ddg.indegree)
        # Ready set: ``_ready[lane][fu]`` is a FIFO of keys.  A key is
        # ``seq * 2**k + node``: keys sort in enqueue order, and
        # ``key & mask`` recovers the node.
        self._ready = [[[] for _ in range(_NUM_FU)]
                       for _ in range(self.lanes)]
        n = ddg.num_nodes
        self._key_step = 1 << n.bit_length()
        self._key_mask = self._key_step - 1
        self._next_key = 0
        self._round_parked = {}
        # Nodes-per-round template: shared read-only on the (memoized)
        # assignment, copied here because the countdown mutates during
        # the run.
        self._round_remaining = list(assignment.ensure_round_base())
        self._current_round = 0
        self._completed = 0
        self._in_flight = 0
        self._started = False
        self.done = False
        self.busy = IntervalTracker(name)
        self.start_tick = None
        self.done_tick = None
        self.issued_loads = 0
        self.issued_stores = 0
        self._obs_trace = trace.tracer("sched", name)
        # Flat per-node arrays precomputed once, so the per-cycle issue
        # pass touches no dicts: FU index, latency in ticks, and kind
        # (0 = compute, 1 = load, 2 = store).
        node_ops = self.trace.node_op
        # These arrays are pure functions of (trace ops, clock period), so
        # they are shared across every scheduler built on the same graph —
        # a design sweep rebuilds the SoC per point but not these.  They
        # are strictly read-only after construction.
        fu_memo = getattr(ddg, "_fu_memo", None)
        if fu_memo is None:
            fu_memo = ddg._fu_memo = {}
        arrays = fu_memo.get((clock.period, n))
        if arrays is None:
            # Derived once per distinct op (a handful), not once per node.
            per_op = {op: (_FU_INDEX[OP_INFO[op].fu],
                           clock.cycles_to_ticks(OP_INFO[op].latency),
                           1 if op == Op.LOAD else 2 if op == Op.STORE else 0)
                      for op in set(node_ops)}
            node_fu, node_ticks, node_kind = (
                [per_op[op][i] for op in node_ops] for i in range(3))
            used = set(node_fu)
            arrays = fu_memo[(clock.period, n)] = (
                node_fu, node_ticks, node_kind,
                tuple(fu for fu in _COMPUTE_FUS if fu in used))
        self._node_fu = arrays[0]
        self._node_ticks = arrays[1]
        self._node_kind = arrays[2]
        # The compute classes this graph uses: the issue pass tries no other.
        self._compute_fus = arrays[3]
        self._fu_limits = [self.fu_per_lane.get(fu, 1) for fu in FuClass.ALL]
        self._node_lane = assignment.lane
        self._node_round = assignment.round
        self._successors = ddg.successors
        self._num_nodes = n
        # The queue is accessed directly (not through the Simulator
        # wrapper) on every issue/completion.
        self._queue = sim.queue
        self._period = clock.period
        # Per-cycle resource state.  A lane's FU row counts only while its
        # stamp is the current cycle; the issue pass resets a row when it
        # visits its lane in a later cycle.
        self._state_cycle = -1
        self._fu_zero = [0] * _NUM_FU
        self._fu_used = [[0] * _NUM_FU for _ in range(self.lanes)]
        self._fu_stamp = [-1] * self.lanes
        # Ready nodes in all, and per lane.
        self._num_ready = 0
        self._lane_ready = [0] * self.lanes
        # Ticks of pending issue passes.  A pass may be superseded by an
        # earlier-edge kick; tracking every booked tick (instead of only
        # the earliest) keeps a pass from being booked twice for the same
        # edge, which used to waste an event and an empty pass.
        self._scheduled_passes = set()
        # The agenda: a heap of (tick, seq, kind, arg) entries, each with
        # the sequence number the event queue would have given its event,
        # and ``_zero``, the (kind, arg) entries due now in queue-FIFO
        # rank.  The last ``_zero_posted`` of those, and the heap entries
        # whose seq is in ``_posted``, have an ``_issue_pass`` event
        # queued for them.
        self._agenda = []
        self._zero = deque()
        self._zero_posted = 0
        self._posted = set()
        # The memory interface precomputes its per-node tables and, by
        # type, picks the issue step's memory walk; only the cache's port
        # count needs a reset on each new cycle.
        mem_if.bind(self)
        spad = isinstance(mem_if, SpadInterface)
        # Ticks from issue to completion per node: the op latency, or the
        # scratchpad's access latency.  The cache walk writes each access's
        # own into a copy (None: a miss, which the cache completes).
        delay = self._node_ticks
        if not spad:
            delay = list(delay)
        elif any(mem_if._latency_ticks != clock.cycles_to_ticks(
                OP_INFO[op].latency) for op in MEMORY_OPS):
            delay = [mem_if._latency_ticks if kind else ticks
                     for ticks, kind in zip(delay, self._node_kind)]
        self._node_delay = delay
        self._launch = self._launcher()
        self._walk_memory = (self._spad_walker() if spad
                             else self._cache_walker())
        self._new_cycle = None if spad else mem_if.new_cycle
        # The cache interface, when a taken cache port ends every walk (no
        # internal array lets a walk reach a scratchpad node past it).
        self._port_gate = None if spad or mem_if.internal else mem_if

    # -- lifecycle ---------------------------------------------------------

    def start(self):
        """Begin execution (called by the SoC once the accelerator is
        invoked — after DMA completes, or immediately for DMA-triggered
        compute / cache-based designs)."""
        if self._started:
            raise SimulationError(f"{self.name}: started twice")
        self._started = True
        self.start_tick = self.sim.now
        if self._obs_trace is not None:
            self._obs_trace(self.sim.now, "start: %d nodes, %d lanes",
                            self.ddg.num_nodes, self.lanes)
        if self.ddg.num_nodes == 0:
            self._finish()
            return
        gated = self.round_barriers or self._ii_gated
        parked = self._round_parked
        node_round, current = self._node_round, self._current_round
        roots = []
        for node in self.ddg.roots:
            r = node_round[node]
            if gated and r > current:
                parked.setdefault(r, []).append(node)
            else:
                roots.append(node)
        self._enqueue_ready(roots)
        self._kick()
        self._post()

    def _finish(self):
        self.done = True
        self.done_tick = self.sim.now
        if self._obs_trace is not None:
            self._obs_trace(self.sim.now,
                            "finish: %d loads, %d stores, %d ticks",
                            self.issued_loads, self.issued_stores,
                            self.done_tick - self.start_tick)
        if self.on_done is not None:
            self.on_done()

    def release(self):
        """Drop the closures and the completion callback that refer back
        to this scheduler or its owner, once the run is over (see
        DESIGN.md "Object lifetime").  Counters and queues stay readable.
        """
        self._launch = self._walk_memory = self.on_done = None
        if isinstance(self.mem_if, CacheInterface):
            self.mem_if.release()

    @property
    def compute_ticks(self):
        """Ticks from start to last node completion."""
        if self.start_tick is None or self.done_tick is None:
            return None
        return self.done_tick - self.start_tick

    # -- readiness ------------------------------------------------------------

    def _enqueue_ready(self, nodes):
        """Queue ``nodes``, in order, each in its lane's bucket."""
        ready, lane_ready = self._ready, self._lane_ready
        node_lane, node_fu = self._node_lane, self._node_fu
        key, step = self._next_key, self._key_step
        for node in nodes:
            lane = node_lane[node]
            ready[lane][node_fu[node]].append(key + node)
            lane_ready[lane] += 1
            key += step
        self._next_key = key
        self._num_ready += len(nodes)

    def resume_parked(self, node):
        """Re-queue a node that was parked on a TLB walk or full/empty bit."""
        self._enqueue_ready((node,))
        self._kick()
        self._post()

    def _kick(self):
        """Ensure an issue pass is booked at the next accelerator edge."""
        if self._num_ready:
            now = self._queue.now
            when = now + (-now) % self._period
            pending = self._scheduled_passes
            if not pending or min(pending) > when:
                pending.add(when)
                self._at(when, _PASS, None)

    # -- the cycle loop ----------------------------------------------------------
    #
    # Each event the datapath would schedule is an agenda entry instead,
    # under the (tick, seq) the queue would have given it, run inline by
    # ``_issue_pass`` (DESIGN.md, "Datapath cycle loop").
    #
    # A lane's issue pass is defined as a scan of its ready nodes in
    # enqueue order that issues what its resources allow, counts a
    # conflict for every node it probes and refuses, and stops once every
    # FU class still queued is saturated or emptied.  Without probing
    # saturated classes: a compute class issues its first ``limit - used``
    # nodes; the memory bucket is walked until the port saturates or it
    # empties (its exhaustion key ``mem_full``); the scan's ``stop`` is
    # the largest exhaustion key, and the unprobed nodes before it in
    # saturated classes are reservation conflicts, found by bisection.
    # Issues launch in key order.  The memory walk (picked by the
    # interface) and the launch step are closures built once per run.

    def _issue_pass(self, kind=None, arg=None):
        """The event the agenda posts: one stretch of the cycle loop.  It
        runs the entry it was posted for, then every following entry
        that nothing queued precedes, up to the run's ``horizon`` and
        ``budget`` (which it spends).  Given an entry (``kind``, ``arg``)
        due now, it runs only that one.  Then it posts the earliest."""
        queue = self._queue
        agenda, zero, posted = self._agenda, self._zero, self._posted
        horizon = queue.horizon
        if kind is not None:
            horizon = None
        elif agenda and agenda[0][0] == queue.now:
            _tick, seq, kind, arg = heappop(agenda)
            posted.remove(seq)
        else:
            kind, arg = zero.popleft()
            self._zero_posted -= 1
        heap, fifo, now, budget = (queue._heap, queue._fifo, queue.now,
                                   queue.budget)
        pending, period = self._scheduled_passes, self._period
        limits, mask, step = self._fu_limits, self._key_mask, self._key_step
        mem_limit = limits[_MEM]
        compute_fus = self._compute_fus
        launch, walk_memory = self._launch, self._walk_memory
        ready, lane_ready = self._ready, self._lane_ready
        fu_used, fu_zero, stamps = self._fu_used, self._fu_zero, self._fu_stamp
        new_cycle = self._new_cycle
        port_gate = self._port_gate
        cache_ports = port_gate.ports if port_gate is not None else 0
        lanes = range(self.lanes)
        node_round, node_lane = self._node_round, self._node_lane
        node_fu = self._node_fu
        indegree, successors = self._indegree, self._successors
        ii_gated = self._ii_gated
        gated = self.round_barriers or ii_gated
        parked, remaining = self._round_parked, self._round_remaining
        num_rounds, num_nodes = len(remaining), self._num_nodes
        launched, issued, tails = [], [], []
        try:
            while True:
                if kind == _PASS:
                    # -- one cycle's issue pass -------------------------
                    pending.discard(now)
                    cycle = now // period
                    if new_cycle is not None and cycle != self._state_cycle:
                        self._state_cycle = cycle
                        new_cycle()
                    batches = {}
                    conflicts = 0
                    taken_all = 0
                    walk = walk_memory
                    # Lanes with ready nodes (no other lane gains any).
                    for lane in compress(lanes, lane_ready):
                        left = lane_ready[lane]
                        queues = ready[lane]
                        mem = queues[_MEM]
                        queued = len(mem)
                        left -= queued
                        if (port_gate is not None
                                and port_gate._ports_used >= cache_ports):
                            # Every cache port is taken, and stays taken
                            # for the rest of the pass (only a new cycle
                            # frees one): a walk would stop at its first
                            # node.
                            if not left:
                                continue
                            walk = _ports_taken
                        used = fu_used[lane]
                        if stamps[lane] != cycle:
                            stamps[lane] = cycle
                            used[:] = fu_zero
                        # Compute classes: the issuable heads go in bulk.
                        issued.clear()
                        tails.clear()
                        stop = -1
                        for fu in (compute_fus if left else ()):
                            fu_queue = queues[fu]
                            if fu_queue:
                                left -= len(fu_queue)
                                cap = limits[fu] - used[fu]
                                if cap > 0:
                                    if cap == 1:   # the default: no slice
                                        key = fu_queue.pop(0)
                                        used[fu] += 1
                                        if key > stop:
                                            stop = key
                                        issued.append(key)
                                    else:
                                        heads = fu_queue[:cap]
                                        del fu_queue[:cap]
                                        used[fu] += len(heads)
                                        if heads[-1] > stop:
                                            stop = heads[-1]
                                        issued += heads
                                    if fu_queue:
                                        tails.append(fu_queue)
                                else:
                                    tails.append(fu_queue)
                                if not left:
                                    break
                        taken = len(issued)
                        if queued and used[_MEM] < mem_limit:
                            mem_full = walk(now, cycle, lane, mem, used,
                                            issued, launched, batches)
                            taken += queued - len(mem)
                            if mem_full > stop:
                                stop = mem_full
                        elif stop < 0:
                            continue   # nothing issuable: the lane is skipped
                        else:
                            mem_full = -1
                            issued.sort()
                            launched.extend(issued)
                        lane_ready[lane] -= taken
                        taken_all += taken
                        for fu_queue in tails:
                            conflicts += bisect_left(fu_queue, stop)
                        if mem and mem_full < stop:
                            conflicts += (bisect_left(mem, stop)
                                          - bisect_left(mem, mem_full))
                    self._num_ready -= taken_all
                    self.reservation_conflicts += conflicts
                    if launched:
                        launch(now, launched, batches)
                    # Anything still queued retries at the next edge.
                    if self._num_ready:
                        when = now - now % period + period
                        if not pending or min(pending) > when:
                            pending.add(when)
                            seq = queue._seq
                            queue._seq = seq + 1
                            heappush(agenda, (when, seq, _PASS, None))
                elif kind == _BATCH:
                    # -- completions sharing this tick, in order --------
                    # _enqueue_ready inlined: the next key and the ready
                    # count live in locals, synced around round advances
                    # (which enqueue too).
                    key = start_key = self._next_key
                    done = 0
                    while True:
                        done += len(arg)
                        for node in arg:
                            for succ in successors[node]:
                                indegree[succ] -= 1
                                if indegree[succ] == 0:
                                    if gated:
                                        r = node_round[succ]
                                        if r > self._current_round:
                                            if r in parked:
                                                parked[r].append(succ)
                                            else:
                                                parked[r] = [succ]
                                            continue
                                    lane = node_lane[succ]
                                    ready[lane][node_fu[succ]].append(
                                        key + succ)
                                    lane_ready[lane] += 1
                                    key += step
                            if gated:
                                r = node_round[node]
                                if r >= 0:
                                    remaining[r] -= 1
                                    # Under barriers round r is the
                                    # current one.
                                    if ii_gated or not remaining[r]:
                                        r = self._current_round
                                        if (r < num_rounds
                                                and remaining[r] == 0):
                                            self._num_ready += (
                                                (key - start_key) // step)
                                            self._next_key = key
                                            self._advance_rounds()
                                            key = start_key = self._next_key
                        # The next batch due on this tick runs in the same
                        # pass when nothing queued comes before it.
                        if horizon is None or budget <= 0 or not agenda:
                            break
                        entry = agenda[0]
                        if (entry[0] != now or entry[2] != _BATCH
                                or (posted and entry[1] in posted)
                                or (heap and heap[0] < entry)):
                            break
                        heappop(agenda)
                        arg = entry[3]
                        budget -= 1
                    self._num_ready += (key - start_key) // step
                    self._next_key = key
                    self._in_flight -= done
                    if not self._in_flight:
                        self.busy.end(now)
                    self._completed += done
                    if self._completed == num_nodes:
                        self._finish()
                    elif self._num_ready:
                        # _kick inlined: an issue pass at the next edge.
                        when = now + (-now) % period
                        if not pending or min(pending) > when:
                            pending.add(when)
                            self._at(when, _PASS, None)
                else:
                    self._open_gate(arg)
                # -- the next entry, unless something queued is due first
                if horizon is None:
                    break
                if agenda:
                    entry = agenda[0]
                    when = entry[0]
                    if when == now or not zero:
                        if (budget <= 0
                                or (when != now and (fifo or when > horizon))
                                or (posted and entry[1] in posted)
                                or (heap and heap[0] < entry)):
                            break
                        heappop(agenda)
                        queue.now = now = when
                        kind = entry[2]
                        arg = entry[3]
                        budget -= 1
                        continue
                if len(zero) <= self._zero_posted:
                    break   # empty, or each entry has its own event
                kind, arg = zero.popleft()
                budget -= 1
        finally:
            queue.budget = budget
        self._post()

    def _at(self, when, kind, arg):
        """Add an agenda entry due at ``when``, in the place the event
        queue would have given its event (see the cycle loop above)."""
        queue = self._queue
        if when > queue.now:
            seq = queue._seq
            queue._seq = seq + 1
            heappush(self._agenda, (when, seq, kind, arg))
            return
        self._zero.append((kind, arg))
        heap = queue._heap
        if queue._fifo or (heap and heap[0][0] == when):
            queue._fifo.append((self._issue_pass, ()))
            self._zero_posted += 1

    def _post(self):
        """Queue an ``_issue_pass`` event for the earliest agenda entry,
        unless one is queued already."""
        agenda, zero, queue = self._agenda, self._zero, self._queue
        if agenda and (agenda[0][0] == queue.now or not zero):
            when, seq = agenda[0][:2]
            if seq not in self._posted:
                self._posted.add(seq)
                heappush(queue._heap, (when, seq, self._issue_pass, ()))
        while len(zero) > self._zero_posted:
            queue._fifo.append((self._issue_pass, ()))
            self._zero_posted += 1

    def _spad_walker(self):
        """``walk(now, cycle, lane, mem, used, issued, launched, batches)``
        tries ``mem``, a lane's memory bucket, against banks and bits until
        the memory port saturates; appends the lane's issues (``issued``
        holds the compute ones) to ``launched`` in key order; returns the
        memory class's exhaustion key (``_NEVER``: queued, port free).
        """
        mem_if = self.mem_if
        spad = mem_if.spad
        node_index = self.trace.node_index
        arrays = self.trace.arrays
        ports = mem_if._ports
        plans = mem_if._node_plan
        slots = mem_if._plan_slots
        plan_bits = mem_if._plan_bits
        plan_ready = mem_if._plan_ready
        access_by_array = mem_if._access_by_array
        resume = self.resume_parked
        mask = self._key_mask
        node_kind = self._node_kind
        limit = self._fu_limits[_MEM]

        # The nodes a lane's last walk found blocked lead its bucket; while
        # the banks they wait for are full again and no full/empty line was
        # cleared, they are blocked again.  Per lane, for runs of at least
        # _MEMO_BLOCKED nodes: (count, banks, lines cleared).
        blocked = [None] * self.lanes
        gated = plan_bits[1:]
        lines_cleared = attrgetter("lines_cleared")

        def walk(now, cycle, lane, mem, used, issued, launched, batches):
            start = 0
            memo = blocked[lane]
            if memo is not None:
                for b in memo[1]:
                    slot = slots[b]
                    if slot[0] != cycle or slot[1] < ports:
                        break
                else:
                    if memo[2] == sum(map(lines_cleared, gated)):
                        start = memo[0]
                        if start == len(mem):
                            # The whole bucket is the run: skip the lane.
                            spad.conflicts += start
                            if issued:
                                issued.sort()
                                launched += issued
                            return _NEVER
            lost = start
            end = _NEVER
            walked = start
            accesses = stores = 0
            for key in (islice(mem, start, None) if start else mem):
                walked += 1
                node = key & mask
                plan = plans[node]
                bi = plan[1]
                if bi and not (bi > 0 and plan_ready[bi][plan[2]]):
                    if bi < 0:
                        # Out of the bits' range: is_ready raises.
                        plan_bits[-bi].is_ready(
                            node_index[node] * arrays[plan[3]].word_bytes)
                    plan_bits[bi].wait_bit(plan[2],
                                           lambda _n=node: resume(_n))
                else:
                    # Scratchpad.try_access against the bank slot.
                    slot = slots[plan[0]]
                    if slot is None:
                        # Unknown array: raises ConfigError.
                        spad.try_access(plan[3], 0, cycle)
                    if slot[0] != cycle:
                        slot[0] = cycle
                        slot[1] = 1
                    elif slot[1] >= ports:
                        # Lost the bank: keep it behind the other losers.
                        mem[lost] = key
                        lost += 1
                        continue
                    else:
                        slot[1] += 1
                    accesses += 1
                    if node_kind[node] == 2:
                        stores += 1
                    access_by_array[plan[3]] += 1
                    issued.append(key)
                used[_MEM] += 1
                if used[_MEM] >= limit:
                    end = key
                    break
            else:
                if not lost:
                    end = key   # emptied
            del mem[lost:walked]
            if lost >= _MEMO_BLOCKED:
                if lost != start:
                    # On a hit the run only grew: add the new nodes' banks.
                    banks = memo[1] if start else set()
                    banks.update([plans[k & mask][0] for k in mem[start:lost]])
                    blocked[lane] = (lost, banks,
                                     sum(map(lines_cleared, gated)))
            elif memo is not None:
                blocked[lane] = None
            if lost:
                spad.conflicts += lost
            if accesses:
                spad.accesses += accesses
                self.issued_loads += accesses - stores
                self.issued_stores += stores
            # Nothing else schedules events during the pass, so the lane's
            # issues can wait for the end of the pass, in key order.
            issued.sort()
            launched += issued
            return end

        return walk

    def _cache_walker(self):
        """The walk through the cache interface (see :meth:`_spad_walker`).
        Before a TLB or cache access, which schedules events of its own, it
        launches the issues that precede it.  A cache hit schedules nothing
        and comes back as a delay, launched in key order at the next flush:
        no event is scheduled in between, so its completion keeps the
        sequence number the cache would have given it.  While every cache
        port is taken, each access to a cached array would be refused
        before any TLB or cache call, so the walk refuses it itself:
        without internal arrays it ends there (and a pass that finds the
        ports taken calls :func:`_ports_taken` instead), with them it goes
        on to the scratchpad accesses.

        A walk leaves the accesses the cache refused for full MSHRs at the
        head of the lane's bucket.  Such a refusal schedules nothing: it
        counts one ``cache.blocked`` and one ``tlb.hits`` and makes its
        page most recently used.  It is refused again until an MSHR is
        released, a line installed or a TLB page evicted (``cache.epoch``
        and ``tlb.evictions``).  So while neither count moves, a walk that
        starts with a free cache port counts the lane's leading run of
        refusals again without probing it.
        """
        mem_if = self.mem_if
        mem_issue = mem_if.issue
        ports = mem_if.ports
        internal = mem_if.internal
        node_array = mem_if._node_array
        node_vaddr = mem_if._node_vaddr
        quiet = mem_if.perfect   # accesses that schedule no events
        cache = mem_if.cache
        tlb = mem_if.tlb
        page_size = tlb.page_size
        launch = self._launch
        mask = self._key_mask
        node_kind = self._node_kind
        delays = self._node_delay
        limit = self._fu_limits[_MEM]
        # Per lane, the run of refusals its last walks left leading the
        # bucket: (length, last key, TLB pages in order of last touch,
        # epoch + evictions when the refusing walk began).
        runs = [None] * self.lanes

        def walk(now, cycle, lane, mem, used, issued, launched, batches):
            issued.sort()
            pending = 0
            upto = issued[0] if issued else _NEVER   # next compute key
            stamp = cache.epoch + tlb.evictions
            start = 0
            run = runs[lane]
            if (run is not None and run[3] == stamp
                    and mem_if._ports_used < ports
                    and len(mem) >= run[0] and mem[run[0] - 1] == run[1]):
                # Keys only join a bucket at its tail, in increasing order,
                # so the run's last key in place means the whole run is.
                start = run[0]
                tlb.rehit(run[2], start)
                cache.blocked_again(start, (
                    tlb.peek(node_vaddr[key & mask])
                    for key in islice(mem, start)))
            refused = []    # accesses the interface refused, in order
            leading = 0     # how many lead it, all the cache's: the run
            end = _NEVER
            walked = start
            accepted = stores = 0
            for key in (islice(mem, start, None) if start else mem):
                node = key & mask
                if mem_if._ports_used < ports:
                    probe = node_array[node] not in internal
                elif not internal:
                    break
                elif node_array[node] in internal:
                    probe = False
                else:
                    # A cached array with every port taken: the interface
                    # would refuse it and change nothing.
                    walked += 1
                    refused.append(key)
                    continue
                walked += 1
                if upto < key:
                    while pending < len(issued) and issued[pending] < key:
                        launched.append(issued[pending])
                        pending += 1
                    upto = (issued[pending] if pending < len(issued)
                            else _NEVER)
                if launched and probe and not quiet:
                    launch(now, launched, batches)
                status = mem_issue(self, node, cycle)
                if status == "retry":
                    # With a free port and no internal array, only the
                    # cache refuses.
                    if leading == len(refused) and probe:
                        leading += 1
                    refused.append(key)
                    continue
                if status != "parked":
                    accepted += 1
                    if node_kind[node] == 2:
                        stores += 1
                    delays[node] = status if type(status) is int else None
                    launched.append(key)
                used[_MEM] += 1
                if used[_MEM] >= limit:
                    end = key
                    break
            else:
                if not (refused or start):
                    end = key   # emptied
            mem[start:walked] = refused
            launched += issued[pending:] if pending else issued
            if accepted:
                self.issued_loads += accepted - stores
                self.issued_stores += stores
            if leading:
                touched = [node_vaddr[key & mask] // page_size
                           for key in refused[:leading]]
                if start:
                    touched[:0] = run[2]
                pages = tuple(dict.fromkeys(reversed(touched)))[::-1]
                runs[lane] = (start + leading, refused[leading - 1], pages,
                              stamp)
            return end

        return walk

    def _launcher(self):
        """``launch(now, launched, batches)`` starts and clears the keys
        of ``launched``, each node due ``_node_delay[node]`` ticks later
        (None: the memory system owns the completion).  Nodes due at one
        tick share an agenda entry; a batch (``batches``: delay -> [nodes,
        expected queue seq]) takes a node only if no other event was
        scheduled since its last one."""
        evq = self._queue
        agenda = self._agenda
        busy_begin = self.busy.begin
        mask = self._key_mask
        delays = self._node_delay
        node_round = self._node_round
        round_started = self._round_started
        ii_ticks = self._ii_ticks
        at = self._at

        def launch(now, launched, batches):
            if not self._in_flight:
                busy_begin(now)
            self._in_flight += len(launched)
            last_delay = -1
            for key in launched:
                node = key & mask
                if round_started is not None:
                    # Modulo gating: the first issue of round r schedules
                    # the gate that opens round r+1 at now + II.
                    r = node_round[node]
                    if r >= 0 and not round_started[r]:
                        round_started[r] = True
                        if r + 1 < len(round_started):
                            seq = evq._seq
                            evq._seq = seq + 1
                            heappush(agenda, (now + ii_ticks, seq, _GATE,
                                              r + 1))
                            last_delay = -1
                delay = delays[node]
                if delay == last_delay:
                    nodes.append(node)
                elif delay:
                    entry = batches.get(delay)
                    seq = evq._seq
                    if entry is not None and entry[1] == seq:
                        nodes = entry[0]
                        nodes.append(node)
                    else:
                        nodes = [node]
                        evq._seq = seq + 1
                        heappush(agenda, (now + delay, seq, _BATCH, nodes))
                        for e in batches.values():
                            if e[1] == seq:
                                e[1] = seq + 1
                        batches[delay] = [nodes, seq + 1]
                    last_delay = delay
                elif delay is not None:
                    # Due now: queue-FIFO rank, which carries no sequence
                    # number to guard a batch on.
                    at(now, _BATCH, (node,))
            launched.clear()

        return launch

    # -- completion -----------------------------------------------------------

    def complete_node(self, node):
        """A node's result is available (called by the memory system)."""
        self._issue_pass(_BATCH, (node,))

    def _advance_rounds(self):
        while (self._current_round < len(self._round_remaining)
               and self._round_remaining[self._current_round] == 0):
            self._current_round += 1
            if self._obs_trace is not None:
                self._obs_trace(self._queue.now, "round %d/%d",
                                self._current_round,
                                len(self._round_remaining))
            self._enqueue_ready(
                self._round_parked.pop(self._current_round, ()))

    def _open_gate(self, target):
        """Modulo-mode round gate: II cycles elapsed since round
        ``target - 1``'s first issue — open round ``target`` and release
        its parked nodes.  Gates fire in round order (each round schedules
        exactly one, anchored on its own first issue), but completion of
        the previous round releases ``target`` early when it beats the
        gate, in which case the late gate is a no-op."""
        if self._current_round >= target:
            return
        self._current_round = target
        if self._obs_trace is not None:
            self._obs_trace(self._queue.now, "II gate: round %d/%d open",
                            target, len(self._round_remaining))
        parked = self._round_parked.pop(target, None)
        if parked:
            self._enqueue_ready(parked)
            self._kick()

    def reg_stats(self, stats, prefix="accel0.sched"):
        """Mirror this datapath's counters into a stats registry."""
        stats.scalar(f"{prefix}.nodes", lambda: self._num_nodes,
                     desc="DDG nodes in the trace")
        stats.scalar(f"{prefix}.completed", lambda: self._completed,
                     desc="nodes executed to completion")
        stats.scalar(f"{prefix}.issued_loads", lambda: self.issued_loads,
                     desc="memory loads issued")
        stats.scalar(f"{prefix}.issued_stores", lambda: self.issued_stores,
                     desc="memory stores issued")
        stats.scalar(f"{prefix}.busy_ticks",
                     lambda: self.busy.total_busy(),
                     desc="ticks with at least one node in flight")
        stats.scalar(f"{prefix}.compute_ticks",
                     lambda: self.compute_ticks,
                     desc="ticks from start to last completion")
        stats.scalar(f"{prefix}.ii", lambda: self.ii,
                     desc="enforced initiation interval (cycles; 0 = "
                          "not modulo-gated)")
        stats.scalar(f"{prefix}.rec_mii", lambda: self.rec_mii,
                     desc="recurrence-constrained minimum II (cycles)")
        stats.scalar(f"{prefix}.res_mii", lambda: self.res_mii,
                     desc="resource-constrained minimum II (cycles)")
        stats.scalar(f"{prefix}.reservation_conflicts",
                     lambda: self.reservation_conflicts,
                     desc="issue attempts blocked by a saturated "
                          "per-cycle FU reservation row")


# Issue plan for nodes with no array (never legitimately issued): slot
# index -1 resolves to the trailing ``None`` sentinel of the per-run slot
# table, whose path reproduces the unknown-array ConfigError.
_NULL_PLAN = (-1, 0, 0, None)


class SpadInterface:
    """Memory interface for scratchpad (DMA-based) designs.

    Loads and stores hit partitioned SRAM banks with a fixed 1-cycle access,
    subject to per-bank port arbitration.  Arrays registered with full/empty
    bits gate accesses at cache-line granularity for DMA-triggered compute.
    The scheduler's scratchpad memory walk runs the issue sequence itself,
    over the per-node plans this interface precomputes.
    """

    def __init__(self, sim, clock, spad, ready_bits=None, latency_cycles=1):
        self.sim = sim
        self.clock = clock
        self.spad = spad
        self.ready_bits = ready_bits or {}
        self.latency_cycles = latency_cycles
        self._latency_ticks = clock.cycles_to_ticks(latency_cycles)
        self._ports = spad.ports
        self._access_by_array = spad.access_by_array
        self._node_plan = None
        self._plan_slots = None
        self._plan_bits = None
        self._plan_ready = None

    def _static_plans(self, trace):
        """The pure part of the per-node issue plan, memoized on the trace.

        A plan entry is ``(slot_index, bits_index, bit, array)``, a
        function of the trace, the partition count and the ready-bit
        layout, so it is derived once per (trace, design shape); equal
        entries are one shared tuple.  Per-run state (bank slots, ready
        bytearrays) sits in tables rebuilt by :meth:`bind`: ``slot_index``
        indexes the flat per-(array, bank) slot table (-1: unknown array,
        the trailing ``None`` sentinel); ``bits_index`` is 0 ungated,
        ``k > 0`` gated by table ``k``, and ``-k`` for a gated node whose
        offset is out of range (the bounds error is raised at issue time,
        from the offset recomputed there).
        """
        partitions = self.spad.partitions
        ready_bits = self.ready_bits
        bits_fp = tuple(sorted((name, b.size_bytes, b.granularity)
                               for name, b in ready_bits.items()))
        node_array = trace.node_array
        n = len(node_array)
        key = (partitions, bits_fp, n)
        memo = getattr(trace, "_spad_plan_memo", None)
        if memo is None:
            memo = trace._spad_plan_memo = {}
        cached = memo.get(key)
        if cached is not None:
            return cached
        node_index = trace.node_index
        plans = [_NULL_PLAN] * n
        word_bytes = {name: decl.word_bytes
                      for name, decl in trace.arrays.items()}
        array_order = list(trace.arrays)
        array_pos = {name: i for i, name in enumerate(array_order)}
        bits_order = []   # arrays with ready bits, in bits-table order
        per_array = {}
        # Arrays without full/empty bits have only `partitions` distinct
        # plans (one per bank), memoized in bank_plans; gated plans are
        # interned in shared.
        bank_plans = {}
        shared = {}
        for node in range(n):
            array = node_array[node]
            if array is None:
                continue
            info = per_array.get(array)
            if info is None:
                pos = array_pos.get(array)
                if pos is None:
                    # Traced array missing from the declarations: give it a
                    # slot-table range anyway (resolved per run).
                    pos = array_pos[array] = len(array_order)
                    array_order.append(array)
                bits = ready_bits.get(array)
                bi = 0
                if bits is not None:
                    bits_order.append(array)
                    bi = len(bits_order)
                info = per_array[array] = (pos * partitions, bits, bi,
                                           word_bytes.get(array, 0))
            base, bits, bi, wb = info
            bank = node_index[node] % partitions
            if bits is None:
                slot_idx = base + bank
                plan = bank_plans.get(slot_idx)
                if plan is None:
                    plan = bank_plans[slot_idx] = (slot_idx, 0, 0, array)
                plans[node] = plan
            else:
                offset = node_index[node] * wb
                if 0 <= offset < max(bits.size_bytes, 1):
                    plan = (base + bank, bi, offset // bits.granularity,
                            array)
                else:
                    plan = (base + bank, -bi, 0, array)
                plans[node] = shared.setdefault(plan, plan)
        cached = memo[key] = (plans, array_order, bits_order)
        return cached

    def bind(self, sched):
        """Resolve the static plans against this run's scratchpad (called
        by :class:`DatapathScheduler` at construction).

        Builds the per-run tables the plan indices point at: direct
        references to the scratchpad's per-bank ``[cycle, uses]`` lists
        (arbitration mutates them exactly as ``Scratchpad.try_access``
        would) and to each array's ready bytearray.
        """
        plans, array_order, bits_order = self._static_plans(sched.trace)
        banks = self.spad._banks
        partitions = self.spad.partitions
        slots = []
        for array in array_order:
            slots.extend(banks.get(array) or [None] * partitions)
        slots.append(None)   # slot index -1: unknown-array sentinel
        bits_objs = [None] + [self.ready_bits[a] for a in bits_order]
        self._plan_slots = slots
        self._plan_bits = bits_objs
        self._plan_ready = [None] + [b._ready for b in bits_objs[1:]]
        self._node_plan = plans


class CacheInterface:
    """Memory interface for cache-based designs.

    Shared (input/output) arrays go through the TLB and the coherent cache;
    private intermediate arrays stay in scratchpads (Section IV-D).  With
    ``perfect=True`` every shared access is a single-cycle hit — the
    idealized memory used for the Burger-style "processing time" component
    of Figure 7.
    """

    def __init__(self, sim, clock, cache, tlb, addr_map, phys_offset,
                 ports, spad=None, internal_arrays=(), perfect=False):
        self.sim = sim
        self.clock = clock
        self.cache = cache
        self.tlb = tlb
        self.addr_map = addr_map
        self.phys_offset = phys_offset
        self.ports = ports
        self.spad = spad
        self.internal = frozenset(internal_arrays)
        self.perfect = perfect
        self._period_ticks = clock.period
        self._ports_used = 0
        self._node_array = None
        self._node_index = None
        self._node_vaddr = None
        self._node_size = None
        self._node_is_write = None
        self._complete = None
        self._round_started = None
        self._node_round = None

    def bind(self, sched):
        """Precompute per-node tables (virtual address, access size, and
        store flag are all static per trace node) so the per-cycle issue
        path does no dict or declaration lookups.

        The tables are pure functions of the trace, the internal-array
        set, and the address map, so they are memoized on the trace and
        shared (read-only) across runs of the same design shape.  The
        scheduler's ``complete_node`` and round tables are taken here
        too, once per run.
        """
        trace = sched.trace
        self._node_array = node_array = trace.node_array
        self._node_index = node_index = trace.node_index
        n = len(node_array)
        addr_map = self.addr_map
        key = (self.internal, tuple(sorted(addr_map.items())), n)
        memo = getattr(trace, "_cache_plan_memo", None)
        if memo is None:
            memo = trace._cache_plan_memo = {}
        cached = memo.get(key)
        if cached is None:
            node_vaddr = [0] * n
            node_size = [0] * n
            node_is_write = [False] * n
            internal = self.internal
            arrays = trace.arrays
            node_ops = trace.node_op
            for node in range(n):
                array = node_array[node]
                if array is None or array in internal:
                    continue
                word_bytes = arrays[array].word_bytes
                node_vaddr[node] = (addr_map[array]
                                    + node_index[node] * word_bytes)
                node_size[node] = word_bytes
                node_is_write[node] = node_ops[node] == Op.STORE
            cached = memo[key] = (node_vaddr, node_size, node_is_write)
        self._node_vaddr, self._node_size, self._node_is_write = cached
        self._complete = sched.complete_node
        self._round_started = sched._round_started
        self._node_round = sched._node_round

    def release(self):
        """Drop the scheduler's completion callback once the run is over
        (see DESIGN.md "Object lifetime")."""
        self._complete = None

    def new_cycle(self):
        """Reset the per-cycle cache-port counter (called by the issue
        pass on the first pass of each cycle)."""
        self._ports_used = 0

    def issue(self, sched, node, cycle):
        """Try to issue one memory node this cycle.

        Returns ``"retry"``/``"parked"``, ``"issued"`` (the cache owns the
        completion event: a miss, or a hit that may open a modulo round),
        or a completion delay in ticks (an int) for fixed-latency paths —
        internal arrays, the perfect memory and the other cache hits —
        which the scheduler batches and schedules.
        """
        array = self._node_array[node]
        if array in self.internal:
            if not self.spad.try_access(array, self._node_index[node], cycle):
                return "retry"
            return self._period_ticks
        if self._ports_used >= self.ports:
            return "retry"
        self._ports_used += 1
        if self.perfect:
            return self._period_ticks
        tlb = self.tlb
        vaddr = self._node_vaddr[node]
        paddr = tlb.lookup(vaddr)
        if paddr is None:
            # Park until the walk lands; the retried access then hits.
            tlb.translate(vaddr, self.phys_offset,
                          lambda _paddr: sched.resume_parked(node))
            return "parked"
        # A hit's completion joins the scheduler's batches, unless the
        # node may be its round's first issue: launching that one
        # schedules the modulo II gate before the completion, where the
        # cache would have scheduled the completion first.
        started = self._round_started
        rr = self._node_round[node]
        status = self.cache.access(
            paddr, self._node_size[node], self._node_is_write[node],
            self._complete, (node,), array,
            started is None or rr < 0 or started[rr])
        if status == "blocked":
            # The cache rejected the access (MSHRs full): refund the port
            # slot, or a blocked lane would starve peers for the whole
            # cycle on a port it never used.
            self._ports_used -= 1
            return "retry"
        return status if type(status) is int else "issued"
