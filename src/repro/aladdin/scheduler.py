"""Dynamic, resource-constrained datapath scheduling.

Aladdin schedules the DDDG "through a breadth-first traversal, while
accounting for user-defined hardware constraints" (Section III-B).  Because
gem5-Aladdin must capture *dynamic* interactions — variable-latency cache
accesses, DMA arrival order, bus contention — scheduling here is not a
static pass: the scheduler is an event-driven component that issues ready
nodes on accelerator clock edges and hears back from the memory system.

Constraints modeled per cycle:

* one pipelined functional unit per class per lane (II = 1);
* one memory issue per lane, arbitrating for scratchpad bank ports or
  cache ports;
* round barriers: iteration rounds (see :mod:`transforms`) synchronize, but
  within a round a lane blocked on a cache miss or an unfilled full/empty
  bit stalls alone (Section IV-D's miss-handling scheme).
"""

from repro.errors import SimulationError
from repro.aladdin.ir import FuClass, OP_INFO, Op, is_memory
from repro.obs import trace
from repro.sim.stats import IntervalTracker

# Functional-unit classes as dense indices, so the per-cycle issue loop
# counts FU use in flat lists instead of dicts.
_FU_INDEX = {fu: i for i, fu in enumerate(FuClass.ALL)}
_NUM_FU = len(FuClass.ALL)


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
        # Per-lane ready queues are plain lists: the issue pass rebuilds
        # each scanned lane (preserving order) rather than popping.
        self._ready = [[] for _ in range(self.lanes)]
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
        n = ddg.num_nodes
        # These arrays are pure functions of (trace ops, clock period), so
        # they are shared across every scheduler built on the same graph —
        # a design sweep rebuilds the SoC per point but not these.  They
        # are strictly read-only after construction.
        fu_memo = getattr(ddg, "_fu_memo", None)
        if fu_memo is None:
            fu_memo = ddg._fu_memo = {}
        arrays = fu_memo.get((clock.period, n))
        if arrays is None:
            node_fu = [0] * n
            node_ticks = [0] * n
            node_kind = [0] * n
            fu_index = _FU_INDEX
            op_info = OP_INFO
            to_ticks = clock.cycles_to_ticks
            # Per-op memo: the trace has tens of thousands of nodes but
            # only a handful of distinct ops, so (fu, ticks, kind) is
            # derived once per op rather than once per node.
            op_memo = {}
            for node in range(n):
                op = node_ops[node]
                cached = op_memo.get(op)
                if cached is None:
                    info = op_info[op]
                    kind = 1 if op == Op.LOAD else 2 if op == Op.STORE else 0
                    cached = op_memo[op] = (fu_index[info.fu],
                                            to_ticks(info.latency), kind)
                node_fu[node] = cached[0]
                node_ticks[node] = cached[1]
                node_kind[node] = cached[2]
            arrays = fu_memo[(clock.period, n)] = (node_fu, node_ticks,
                                                   node_kind)
        self._node_fu = arrays[0]
        self._node_ticks = arrays[1]
        self._node_kind = arrays[2]
        self._fu_limits = [self.fu_per_lane.get(fu, 1) for fu in FuClass.ALL]
        self._node_lane = assignment.lane
        self._node_round = assignment.round
        self._successors = ddg.successors
        self._num_nodes = ddg.num_nodes
        # The queue is accessed directly (not through the Simulator
        # wrapper) on every issue/completion.
        self._queue = sim.queue
        self._period = clock.period
        # Per-cycle resource state.
        self._state_cycle = -1
        self._fu_zero = [0] * _NUM_FU
        self._fu_used = [[0] * _NUM_FU for _ in range(self.lanes)]
        # Ready-set bookkeeping: total ready nodes, plus per-lane per-FU
        # counts so an issue pass can skip (or stop scanning) a lane whose
        # queued classes are all saturated — a full scan would only rotate
        # such a queue without issuing anything.
        self._num_ready = 0
        self._ready_counts = [[0] * _NUM_FU for _ in range(self.lanes)]
        # Ticks of pending _issue_pass events.  A pass may be superseded by
        # an earlier-edge kick; tracking every scheduled tick (instead of
        # only the earliest) keeps a pass from being scheduled twice for
        # the same edge, which used to waste an event and an empty pass.
        self._scheduled_passes = set()
        # Let the memory interface precompute its own per-node tables.
        bind = getattr(mem_if, "bind", None)
        if bind is not None:
            bind(self)

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
        # Bulk _make_ready: traces with thousands of root loads make this
        # loop worth binding (identical per-node behavior).
        node_round = self._node_round
        node_lane = self._node_lane
        node_fu = self._node_fu
        ready = self._ready
        ready_counts = self._ready_counts
        gated = self.round_barriers or self._ii_gated
        current_round = self._current_round
        parked = self._round_parked
        num_ready = self._num_ready
        for node in self.ddg.roots:
            r = node_round[node]
            if gated and r > current_round:
                if r in parked:
                    parked[r].append(node)
                else:
                    parked[r] = [node]
            else:
                lane = node_lane[node]
                ready[lane].append(node)
                ready_counts[lane][node_fu[node]] += 1
                num_ready += 1
        self._num_ready = num_ready
        self._kick()

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

    @property
    def compute_ticks(self):
        """Ticks from start to last node completion."""
        if self.start_tick is None or self.done_tick is None:
            return None
        return self.done_tick - self.start_tick

    # -- readiness ------------------------------------------------------------

    def _make_ready(self, node):
        r = self._node_round[node]
        if (self.round_barriers or self._ii_gated) \
                and r > self._current_round:
            self._round_parked.setdefault(r, []).append(node)
            return
        self._enqueue_ready(node)

    def _enqueue_ready(self, node):
        self._ready[self._node_lane[node]].append(node)
        self._ready_counts[self._node_lane[node]][self._node_fu[node]] += 1
        self._num_ready += 1

    def resume_parked(self, node):
        """Re-queue a node that was parked on a TLB walk or full/empty bit."""
        self._enqueue_ready(node)
        self._kick()

    def _kick(self):
        """Ensure an issue pass is scheduled at the next accelerator edge."""
        if not self._num_ready:
            return
        now = self._queue.now
        remainder = now % self._period
        when = now if remainder == 0 else now + (self._period - remainder)
        pending = self._scheduled_passes
        if pending and min(pending) <= when:
            return
        pending.add(when)
        self._queue.schedule_at(when, self._issue_pass)

    # -- the per-cycle issue pass ----------------------------------------------

    def _cycle_state(self):
        cycle = self._queue.now // self._period
        if cycle != self._state_cycle:
            self._state_cycle = cycle
            zero = self._fu_zero
            for used in self._fu_used:
                used[:] = zero
            self.mem_if.new_cycle(cycle)
        return cycle

    def _issue_pass(self):
        now = self._queue.now
        self._scheduled_passes.discard(now)
        # _cycle_state inlined: reset per-cycle FU budgets on a new cycle.
        cycle = now // self._period
        if cycle != self._state_cycle:
            self._state_cycle = cycle
            zero = self._fu_zero
            for used in self._fu_used:
                used[:] = zero
            self.mem_if.new_cycle(cycle)
        # Hot loop: per-node properties come from the flat arrays built in
        # __init__ and every attribute chain is bound to a local.
        node_fu = self._node_fu
        node_ticks = self._node_ticks
        node_kind = self._node_kind
        limits = self._fu_limits
        fu_used = self._fu_used
        ready = self._ready
        ready_counts = self._ready_counts
        mem_if = self.mem_if
        mem_issue = mem_if.issue
        # Scratchpad fast path: when the interface exposes a precomputed
        # per-node plan (SpadInterface.bind), its issue logic is fused into
        # this loop — same operations in the same order, minus ~1 call per
        # memory node per cycle.
        mem_plan = getattr(mem_if, "_node_plan", None)
        if mem_plan is not None:
            spad = mem_if.spad
            spad_ports = mem_if._ports
            access_by_array = mem_if._access_by_array
            lat_ticks = mem_if._latency_ticks
            plan_slots = mem_if._plan_slots
            plan_bits = mem_if._plan_bits
            plan_ready = mem_if._plan_ready
            resume = self.resume_parked
        evq = self._queue
        schedule = evq.schedule
        complete = self.complete_node
        complete_batch = self._complete_batch
        busy_begin = self.busy.begin
        num_fu = _NUM_FU
        # Launch bookkeeping is accumulated in locals and written back once:
        # nothing dispatches events during the pass, so no completion can
        # observe the stale attributes mid-loop.
        in_flight = self._in_flight
        loads = 0
        stores = 0
        # Completion batching: nodes completing at the same future tick
        # share one event carrying a list, instead of one event each.  A
        # batch may only absorb a node while no other event has been
        # scheduled since its last append (tracked via the queue's sequence
        # counter) — otherwise the foreign event could be due at the same
        # tick and batching would reorder it relative to the completions.
        # delay -> [node list, expected queue seq]; the last-touched entry
        # is kept in locals, since consecutive issues usually share a delay.
        batches = {}
        last_delay = -1
        last_entry = None
        num_ready = self._num_ready
        conflicts = 0
        # Modulo gating: the first issue of round r anchors the gate that
        # opens round r+1 at now + II.  ``round_started`` is None outside
        # modulo mode, so the other modes pay one local None test per
        # issued node.
        round_started = self._round_started
        if round_started is not None:
            node_round = self._node_round
            ii_ticks = self._ii_ticks
            open_gate = self._open_gate
            num_rounds = len(round_started)
            schedule_at = evq.schedule_at
        for lane in range(self.lanes):
            queue = ready[lane]
            if not queue:
                continue
            used = fu_used[lane]
            counts = ready_counts[lane]
            # FU classes that can still issue from this lane's queue.  A
            # lane with none would keep its order under a scan anyway, so
            # skipping it is behavior-preserving.
            issuable = 0
            for fu in range(num_fu):
                if counts[fu] and used[fu] < limits[fu]:
                    issuable += 1
            if not issuable:
                continue
            # Rebuild the lane queue instead of pop/push scanning: skipped
            # and retried nodes keep their relative order (the old deque
            # scan popped and re-appended every node, which preserved
            # order — this reproduces that final order without the churn).
            remaining = []
            rem_append = remaining.append
            total = len(queue)
            for i in range(total):
                node = queue[i]
                fu = node_fu[node]
                if used[fu] >= limits[fu]:
                    conflicts += 1
                    rem_append(node)
                    continue
                kind = node_kind[node]
                if kind:
                    if mem_plan is None:
                        status = mem_issue(self, node, cycle)
                    else:
                        # SpadInterface.issue fused inline (see preamble).
                        plan = mem_plan[node]
                        bi = plan[1]
                        if bi > 0:
                            if plan_ready[bi][plan[2]]:
                                bi = 0  # data arrived: fall through
                        elif bi < 0:
                            plan_bits[-bi].is_ready(plan[4])  # raises
                        if bi:
                            plan_bits[bi].wait_bit(
                                plan[2], lambda _n=node: resume(_n))
                            status = "parked"
                        else:
                            slot = plan_slots[plan[0]]
                            if slot is None:
                                # Unknown array: raises ConfigError.
                                spad.try_access(plan[3], 0, cycle)
                            if slot[0] != cycle:
                                slot[0] = cycle
                                slot[1] = 1
                                status = lat_ticks
                            elif slot[1] >= spad_ports:
                                spad.conflicts += 1
                                status = "retry"
                            else:
                                slot[1] += 1
                                status = lat_ticks
                            if status is lat_ticks:
                                spad.accesses += 1
                                access_by_array[plan[3]] += 1
                    if status == "retry":
                        rem_append(node)
                        continue
                    used[fu] += 1
                    counts[fu] -= 1
                    if status != "parked":
                        if in_flight == 0:
                            busy_begin(now)
                        in_flight += 1
                        if round_started is not None:
                            rr = node_round[node]
                            if rr >= 0 and not round_started[rr]:
                                round_started[rr] = True
                                if rr + 1 < num_rounds:
                                    schedule_at(now + ii_ticks, open_gate,
                                                rr + 1)
                        if kind == 1:
                            loads += 1
                        else:
                            stores += 1
                        if type(status) is int:
                            # The interface left scheduling to us: batch.
                            if (status == last_delay
                                    and last_entry[1] == evq._seq):
                                last_entry[0].append(node)
                            else:
                                entry = batches.get(status)
                                if (entry is not None
                                        and entry[1] == evq._seq):
                                    entry[0].append(node)
                                else:
                                    lst = [node]
                                    seq = evq._seq
                                    schedule(status, complete_batch, lst)
                                    for e in batches.values():
                                        if e[1] == seq:
                                            e[1] = seq + 1
                                    entry = batches[status] = [lst, seq + 1]
                                last_delay = status
                                last_entry = entry
                else:
                    used[fu] += 1
                    counts[fu] -= 1
                    if in_flight == 0:
                        busy_begin(now)
                    in_flight += 1
                    if round_started is not None:
                        rr = node_round[node]
                        if rr >= 0 and not round_started[rr]:
                            round_started[rr] = True
                            if rr + 1 < num_rounds:
                                schedule_at(now + ii_ticks, open_gate,
                                            rr + 1)
                    delay = node_ticks[node]
                    if delay == last_delay and last_entry[1] == evq._seq:
                        last_entry[0].append(node)
                    elif delay > 0:
                        entry = batches.get(delay)
                        if entry is not None and entry[1] == evq._seq:
                            entry[0].append(node)
                        else:
                            lst = [node]
                            seq = evq._seq
                            schedule(delay, complete_batch, lst)
                            for e in batches.values():
                                if e[1] == seq:
                                    e[1] = seq + 1
                            entry = batches[delay] = [lst, seq + 1]
                        last_delay = delay
                        last_entry = entry
                    else:
                        # Zero-delay events live in the tick FIFO, which
                        # assigns no sequence numbers — unbatchable.
                        schedule(0, complete, node)
                num_ready -= 1
                if counts[fu] == 0 or used[fu] >= limits[fu]:
                    issuable -= 1
                    if not issuable:
                        # Everything still queued belongs to saturated
                        # classes: keep it, order unchanged.
                        remaining.extend(queue[i + 1:])
                        break
            ready[lane] = remaining
        self._num_ready = num_ready
        self._in_flight = in_flight
        self.issued_loads += loads
        self.issued_stores += stores
        self.reservation_conflicts += conflicts
        # Anything still queued retries next cycle (edge_after inlined).
        if num_ready:
            period = self._period
            nxt = now + 1
            rem = nxt % period
            when = nxt if rem == 0 else nxt + (period - rem)
            pending = self._scheduled_passes
            if when not in pending and (not pending or min(pending) > when):
                pending.add(when)
                self._queue.schedule_at(when, self._issue_pass)

    # -- completion -----------------------------------------------------------

    def _complete_batch(self, nodes):
        """Complete a batch of nodes that share one completion tick.

        Semantically identical to calling :meth:`complete_node` once per
        node in list order, but locals are bound once per batch and the
        trailing kick runs once: per-node kicks after the first were
        no-ops anyway, since the pass for this edge was already pending,
        and no foreign event can be scheduled mid-batch to care about the
        kick's sequence position.
        """
        queue = self._queue
        now = queue.now
        in_flight = self._in_flight
        indegree = self._indegree
        successors = self._successors
        node_round = self._node_round
        node_lane = self._node_lane
        node_fu = self._node_fu
        ready = self._ready
        ready_counts = self._ready_counts
        barriers = self.round_barriers
        gated = barriers or self._ii_gated
        parked = self._round_parked
        remaining = self._round_remaining
        num_rounds = len(remaining)
        completed = self._completed
        num_nodes = self._num_nodes
        finished = False
        for node in nodes:
            in_flight -= 1
            if in_flight == 0:
                self.busy.end(now)
            succs = successors[node]
            if succs:
                current_round = self._current_round
                num_ready = self._num_ready
                for succ in succs:
                    indegree[succ] -= 1
                    if indegree[succ] == 0:
                        r = node_round[succ]
                        if gated and r > current_round:
                            if r in parked:
                                parked[r].append(succ)
                            else:
                                parked[r] = [succ]
                        else:
                            lane = node_lane[succ]
                            ready[lane].append(succ)
                            ready_counts[lane][node_fu[succ]] += 1
                            num_ready += 1
                self._num_ready = num_ready
            r = node_round[node]
            if r >= 0 and gated:
                remaining[r] -= 1
                current = self._current_round
                if current < num_rounds and remaining[current] == 0:
                    self._advance_rounds()
            completed += 1
            if completed == num_nodes:
                finished = True
        self._in_flight = in_flight
        self._completed = completed
        if finished:
            self._finish()
            return
        if self._num_ready:
            remainder = now % self._period
            when = now if remainder == 0 else now + (self._period - remainder)
            pending = self._scheduled_passes
            if not pending or min(pending) > when:
                pending.add(when)
                queue.schedule_at(when, self._issue_pass)

    def complete_node(self, node):
        """A node's result is available (called by FUs and the memory system).

        Runs once per node, so ``_make_ready``/``_enqueue_ready``/``_kick``
        are inlined here — the method versions remain for the cold paths
        (start, parked-node resume, round advancement).
        """
        in_flight = self._in_flight - 1
        self._in_flight = in_flight
        if in_flight == 0:
            self.busy.end(self._queue.now)
        barriers = self.round_barriers
        gated = barriers or self._ii_gated
        current_round = self._current_round
        succs = self._successors[node]
        if succs:
            indegree = self._indegree
            node_round = self._node_round
            node_lane = self._node_lane
            node_fu = self._node_fu
            ready = self._ready
            ready_counts = self._ready_counts
            parked = self._round_parked
            num_ready = self._num_ready
            for succ in succs:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    r = node_round[succ]
                    if gated and r > current_round:
                        if r in parked:
                            parked[r].append(succ)
                        else:
                            parked[r] = [succ]
                    else:
                        lane = node_lane[succ]
                        ready[lane].append(succ)
                        ready_counts[lane][node_fu[succ]] += 1
                        num_ready += 1
            self._num_ready = num_ready
        r = self._node_round[node]
        if r >= 0 and gated:
            remaining = self._round_remaining
            remaining[r] -= 1
            if current_round < len(remaining) and remaining[current_round] == 0:
                self._advance_rounds()
        self._completed += 1
        if self._completed == self._num_nodes:
            self._finish()
            return
        if self._num_ready:
            queue = self._queue
            now = queue.now
            remainder = now % self._period
            when = now if remainder == 0 else now + (self._period - remainder)
            pending = self._scheduled_passes
            if not pending or min(pending) > when:
                pending.add(when)
                queue.schedule_at(when, self._issue_pass)

    def _advance_rounds(self):
        while (self._current_round < len(self._round_remaining)
               and self._round_remaining[self._current_round] == 0):
            self._current_round += 1
            if self._obs_trace is not None:
                self._obs_trace(self._queue.now, "round %d/%d",
                                self._current_round,
                                len(self._round_remaining))
            for node in self._round_parked.pop(self._current_round, ()):
                self._enqueue_ready(node)

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
            for node in parked:
                self._enqueue_ready(node)
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
_NULL_PLAN = (-1, 0, 0, None, 0)


class SpadInterface:
    """Memory interface for scratchpad (DMA-based) designs.

    Loads and stores hit partitioned SRAM banks with a fixed 1-cycle access,
    subject to per-bank port arbitration.  Arrays registered with full/empty
    bits gate accesses at cache-line granularity for DMA-triggered compute.
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

        A plan entry is ``(slot_index, bits_index, bit, array, offset)``:
        every field is a function of the trace and two design scalars
        (partition count, ready-bit layout), so the 30k-node derivation
        runs once per (trace, design shape) instead of once per run.  The
        per-run mutable state — bank slots and ready bytearrays — is
        reached through small tables rebuilt by :meth:`bind`:
        ``slot_index`` indexes the flat per-(array, bank) slot table (-1 =
        unknown array → the trailing ``None`` sentinel), and
        ``bits_index`` is 0 for ungated nodes, ``k > 0`` for full/empty
        gating via table ``k``, and ``-k`` for a gated node whose offset
        is out of range (the bounds error is raised at issue time, as the
        unoptimized path did).
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
        # plans (one per bank), memoized in bank_plans.
        bank_plans = {}
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
                    plan = bank_plans[slot_idx] = (slot_idx, 0, 0, array, 0)
                plans[node] = plan
            else:
                offset = node_index[node] * wb
                if 0 <= offset < max(bits.size_bytes, 1):
                    plans[node] = (base + bank, bi,
                                   offset // bits.granularity, array, offset)
                else:
                    plans[node] = (base + bank, -bi, 0, array, offset)
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
            arr_banks = banks.get(array)
            if arr_banks is None:
                slots.extend([None] * partitions)
            else:
                slots.extend(arr_banks)
        slots.append(None)   # slot index -1: unknown-array sentinel
        bits_objs = [None]
        ready_arrs = [None]
        for array in bits_order:
            bits = self.ready_bits[array]
            bits_objs.append(bits)
            ready_arrs.append(bits._ready)
        self._plan_slots = slots
        self._plan_bits = bits_objs
        self._plan_ready = ready_arrs
        self._node_plan = plans

    def new_cycle(self, cycle):
        """Per-cycle reset hook (banks self-arbitrate)."""
        pass  # the scratchpad tracks per-cycle port use itself

    def issue(self, sched, node, cycle):
        """Try to issue one memory node this cycle.

        Returns ``"retry"``/``"parked"``, or the completion delay in ticks
        (an int) — the scheduler batches and schedules the completion.
        """
        if self._node_plan is None:
            self.bind(sched)
        slot_idx, bi, bit, array, offset = self._node_plan[node]
        if bi > 0:
            if self._plan_ready[bi][bit]:
                bi = 0  # data arrived: fall through to the access
        elif bi < 0:
            # Out-of-range offset: reproduce the bounds error at issue
            # time, as the unoptimized path did.
            self._plan_bits[-bi].is_ready(offset)
        if bi:
            self._plan_bits[bi].wait_bit(
                bit, lambda: sched.resume_parked(node))
            return "parked"
        spad = self.spad
        slot = self._plan_slots[slot_idx]
        if slot is None:
            # Unknown array: the slow path raises the ConfigError.
            spad.try_access(array, 0, cycle)
        # Scratchpad.try_access inlined against the precomputed bank slot.
        if slot[0] != cycle:
            slot[0] = cycle
            slot[1] = 1
        elif slot[1] >= self._ports:
            spad.conflicts += 1
            return "retry"
        else:
            slot[1] += 1
        spad.accesses += 1
        self._access_by_array[array] += 1
        return self._latency_ticks


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
        self._cycle = -1
        self._ports_used = 0
        self._node_array = None
        self._node_index = None
        self._node_vaddr = None
        self._node_size = None
        self._node_is_write = None

    def bind(self, sched):
        """Precompute per-node tables (virtual address, access size, and
        store flag are all static per trace node) so the per-cycle issue
        path does no dict or declaration lookups.

        The tables are pure functions of the trace, the internal-array
        set, and the address map, so they are memoized on the trace and
        shared (read-only) across runs of the same design shape.
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
        if cached is not None:
            self._node_vaddr = cached[0]
            self._node_size = cached[1]
            self._node_is_write = cached[2]
            return
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
            node_vaddr[node] = addr_map[array] + node_index[node] * word_bytes
            node_size[node] = word_bytes
            node_is_write[node] = node_ops[node] == Op.STORE
        memo[key] = (node_vaddr, node_size, node_is_write)
        self._node_vaddr = node_vaddr
        self._node_size = node_size
        self._node_is_write = node_is_write

    def new_cycle(self, cycle):
        """Reset the per-cycle cache-port counter."""
        if cycle != self._cycle:
            self._cycle = cycle
            self._ports_used = 0

    def issue(self, sched, node, cycle):
        """Try to issue one memory node this cycle.

        Returns ``"retry"``/``"parked"``, ``"issued"`` (completion event
        owned by the cache), or a completion delay in ticks (an int) for
        fixed-latency paths, which the scheduler batches and schedules.
        """
        if self._node_array is None:
            self.bind(sched)
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
        status = self._translated_access(sched, node, self._node_vaddr[node],
                                         self._node_size[node], array)
        if status == "retry":
            # The cache rejected the access (MSHRs full): refund the port
            # slot, or a blocked lane would starve peers for the whole
            # cycle on a port it never used.
            self._ports_used -= 1
        return status

    def _translated_access(self, sched, node, vaddr, size, array):
        result = {"sync": True, "paddr": None}

        def on_translated(paddr):
            if result["sync"]:
                result["paddr"] = paddr
            else:
                # Walk finished later: retry the whole access; the TLB now hits.
                sched.resume_parked(node)

        hit = self.tlb.translate(vaddr, self.phys_offset, on_translated)
        result["sync"] = False
        if not hit:
            return "parked"
        is_write = self._node_is_write[node]
        status = self.cache.access(
            result["paddr"], size, is_write,
            callback=lambda: sched.complete_node(node),
            stream=array,
        )
        if status == "blocked":
            return "retry"
        return "issued"
