"""Reference issue pass: the flat per-lane ready-list scan.

This is the scheduler's issue pass as it was before the ready set moved
into resource buckets, kept only as a test oracle for
``test_issue_buckets.py``.  Each lane's ready nodes sit in one list in
enqueue order; the pass visits them one by one, counting a reservation
conflict for every node whose FU class is saturated and a bank conflict
for every scratchpad node whose bank is full, and stops a lane once every
FU class it still queues is saturated.  Retained nodes keep their order.

``reference_pass(sched, queues)`` runs one pass on ``sched`` at the
current tick with ``queues[lane]`` standing in for the ready set (it is
rewritten in place), mutating the scheduler, the memory interface, the
scheduler's agenda and the event queue exactly as that scan did.
"""

from repro.aladdin.scheduler import _BATCH, _GATE, _PASS, SpadInterface

_NUM_FU = 6


def reference_pass(sched, queues):
    now = sched._queue.now
    sched._scheduled_passes.discard(now)
    cycle = now // sched._period
    if cycle != sched._state_cycle:
        sched._state_cycle = cycle
        if not isinstance(sched.mem_if, SpadInterface):
            sched.mem_if.new_cycle()
    # A lane's FU row counts only while its stamp is the current cycle.
    for lane, stamp in enumerate(sched._fu_stamp):
        if stamp != cycle:
            sched._fu_stamp[lane] = cycle
            sched._fu_used[lane][:] = [0] * _NUM_FU
    node_fu = sched._node_fu
    node_ticks = sched._node_ticks
    node_kind = sched._node_kind
    limits = sched._fu_limits
    fu_used = sched._fu_used
    mem_if = sched.mem_if
    mem_issue = getattr(mem_if, "issue", None)
    fused = isinstance(mem_if, SpadInterface)
    if fused:
        mem_plan = mem_if._node_plan
        spad = mem_if.spad
        spad_ports = mem_if._ports
        access_by_array = mem_if._access_by_array
        lat_ticks = mem_if._latency_ticks
        plan_slots = mem_if._plan_slots
        plan_bits = mem_if._plan_bits
        plan_ready = mem_if._plan_ready
        resume = sched.resume_parked
    evq = sched._queue
    at = sched._at
    busy_begin = sched.busy.begin
    in_flight = sched._in_flight
    loads = 0
    stores = 0
    batches = {}
    last_delay = -1
    last_entry = None
    ready_counts = []
    for queue in queues:
        counts = [0] * _NUM_FU
        for node in queue:
            counts[node_fu[node]] += 1
        ready_counts.append(counts)
    num_ready = sum(len(queue) for queue in queues)
    conflicts = 0
    round_started = sched._round_started
    if round_started is not None:
        node_round = sched._node_round
        ii_ticks = sched._ii_ticks
        num_rounds = len(round_started)
    for lane in range(sched.lanes):
        queue = queues[lane]
        if not queue:
            continue
        used = fu_used[lane]
        counts = ready_counts[lane]
        issuable = 0
        for fu in range(_NUM_FU):
            if counts[fu] and used[fu] < limits[fu]:
                issuable += 1
        if not issuable:
            continue
        remaining = []
        rem_append = remaining.append
        for i in range(len(queue)):
            node = queue[i]
            fu = node_fu[node]
            if used[fu] >= limits[fu]:
                conflicts += 1
                rem_append(node)
                continue
            kind = node_kind[node]
            if kind:
                if not fused:
                    status = mem_issue(sched, node, cycle)
                else:
                    plan = mem_plan[node]
                    bi = plan[1]
                    if bi > 0:
                        if plan_ready[bi][plan[2]]:
                            bi = 0
                    elif bi < 0:
                        plan_bits[-bi].is_ready(
                            sched.trace.node_index[node]
                            * sched.trace.arrays[plan[3]].word_bytes)
                    if bi:
                        plan_bits[bi].wait_bit(
                            plan[2], lambda _n=node: resume(_n))
                        status = "parked"
                    else:
                        slot = plan_slots[plan[0]]
                        if slot is None:
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
                                at(now + ii_ticks, _GATE, rr + 1)
                    if kind == 1:
                        loads += 1
                    else:
                        stores += 1
                    if type(status) is int:
                        if (status == last_delay
                                and last_entry[1] == evq._seq):
                            last_entry[0].append(node)
                        else:
                            entry = batches.get(status)
                            if entry is not None and entry[1] == evq._seq:
                                entry[0].append(node)
                            else:
                                lst = [node]
                                seq = evq._seq
                                at(now + status, _BATCH, lst)
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
                            at(now + ii_ticks, _GATE, rr + 1)
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
                        at(now + delay, _BATCH, lst)
                        for e in batches.values():
                            if e[1] == seq:
                                e[1] = seq + 1
                        entry = batches[delay] = [lst, seq + 1]
                    last_delay = delay
                    last_entry = entry
                else:
                    at(now, _BATCH, (node,))
            num_ready -= 1
            if counts[fu] == 0 or used[fu] >= limits[fu]:
                issuable -= 1
                if not issuable:
                    remaining.extend(queue[i + 1:])
                    break
        queue[:] = remaining
    sched._num_ready = num_ready
    sched._in_flight = in_flight
    sched.issued_loads += loads
    sched.issued_stores += stores
    sched.reservation_conflicts += conflicts
    if num_ready:
        period = sched._period
        nxt = now + 1
        rem = nxt % period
        when = nxt if rem == 0 else nxt + (period - rem)
        pending = sched._scheduled_passes
        if when not in pending and (not pending or min(pending) > when):
            pending.add(when)
            at(when, _PASS, None)
    # Like the cycle loop, queue an event for the earliest agenda entry.
    sched._post()
