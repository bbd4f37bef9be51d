"""Reference cache walk: every queued access probed on every pass.

This is the scheduler's cache walk as it was before it learned to count
a lane's run of MSHR-refused accesses without probing it, kept only as a
test oracle for ``test_blocked_memo.py`` and the traced-run test.  Each
refused access goes through the TLB and the cache again on every pass.
Like the scheduler's walks, it counts the loads and stores it accepts.

``install(sched)`` replaces the scheduler's memory walk with this one.
"""

from repro.aladdin.scheduler import _MEM, _NEVER


def reference_cache_walker(sched):
    mem_if = sched.mem_if
    mem_issue = mem_if.issue
    ports = mem_if.ports
    internal = mem_if.internal
    node_array = mem_if._node_array
    quiet = mem_if.perfect
    launch = sched._launch
    mask = sched._key_mask
    node_kind = sched._node_kind
    delays = sched._node_delay
    limit = sched._fu_limits[_MEM]

    def walk(now, cycle, lane, mem, used, issued, launched, batches):
        issued.sort()
        pending = 0
        upto = issued[0] if issued else _NEVER
        refused = []
        end = _NEVER
        walked = 0
        for key in mem:
            node = key & mask
            if mem_if._ports_used >= ports and not internal:
                break
            walked += 1
            if upto < key:
                while pending < len(issued) and issued[pending] < key:
                    launched.append(issued[pending])
                    pending += 1
                upto = (issued[pending] if pending < len(issued)
                        else _NEVER)
            if launched and not (quiet or node_array[node] in internal
                                 or mem_if._ports_used >= ports):
                launch(now, launched, batches)
            status = mem_issue(sched, node, cycle)
            if status == "retry":
                refused.append(key)
                continue
            if status != "parked":
                if node_kind[node] == 2:
                    sched.issued_stores += 1
                else:
                    sched.issued_loads += 1
                delays[node] = status if type(status) is int else None
                launched.append(key)
            used[_MEM] += 1
            if used[_MEM] >= limit:
                end = key
                break
        else:
            if not refused:
                end = key
        mem[:walked] = refused
        launched += issued[pending:]
        return end

    return walk


def install(sched):
    """Make ``sched`` probe every queued cache access on every pass."""
    sched._walk_memory = reference_cache_walker(sched)
    return sched
