"""The bucketed issue pass against the flat per-lane scan it replaced.

``_scan_reference.reference_pass`` is the pre-bucket issue pass: one
ready list per lane, probed node by node.  Each example builds two
identical schedulers over a random kernel and design, puts the same
random ready set into both (the reference gets it as flat lists in
enqueue order), pre-occupies the same FU slots, bank slots and cache
ports, and runs one pass — then, in the same cycle, a second one after
more nodes became ready.  Both must issue, retain and park the same
nodes in the same order, schedule the same events, and count the same
reservation and bank conflicts; a pass that raises must raise the same
error at the same node.
"""

import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.aladdin.accelerator import make_scratchpad
from repro.aladdin.ddg import DDDG
from repro.aladdin.ir import FuClass
from repro.aladdin.scheduler import (
    _PASS,
    CacheInterface,
    DatapathScheduler,
    SpadInterface,
)
from repro.aladdin.trace import TraceBuilder
from repro.aladdin.transforms import assign_lanes
from repro.memory.bus import SystemBus
from repro.memory.cache import Cache
from repro.memory.coherence import CoherenceDomain
from repro.memory.dram import DRAM
from repro.memory.fullempty import ReadyBits
from repro.memory.tlb import AcceleratorTLB
from repro.sim.clock import ClockDomain
from repro.sim.kernel import Simulator

from tests.aladdin._scan_reference import reference_pass

ARRAYS = ("a", "b", "t", "out")
OPS = ("add", "mul", "fadd", "fmul", "fdiv", "xor")


@st.composite
def kernels(draw):
    """A random kernel: per iteration, loads from random words of two
    input arrays and an internal one, a random op chain, one store."""
    words = draw(st.integers(4, 24))
    iters = draw(st.integers(2, 10))
    tb = TraceBuilder("diff")
    tb.array("a", words, 4, kind="input", init=[1.0] * words)
    tb.array("b", words, 8, kind="input", init=[2.0] * words)
    tb.array("t", words, 4, kind="internal")
    tb.array("out", words, 4, kind="output")
    for i in range(iters):
        with tb.iteration(i):
            vals = [tb.load(draw(st.sampled_from(("a", "b", "t"))),
                            draw(st.integers(0, words - 1)))
                    for _ in range(draw(st.integers(1, 3)))]
            acc = vals[0]
            for op in draw(st.lists(st.sampled_from(OPS), max_size=4)):
                acc = getattr(tb, op)(acc, vals[-1])
            if draw(st.booleans()):
                tb.store("t", draw(st.integers(0, words - 1)), acc)
            tb.store("out", i % words, acc)
    return tb


@st.composite
def scenarios(draw):
    trace = draw(kernels())
    n = trace.num_nodes
    pick = st.lists(st.integers(0, n - 1), unique=True, max_size=n)
    first = draw(pick)
    second = [node for node in draw(pick) if node not in first]
    limits = {fu: draw(st.integers(0, 3)) for fu in
              draw(st.sets(st.sampled_from(FuClass.ALL), max_size=3))}
    return {
        "trace": trace,
        "lanes": draw(st.integers(1, 6)),
        "fu_per_lane": limits,
        "pipelining": draw(st.sampled_from(("off", "barriers", "modulo"))),
        "ii": draw(st.integers(1, 3)),
        "first": first,
        "second": second,
        "fu_used": draw(st.lists(st.lists(st.integers(0, 2), min_size=6,
                                          max_size=6), min_size=4,
                                 max_size=4)),
    }


@st.composite
def spad_scenarios(draw):
    s = draw(scenarios())
    s["partitions"] = draw(st.integers(1, 4))
    s["ports"] = draw(st.integers(1, 2))
    # Gated arrays: bits with random lines present.  A short ``bytes``
    # leaves later offsets out of range; dropping an array from the
    # scratchpad makes its nodes unknown-array errors.
    s["gated"] = draw(st.dictionaries(
        st.sampled_from(("a", "b")),
        st.tuples(st.sampled_from((8, 16, 64)), st.booleans(),
                  st.integers(0, 2 ** 16 - 1)),
        max_size=2))
    s["missing"] = draw(st.sampled_from((None, None, None, "t", "out")))
    s["busy_banks"] = draw(st.lists(
        st.tuples(st.sampled_from(ARRAYS), st.integers(0, 3),
                  st.integers(0, 2)), max_size=4))
    return s


@st.composite
def cache_scenarios(draw):
    s = draw(scenarios())
    s["ports"] = draw(st.integers(1, 3))
    s["ports_used"] = draw(st.integers(0, 3))
    s["mshrs"] = draw(st.integers(1, 3))
    s["internal"] = draw(st.booleans())
    s["perfect"] = draw(st.booleans())
    s["warm"] = draw(st.booleans())
    return s


def _spad_world(s):
    trace = s["trace"]
    sim = Simulator()
    clock = ClockDomain(100)
    spad = make_scratchpad(trace, s["partitions"], s["ports"])
    if s["missing"] is not None:
        del spad._banks[s["missing"]]
    bits = {}
    for array, (granularity, short, mask) in sorted(s["gated"].items()):
        size = trace.arrays[array].size_bytes
        rb = ReadyBits(array, size // 2 if short else size, granularity)
        for bit in range(rb.num_bits):
            rb._ready[bit] = (mask >> bit) & 1
        bits[array] = rb
    mem_if = SpadInterface(sim, clock, spad, ready_bits=bits)
    sched = _scheduler(s, sim, clock, mem_if)
    for array, bank, uses in s["busy_banks"]:
        banks = spad._banks.get(array)
        if banks is not None:
            banks[bank % s["partitions"]][:] = [0, min(uses, s["ports"])]
    return sched, {"spad": spad, "bits": bits}


def _cache_world(s):
    trace = s["trace"]
    sim = Simulator()
    clock = ClockDomain(100)
    dram = DRAM(sim)
    bus = SystemBus(sim, clock, 32, downstream=dram)
    domain = CoherenceDomain(sim, bus)
    cache = Cache(sim, clock, "accel", 1024, 64, 2, mshrs=s["mshrs"])
    domain.register(cache)
    tlb = AcceleratorTLB(sim)
    internal = ("t",) if s["internal"] else ()
    spad = make_scratchpad(trace, 2, 1, kinds=("internal",))
    addr_map = {name: 0x10_0000 + i * 8192
                for i, name in enumerate(trace.arrays)}
    mem_if = CacheInterface(sim, clock, cache, tlb, addr_map,
                            phys_offset=0x1000_0000, ports=s["ports"],
                            spad=spad, internal_arrays=internal,
                            perfect=s["perfect"])
    sched = _scheduler(s, sim, clock, mem_if)
    if s["warm"]:
        for vaddr in set(mem_if._node_vaddr):
            if vaddr:
                tlb.translate(vaddr, mem_if.phys_offset, lambda _p: None)
        sim.run()
    mem_if._ports_used = min(s["ports_used"], s["ports"])
    return sched, {"spad": spad, "cache": cache, "tlb": tlb}


def _scheduler(s, sim, clock, mem_if):
    trace = s["trace"]
    return DatapathScheduler(sim, clock, DDDG(trace),
                             assign_lanes(trace, s["lanes"]), mem_if,
                             fu_per_lane=s["fu_per_lane"],
                             pipelining=s["pipelining"], ii=s["ii"])


def _name(callback):
    return getattr(callback, "__qualname__", repr(callback))


def _arg(value):
    if isinstance(value, (int, list)):
        return value
    # Memory requests carry a process-wide serial number: drop it.
    return re.sub(r"#\d+", "#", repr(value))


def _events(sched):
    queue = sched._queue
    rows = [(when, seq, _name(cb), [_arg(a) for a in args])
            for when, seq, cb, args in sorted(queue._heap)]
    rows += [("fifo", _name(cb), [_arg(a) for a in args])
             for cb, args in queue._fifo]
    rows += [("agenda", when, seq, kind, _arg(arg))
             for when, seq, kind, arg in sorted(sched._agenda)]
    rows += [("now", kind, _arg(arg)) for kind, arg in sched._zero]
    return rows


def _waiters(bits):
    return {name: {bit: [cb.__defaults__ for cb in cbs]
                   for bit, cbs in rb._waiters.items()}
            for name, rb in bits.items()}


def _retained(sched):
    mask = sched._key_mask
    return [[key & mask for key in sorted(k for q in lane for k in q)]
            for lane in sched._ready]


def _budgets(sched):
    """The effective FU rows: a row counts only while its lane's stamp
    is the current cycle."""
    cycle = sched._queue.now // sched._period
    return [list(used) if stamp == cycle else [0] * len(used)
            for used, stamp in zip(sched._fu_used, sched._fu_stamp)]


def _state(sched, parts, queues=None):
    spad = parts["spad"]
    state = {
        "events": _events(sched),
        "fu_used": _budgets(sched),
        "reservation": sched.reservation_conflicts,
        "loads": sched.issued_loads,
        "stores": sched.issued_stores,
        "in_flight": sched._in_flight,
        "num_ready": sched._num_ready,
        "round_started": (list(sched._round_started)
                          if sched._round_started is not None else None),
        "busy": (sched.busy._depth, sched.busy._open_start),
        "retained": queues if queues is not None else _retained(sched),
        "spad": (spad.conflicts, spad.accesses, dict(spad.access_by_array),
                 {a: [list(b) for b in banks]
                  for a, banks in spad._banks.items()}),
    }
    if "bits" in parts:
        state["waiters"] = _waiters(parts["bits"])
    if "cache" in parts:
        cache, tlb = parts["cache"], parts["tlb"]
        state["cache"] = (cache.blocked, cache.mshrs.in_use, tlb.hits,
                          tlb.misses, sorted(tlb._pending),
                          sched.mem_if._ports_used)
    return state


def _error_state(parts):
    """What a raising pass leaves behind that is ordered by the memory
    walk alone: bank slots and the full/empty waiters."""
    state = {"banks": {a: [list(b) for b in banks]
                       for a, banks in parts["spad"]._banks.items()}}
    if "bits" in parts:
        state["waiters"] = _waiters(parts["bits"])
    return state


def _run(world, s, reference):
    sched, parts = world(s)
    lanes = sched.lanes
    queues = [[] for _ in range(lanes)] if reference else None
    # FU slots taken earlier in this cycle.
    cycle = sched._queue.now // sched._period
    for lane in range(lanes):
        sched._fu_used[lane][:] = s["fu_used"][lane % 4]
        sched._fu_stamp[lane] = cycle
    sched._state_cycle = cycle
    outcomes = []
    for step, batch in enumerate((s["first"], s["second"])):
        if step and s.get("clear"):
            for rb in parts["bits"].values():
                rb.clear_range(*s["clear"])
        if step and s.get("advance"):
            sched._queue.now += sched._period
        for node in batch:
            if reference:
                queues[sched._node_lane[node]].append(node)
            else:
                sched._enqueue_ready((node,))
        try:
            if reference:
                reference_pass(sched, queues)
            else:
                sched._issue_pass(_PASS, None)
        except Exception as exc:  # noqa: BLE001 — compared below
            outcomes.append(("raised", type(exc), str(exc),
                             _error_state(parts)))
            break
        outcomes.append(_state(sched, parts,
                               [list(q) for q in queues] if reference
                               else None))
    return outcomes


SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@given(spad_scenarios())
def test_spad_pass_matches_flat_scan(s):
    assert _run(_spad_world, s, False) == _run(_spad_world, s, True)


@SETTINGS
@given(cache_scenarios())
def test_cache_pass_matches_flat_scan(s):
    assert _run(_cache_world, s, False) == _run(_cache_world, s, True)


def _emptied_memory_scenario():
    """Lane 0 queues one load, then two adds, with two memory ports: the
    load empties the memory class without saturating it, so the scan
    stops at the first add (the ALU saturates last) and never probes the
    second."""
    tb = TraceBuilder("emptied")
    tb.array("a", 4, 4, kind="input", init=[1.0] * 4)
    tb.array("out", 4, 4, kind="output")
    load = tb.load("a", 0)
    adds = [tb.add(1, 2), tb.add(3, 4)]
    return {"trace": tb, "lanes": 1, "fu_per_lane": {FuClass.MEM: 2},
            "pipelining": "off", "ii": 1,
            "first": [load.node] + [a.node for a in adds], "second": [],
            "fu_used": [[0] * 6] * 4, "partitions": 1, "ports": 1,
            "gated": {}, "missing": None, "busy_banks": [], "ports_used": 0,
            "mshrs": 1, "internal": False, "perfect": True, "warm": False}


def test_emptied_memory_class_ends_the_scan():
    s = _emptied_memory_scenario()
    for world in (_spad_world, _cache_world):
        bucketed = _run(world, s, False)
        assert bucketed == _run(world, s, True)
        assert bucketed[0]["reservation"] == 0


def _blocked_run_scenario(gated, clear, advance):
    """Lane 0 queues one load and lane 1 ten loads from one single-bank
    array, so lane 1 loses the bank on all ten; a second pass adds a load
    from another array behind them.  Between the passes, ``clear`` may
    empty lines of the gated array (some of lane 1's loads must then park
    instead of losing the bank) and ``advance`` may start a new cycle (the
    bank is free again)."""
    tb = TraceBuilder("blocked")
    tb.array("a", 32, 4, kind="input", init=[1.0] * 32)
    tb.array("b", 4, 4, kind="input", init=[1.0] * 4)
    with tb.iteration(0):
        first = [tb.load("a", 0).node]
    with tb.iteration(1):
        first += [tb.load("a", 16 + w).node for w in range(10)]
        extra = tb.load("b", 1).node
    return {"trace": tb, "lanes": 2, "fu_per_lane": {},
            "pipelining": "off", "ii": 1, "first": first, "second": [extra],
            "fu_used": [[0] * 6] * 4, "partitions": 1, "ports": 1,
            "gated": {"a": (16, False, 2 ** 16 - 1)} if gated else {},
            "missing": None, "busy_banks": [], "clear": clear,
            "advance": advance}


@pytest.mark.parametrize("gated,clear,advance", [
    (False, None, False), (False, None, True), (True, None, False),
    (True, (64, 32), False)])
def test_blocked_run_is_counted_again_without_probing(gated, clear,
                                                      advance):
    s = _blocked_run_scenario(gated, clear, advance)
    bucketed = _run(_spad_world, s, False)
    assert bucketed == _run(_spad_world, s, True)
    assert bucketed[0]["spad"][0] == 10


def test_saturated_classes_are_counted_without_probing():
    """One lane, ten queued multiplies and ten loads to one full bank:
    the pass issues the first multiply and counts the other nine as
    reservation conflicts and the ten loads as bank conflicts."""
    tb = TraceBuilder("sat")
    tb.array("a", 16, 4, kind="input", init=[1.0] * 16)
    loads = [tb.load("a", i) for i in range(10)]
    muls = [tb.mul(x, 3) for x in loads]
    s = {"trace": tb, "partitions": 1, "ports": 1, "gated": {},
         "missing": None, "busy_banks": [("a", 0, 1)], "lanes": 1,
         "fu_per_lane": {}, "pipelining": "off", "ii": 1}
    sched, parts = _spad_world(s)
    for node in [n.node for n in muls] + [n.node for n in loads]:
        sched._enqueue_ready((node,))
    sched._issue_pass(_PASS, None)
    assert sched.reservation_conflicts == 9
    assert parts["spad"].conflicts == 10
    assert _retained(sched) == [[n.node for n in muls[1:]]
                                + [n.node for n in loads]]
