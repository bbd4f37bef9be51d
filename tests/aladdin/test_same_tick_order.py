"""Same-tick order between the datapath and the memory system, pinned.

Every component shares one event queue, and events due at one tick run
in the order they were scheduled.  Each scenario here lines up one
memory-side event with a datapath completion batch and an issue pass on
the same tick, once scheduled ahead of them and once behind them:

* a ready-bit ``set_range`` that wakes a parked load;
* a cache-miss fill whose waiter completes a node;
* a TLB walk whose return resumes a parked access;
* a modulo II gate that opens the next round;
* a ready-bit ``set_range`` between two completion batches that were
  scheduled by different passes for one tick.

The pinned numbers (tick of every memory access, ``compute_ticks``,
reservation and bank conflicts) were taken from the simulator before the
datapath ran its cycles inline (the batch pair's, before it ran two
same-tick batches back to back in one pass), so any change to same-tick
order shows up as a changed pin.  Each scenario also runs in half-cycle steps of
``queue.run(until=...)``: stopping mid-datapath must leave the same
state at every step and change nothing after.
"""

import hashlib
import json

import pytest

from repro.aladdin.accelerator import make_scratchpad
from repro.aladdin.ddg import DDDG
from repro.aladdin.scheduler import (
    CacheInterface,
    DatapathScheduler,
    SpadInterface,
)
from repro.aladdin.trace import TraceBuilder
from repro.aladdin.transforms import assign_lanes
from repro.core.config import DesignPoint
from repro.core.soc import SoC
from repro.errors import DeadlockError, SimulationError
from repro.memory.cache import Cache
from repro.memory.coherence import LineState
from repro.memory.fullempty import ReadyBits
from repro.memory.tlb import AcceleratorTLB
from repro.sim.clock import ClockDomain
from repro.sim.kernel import Simulator

P = 10_000          # ticks per accelerator cycle at 100 MHz
BASE = 0x10_0000    # virtual base of the cache worlds' arrays


class _AccessLog(dict):
    """A scratchpad's ``access_by_array`` that also logs each access as
    ``(tick, array)``."""

    def __init__(self, counts, sim):
        super().__init__(counts)
        self.sim = sim
        self.log = []

    def __setitem__(self, array, value):
        self.log.append((self.sim.now, array))
        super().__setitem__(array, value)


class _FixedDomain:
    """A coherence domain whose fills land at ticks the test picks:
    ``fills[line]`` is ``(tick, early)``, other lines fill 3 cycles after
    their miss.  An early fill is scheduled when the miss happens; a late
    one from a relay event one tick before it, so it runs behind whatever
    was scheduled in between."""

    def __init__(self, sim, fills):
        self.sim = sim
        self.fills = fills

    def fetch_line(self, cache, line, for_write, callback):
        tick, early = self.fills.get(line, (self.sim.now + 3 * P, True))
        if early:
            self.sim.schedule_at(tick, callback, LineState.EXCLUSIVE)
        else:
            self.sim.schedule_at(tick - 1, self.sim.schedule, 1, callback,
                                 LineState.EXCLUSIVE)

    def upgrade_line(self, cache, line):
        pass

    def writeback(self, cache, line, state):
        pass


def _scheduler(sim, tb, mem_if, lanes, **kw):
    clock = ClockDomain(100)
    sched = DatapathScheduler(sim, clock, DDDG(tb), assign_lanes(tb, lanes),
                              mem_if, **kw)
    sim.add_done_dependency(lambda: sched.done)
    return sched


def _spad_world(tb, lanes=1, partitions=1, ready_bits=None, **kw):
    sim = Simulator()
    spad = make_scratchpad(tb, partitions, 1)
    spad.access_by_array = _AccessLog(spad.access_by_array, sim)
    mem_if = SpadInterface(sim, ClockDomain(100), spad,
                           ready_bits=ready_bits)
    sched = _scheduler(sim, tb, mem_if, lanes, **kw)
    return sim, sched, {"spad": spad, "log": spad.access_by_array.log}


def _cache_world(tb, fills=None, cold=(), tlb_miss_ns=100.0, lanes=1,
                 ports=1, mshrs=4, **kw):
    """A cache world whose TLB holds the pages of every array but the
    ``cold`` ones; every access is logged as ``(tick, node, status)``."""
    sim = Simulator()
    clock = ClockDomain(100)
    cache = Cache(sim, clock, "accel", 4096, 64, 4, mshrs=mshrs,
                  hit_latency_cycles=1)
    cache.domain = _FixedDomain(sim, fills or {})
    tlb = AcceleratorTLB(sim, miss_latency_ns=tlb_miss_ns)
    addr_map = {name: BASE + i * 4096 for i, name in enumerate(tb.arrays)}
    spad = make_scratchpad(tb, 1, 1, kinds=("internal",))
    mem_if = CacheInterface(sim, clock, cache, tlb, addr_map,
                            phys_offset=0, ports=ports, spad=spad)
    log = []
    issue = mem_if.issue

    def logged(sched, node, cycle):
        status = issue(sched, node, cycle)
        log.append((sim.now, node, status))
        return status

    mem_if.issue = logged
    for name, vaddr in addr_map.items():
        if name not in cold:
            tlb._tlb[vaddr // tlb.page_size] = vaddr // tlb.page_size
    sched = _scheduler(sim, tb, mem_if, lanes, **kw)
    return sim, sched, {"spad": spad, "cache": cache, "tlb": tlb,
                        "log": log}


# -- the four scenarios ------------------------------------------------------


def _ready_bit(early):
    """One lane: a load of ``a[0]`` feeds an add that feeds a store, four
    independent multiplies keep a pass running every cycle, and a load
    of ``a[16]`` parks on an unfilled line.  The line fills at 2P, the
    tick the add's batch readies the store and a pass runs."""
    tb = TraceBuilder("same-tick-bits")
    tb.array("a", 32, 4, kind="input", init=[1] * 32)
    tb.array("out", 4, 4, kind="output")
    x = tb.load("a", 0)
    tb.store("out", 0, tb.add(x, 1))
    for k in range(4):
        tb.mul(k + 2, 3)
    tb.store("out", 1, tb.load("a", 16))
    bits = ReadyBits("a", 128, granularity=64)
    bits.set_range(0, 64)
    sim, sched, parts = _spad_world(tb, ready_bits={"a": bits})
    if early:
        sim.schedule_at(2 * P, bits.set_range, 64, 64)
    else:
        sim.schedule_at(2 * P - 1, sim.schedule, 1, bits.set_range, 64, 64)
    return sim, sched, parts


def _miss_fill(early):
    """One lane, one cache port: a load of ``a[0]`` misses and its line
    fills at 2P - P (the hit latency brings its completion to 2P), where
    an add's batch and a pass also land; independent adds keep a pass
    running every cycle."""
    tb = TraceBuilder("same-tick-fill")
    tb.array("a", 64, 4, kind="input", init=[1] * 64)
    tb.array("out", 4, 4, kind="output")
    tb.store("out", 0, tb.add(tb.load("a", 0), 1))
    y = tb.add(5, 6)
    tb.store("out", 1, tb.add(y, 7))
    for k in range(3):
        tb.add(k + 8, 9)
    line = BASE & ~63
    return _cache_world(tb, fills={line: (P, early)})


def _tlb_walk(early):
    """One lane: the load of ``a[0]`` misses the TLB at tick 0 and its
    walk returns at 2P, where the second add of a chain completes and a
    pass runs; independent add pairs keep a pass running every cycle.  A
    late walk return is relayed through the tick's FIFO, behind them."""
    tb = TraceBuilder("same-tick-tlb")
    tb.array("a", 16, 4, kind="input", init=[1] * 16)
    tb.array("b", 16, 4, kind="input", init=[1] * 16)
    tb.array("out", 4, 4, kind="output")
    tb.store("out", 0, tb.add(tb.load("a", 0), 1))
    z = tb.add(tb.add(2, 3), 4)
    tb.store("out", 1, tb.add(tb.load("b", 0), z))
    for k in range(4):
        tb.add(tb.add(k + 5, 6), 7)
    sim, sched, parts = _cache_world(tb, cold=("a",), tlb_miss_ns=20.0)
    if not early:
        finish = parts["tlb"]._finish_walk
        parts["tlb"]._finish_walk = (
            lambda vpn, ppn: sim.schedule(0, finish, vpn, ppn))
    return sim, sched, parts


def _ii_gate(early):
    """Modulo II 3 on two lanes, two iterations a round, each a load, an
    add, a multiply and a store.  Round r's first load opens the gate of
    round r+1 three cycles later, on the tick its multiply completes and
    a pass runs.  Without ``early`` a second multiply per iteration waits
    a cycle for the unit and launches in the round opener's pass ahead of
    it: its batch is scheduled before the gate, on the same tick."""
    tb = TraceBuilder("same-tick-gate")
    tb.array("a", 16, 4, kind="input", init=[1] * 16)
    tb.array("out", 16, 4, kind="output")
    for i in range(6):
        with tb.iteration(i):
            y = tb.add(tb.load("a", i), 1)
            m = tb.mul(y, 3)
            if not early:
                m = tb.add(m, tb.mul(y, 5))
            tb.store("out", i, m)
    return _spad_world(tb, lanes=2, partitions=2, pipelining="modulo", ii=3)


def _batch_pair(early):
    """One lane: a multiply issued at cycle 0 and the last of four chained
    adds, issued at cycle 3, complete on one tick, 4P, in two batches from
    different passes; each feeds a store.  A load of ``a[16]`` parks on an
    unfilled line that fills at 4P.  With ``early`` the fill is scheduled
    ahead of both batches, so they run back to back; otherwise it is
    scheduled (from a relay at P/2) between the two batches' sequence
    numbers, and the resumed load queues between the two stores."""
    tb = TraceBuilder("same-tick-batches")
    tb.array("a", 32, 4, kind="input", init=[1] * 32)
    tb.array("out", 4, 4, kind="output")
    tb.store("out", 0, tb.fmul(2.0, 3.0))
    x = tb.add(1, 2)
    for k in range(3):
        x = tb.add(x, k)
    tb.store("out", 1, x)
    tb.store("out", 2, tb.load("a", 16))
    bits = ReadyBits("a", 128, granularity=64)
    bits.set_range(0, 64)
    sim, sched, parts = _spad_world(tb, ready_bits={"a": bits})
    if early:
        sim.schedule_at(4 * P, bits.set_range, 64, 64)
    else:
        sim.schedule_at(P // 2, sim.schedule_at, 4 * P, bits.set_range,
                        64, 64)
    return sim, sched, parts


SCENARIOS = {
    "ready-bit": _ready_bit,
    "miss-fill": _miss_fill,
    "tlb-walk": _tlb_walk,
    "ii-gate": _ii_gate,
    "batch-pair": _batch_pair,
}


def _outcome(sched, parts):
    spad = parts["spad"]
    out = {
        "accesses": [(tick // P, rest) for tick, *rest in parts["log"]],
        "compute_ticks": sched.compute_ticks,
        "reservation_conflicts": sched.reservation_conflicts,
        "bank_conflicts": spad.conflicts,
        "loads": sched.issued_loads,
        "stores": sched.issued_stores,
    }
    if "cache" in parts:
        cache, tlb = parts["cache"], parts["tlb"]
        out["cache"] = (cache.hits, cache.misses, cache.merged,
                        cache.blocked, tlb.hits, tlb.misses)
    return out


def _state(sim, sched, parts):
    """What a run stopped by ``until`` leaves readable."""
    spad = parts["spad"]
    return (sim.now, sched._completed, sched._in_flight, sched._num_ready,
            sched.issued_loads, sched.issued_stores,
            sched.reservation_conflicts, spad.conflicts, spad.accesses,
            sched.busy.total_busy(), sched.busy.busy, sched._current_round,
            len(parts["log"]), sched.done)


def run_scenario(name, early):
    sim, sched, parts = SCENARIOS[name](early)
    sched.start()
    sim.run()
    return _outcome(sched, parts)


def run_stepped(name, early):
    """The scenario in half-cycle ``until`` steps; the state after each."""
    sim, sched, parts = SCENARIOS[name](early)
    sched.start()
    states = []
    tick = 0
    while not sched.done:
        tick += P // 2
        sim.queue.run(until=tick)
        states.append(_state(sim, sched, parts))
        assert tick < 200 * P, "scenario did not finish"
    sim.run()
    return _outcome(sched, parts), states


def _livelock():
    """One lane, one MSHR, and a domain that never fills: the first load
    takes the MSHR for good and the second is refused every cycle."""
    tb = TraceBuilder("livelock")
    tb.array("a", 64, 4, kind="input", init=[1] * 64)
    tb.add(tb.load("a", 0), tb.load("a", 16))
    sim, sched, parts = _cache_world(tb, mshrs=1)
    parts["cache"].domain.fetch_line = lambda *args, **kw: None
    return sim, sched, parts


def _mem(ticks, arrays):
    return [(t, [a]) for t, a in zip(ticks, arrays)]


PINNED = {
    ("ready-bit", True): {
        "accesses": _mem((0, 2, 3, 4), ("a", "a", "out", "out")),
        "compute_ticks": 6 * P, "reservation_conflicts": 3,
        "bank_conflicts": 0, "loads": 2, "stores": 2},
    ("ready-bit", False): {
        "accesses": _mem((0, 2, 3, 4), ("a", "out", "a", "out")),
        "compute_ticks": 6 * P, "reservation_conflicts": 3,
        "bank_conflicts": 0, "loads": 2, "stores": 2},
    ("miss-fill", True): {
        "accesses": [(0, [0, "issued"]), (5, [5, "issued"]),
                     (6, [2, "issued"])],
        "compute_ticks": 9 * P, "reservation_conflicts": 0,
        "bank_conflicts": 0, "loads": 1, "stores": 2,
        "cache": (0, 2, 1, 0, 3, 0)},
    ("tlb-walk", True): {
        "accesses": [(0, [0, "parked"]), (1, [5, "issued"]),
                     (2, [0, "issued"]), (11, [2, "issued"]),
                     (12, [7, "issued"])],
        "compute_ticks": 15 * P, "reservation_conflicts": 3,
        "bank_conflicts": 0, "loads": 2, "stores": 2,
        "cache": (0, 3, 1, 0, 4, 1)},
    ("ii-gate", True): {
        "accesses": _mem((0, 0, 3, 3, 5, 5, 6, 6, 8, 8, 11, 11),
                         "aaaa" + "oo" + "aa" + "oooo"),
        "compute_ticks": 12 * P, "reservation_conflicts": 0,
        "bank_conflicts": 0, "loads": 6, "stores": 6},
    ("ii-gate", False): {
        "accesses": _mem((0, 0, 3, 3, 6, 6, 7, 7, 10, 10, 13, 13),
                         "aaaaaa" + "oooooo"),
        "compute_ticks": 14 * P, "reservation_conflicts": 0,
        "bank_conflicts": 0, "loads": 6, "stores": 6},
    ("batch-pair", True): {
        "accesses": _mem((4, 5, 6, 7), ("a", "out", "out", "out")),
        "compute_ticks": 8 * P, "reservation_conflicts": 0,
        "bank_conflicts": 0, "loads": 1, "stores": 3},
    ("batch-pair", False): {
        "accesses": _mem((4, 5, 6, 7), ("out", "a", "out", "out")),
        "compute_ticks": 8 * P, "reservation_conflicts": 0,
        "bank_conflicts": 0, "loads": 1, "stores": 3},
}
# The late fill lands behind the batch and the pass but changes nothing
# they see; the late walk return costs the extra pass one more conflict.
PINNED[("miss-fill", False)] = PINNED[("miss-fill", True)]
PINNED[("tlb-walk", False)] = dict(PINNED[("tlb-walk", True)],
                                   reservation_conflicts=4)
for _key, _pin in PINNED.items():
    _pin["accesses"] = [(t, ["out" if a == "o" else a for a in rest])
                        for t, rest in _pin["accesses"]]

#: SHA-256 (first 16 hex digits) of the states after every half-cycle
#: ``until`` step, as listed by ``_state``.
STEPPED = {
    ("ready-bit", True): "a1c70f7ea5eba02d",
    ("ready-bit", False): "32bec6037c98bbff",
    ("miss-fill", True): "c1336fb330ddcfbb",
    ("miss-fill", False): "53bb254d102f8683",
    ("tlb-walk", True): "2a227592c6a34d51",
    ("tlb-walk", False): "e0b885eecd744157",
    ("ii-gate", True): "236d0049976f0945",
    ("ii-gate", False): "0fd42b4450f076dc",
    ("batch-pair", True): "32db9e530179eed9",
    ("batch-pair", False): "77c0d7bb51d1d81f",
}

CASES = [pytest.param(name, early, id=f"{name}-{'early' if early else 'late'}")
         for name in SCENARIOS for early in (True, False)]


@pytest.mark.parametrize("name,early", CASES)
def test_same_tick_order_is_pinned(name, early):
    assert run_scenario(name, early) == PINNED[(name, early)]


@pytest.mark.parametrize("name,early", CASES)
def test_until_mid_datapath_leaves_the_pinned_state(name, early):
    outcome, states = run_stepped(name, early)
    assert outcome == PINNED[(name, early)]
    text = json.dumps(states)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == \
        STEPPED[(name, early)]


@pytest.mark.parametrize("name,early", CASES)
def test_stepping_event_by_event_reaches_the_pinned_outcome(name, early):
    """``EventQueue.step`` runs one queued event; the cycle loop it
    dispatches runs no entry past that event's tick."""
    sim, sched, parts = SCENARIOS[name](early)
    sched.start()
    while sim.queue.step():
        pass
    assert _outcome(sched, parts) == PINNED[(name, early)]


#: ``Simulator.events_executed`` per scenario, as counted when every
#: issue pass and completion batch was a queue event of its own.
EVENTS = {("ready-bit", True): 15, ("ready-bit", False): 17,
          ("miss-fill", True): 18, ("miss-fill", False): 20,
          ("tlb-walk", True): 33, ("tlb-walk", False): 35,
          ("ii-gate", True): 24, ("ii-gate", False): 32,
          ("batch-pair", True): 18, ("batch-pair", False): 19}


@pytest.mark.parametrize("name,early", CASES)
def test_inline_entries_count_as_the_events_they_replace(name, early):
    sim, sched, _parts = SCENARIOS[name](early)
    sched.start()
    assert sim.run() == EVENTS[(name, early)]
    assert sim.events_executed == EVENTS[(name, early)]


def test_livelocked_datapath_spends_the_event_budget():
    sim, sched, parts = _livelock()
    sched.start()
    with pytest.raises(SimulationError, match="event budget exceeded"):
        sim.run(max_events=2000)
    # One issue pass a cycle, each refused once by the full MSHR file.
    assert sim.now == 1999 * P
    assert parts["cache"].blocked == 1999
    assert parts["cache"].misses == 1
    assert not sched.done


def test_stuck_datapath_raises_deadlock_under_repro_check(monkeypatch):
    """DMA-triggered compute whose input DMA never arrives: the datapath
    parks on its ready bits, the queue drains, and with ``REPRO_CHECK=1``
    the checker's diagnosis names the stuck datapath."""
    monkeypatch.setenv("REPRO_CHECK", "1")
    soc = SoC("aes-aes", DesignPoint(lanes=2, partitions=2,
                                     dma_triggered_compute=True))
    original = soc.dma._pump

    def wedged(txn):
        if txn.bursts:
            original(txn)

    soc.dma._pump = wedged
    soc.dma.enqueue([], label="empty-chain")
    with pytest.raises(DeadlockError, match="datapath stuck"):
        soc.run()
    assert not soc.scheduler.done
