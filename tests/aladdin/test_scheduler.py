"""Datapath scheduler: resource constraints, rounds, memory interfaces."""

import pytest

from repro.aladdin.accelerator import Accelerator, make_scratchpad
from repro.aladdin.ddg import DDDG
from repro.aladdin.scheduler import (
    CacheInterface,
    DatapathScheduler,
    SpadInterface,
)
from repro.aladdin.trace import TraceBuilder
from repro.aladdin.transforms import assign_lanes
from repro.errors import SimulationError
from repro.memory.bus import SystemBus
from repro.memory.cache import Cache
from repro.memory.coherence import CoherenceDomain
from repro.memory.dram import DRAM
from repro.memory.fullempty import ReadyBits
from repro.memory.tlb import AcceleratorTLB
from repro.sim.clock import ClockDomain
from repro.sim.kernel import Simulator

from tests.conftest import make_linear_trace, make_serial_trace


def run_spad(trace, lanes, partitions, ports=1, ready_bits=None,
             fu_per_lane=None):
    sim = Simulator()
    clock = ClockDomain(100)
    spad = make_scratchpad(trace, partitions, ports)
    mem_if = SpadInterface(sim, clock, spad, ready_bits=ready_bits)
    sched = DatapathScheduler(sim, clock, DDDG(trace),
                              assign_lanes(trace, lanes), mem_if,
                              fu_per_lane=fu_per_lane)
    sim.add_done_dependency(lambda: sched.done)
    return sim, sched, spad


class TestBasicExecution:
    def test_all_nodes_complete(self):
        tb = make_linear_trace(16)
        sim, sched, _ = run_spad(tb, 4, 4)
        sched.start()
        sim.run()
        assert sched.done
        assert sched.issued_loads == 16
        assert sched.issued_stores == 16

    def test_scratchpad_latency_sets_memory_completion(self):
        """A load completes after the scratchpad's access latency, not
        the load op's, and its dependent add issues then."""
        tb = TraceBuilder()
        tb.array("a", 4, 4, kind="input", init=[1] * 4)
        tb.add(tb.load("a", 0), 1)
        sim = Simulator()
        clock = ClockDomain(100)
        mem_if = SpadInterface(sim, clock, make_scratchpad(tb, 1, 1),
                               latency_cycles=3)
        sched = DatapathScheduler(sim, clock, DDDG(tb), assign_lanes(tb, 1),
                                  mem_if)
        sim.add_done_dependency(lambda: sched.done)
        sched.start()
        sim.run()
        assert sched.compute_ticks == clock.cycles_to_ticks(3 + 1)

    def test_empty_trace_completes_immediately(self):
        tb = TraceBuilder()
        sim, sched, _ = run_spad(tb, 1, 1)
        sched.start()
        assert sched.done
        assert sched.compute_ticks == 0

    def test_double_start_rejected(self):
        tb = make_linear_trace(4)
        sim, sched, _ = run_spad(tb, 1, 1)
        sched.start()
        with pytest.raises(SimulationError):
            sched.start()

    def test_perfect_lane_scaling_on_parallel_trace(self):
        tb = make_linear_trace(64)
        cycles = {}
        for lanes in (1, 2, 4, 8):
            sim, sched, _ = run_spad(tb, lanes, lanes)
            sched.start()
            sim.run()
            cycles[lanes] = sched.compute_ticks
        assert cycles[1] == 2 * cycles[2] == 4 * cycles[4] == 8 * cycles[8]

    def test_serial_chain_barely_scales(self):
        """The fadd chain bounds the schedule: extra lanes only let the
        loads prefetch across rounds, far from the 8x of a parallel loop."""
        tb = make_serial_trace(16)
        times = {}
        for lanes in (1, 8):
            sim, sched, _ = run_spad(tb, lanes, lanes)
            sched.start()
            sim.run()
            times[lanes] = sched.compute_ticks
        chain_ticks = 16 * 3 * 10_000  # 16 fadds on the critical path
        assert times[8] >= chain_ticks
        assert times[1] <= times[8] * 1.5


class TestResourceConstraints:
    def test_fu_limit_serializes_within_lane(self):
        # 4 independent fmuls in ONE iteration: a single lane has one
        # pipelined fmul unit (II=1), so issues spread over 4 cycles but
        # overlap: last completes at cycle 3 + 4 = 7 not 16.
        tb = TraceBuilder()
        tb.array("a", 4, 4, kind="input", init=[1.0] * 4)
        with tb.iteration(0):
            loads = [tb.load("a", i) for i in range(4)]
        with tb.iteration(0):
            for v in loads:
                tb.fmul(v, 2.0)
        sim, sched, spad = run_spad(tb, 1, 4)
        sched.start()
        sim.run()
        cycles = sched.compute_ticks // 10_000
        # loads: 4 banks but 1 mem issue/lane/cycle -> cycles 0..3;
        # fmuls: issue 1..4 (dataflow), latency 4 -> last done cycle ~8.
        assert 8 <= cycles <= 10

    def test_wider_fu_allocation_speeds_up(self):
        tb = TraceBuilder()
        tb.array("a", 8, 4, kind="input", init=[1.0] * 8)
        with tb.iteration(0):
            loads = [tb.load("a", i) for i in range(8)]
            for v in loads:
                tb.fmul(v, 2.0)
        slow_t = fast_t = None
        for label, fu in (("slow", None), ("fast", {"mem": 4, "fmul": 4})):
            sim, sched, _ = run_spad(tb, 1, 8, fu_per_lane=fu)
            sched.start()
            sim.run()
            if label == "slow":
                slow_t = sched.compute_ticks
            else:
                fast_t = sched.compute_ticks
        assert fast_t < slow_t

    def test_bank_conflicts_throttle_memory(self):
        tb = make_linear_trace(32)
        times = {}
        for parts in (1, 8):
            sim, sched, spad = run_spad(tb, 8, parts)
            sched.start()
            sim.run()
            times[parts] = sched.compute_ticks
        assert times[8] < times[1]


class TestRoundBarriers:
    def test_rounds_serialize(self):
        # Iterations are independent, but rounds must not overlap: with
        # 2 lanes and 4 iterations there are 2 rounds of 6 cycles each.
        tb = make_linear_trace(4)
        sim, sched, _ = run_spad(tb, 2, 2)
        sched.start()
        sim.run()
        assert sched.compute_ticks // 10_000 == 2 * 6

    def test_single_round_with_enough_lanes(self):
        tb = make_linear_trace(4)
        sim, sched, _ = run_spad(tb, 4, 4)
        sched.start()
        sim.run()
        assert sched.compute_ticks // 10_000 == 6


class TestReadyBitGating:
    def test_load_stalls_until_bits_set(self):
        tb = make_linear_trace(8)
        bits = ReadyBits("a", 32, granularity=64)
        sim, sched, _ = run_spad(tb, 8, 8, ready_bits={"a": bits})
        sched.start()
        # Nothing can complete yet: every load gated.
        sim.queue.run(until=50 * 10_000)
        assert not sched.done
        sim.schedule(0, bits.set_all)
        sim.run()
        assert sched.done

    def test_partial_fill_unblocks_some_lanes(self):
        tb = make_linear_trace(32)  # words 0..31 -> bytes 0..127, 2 lines
        bits = ReadyBits("a", 128, granularity=64)
        sim, sched, _ = run_spad(tb, 32, 32, ready_bits={"a": bits})
        sched.start()
        sim.schedule(10 * 10_000, bits.set_range, 0, 64)
        sim.queue.run(until=100 * 10_000)
        # First 16 words ready -> those iterations completed their stores.
        assert 16 <= sched.issued_stores
        assert not sched.done
        sim.schedule(0, bits.set_range, 64, 64)
        sim.run()
        assert sched.done

    def test_deadlock_detected_when_bits_never_set(self):
        tb = make_linear_trace(4)
        bits = ReadyBits("a", 16, granularity=64)
        sim, sched, _ = run_spad(tb, 4, 4, ready_bits={"a": bits})
        sched.start()
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run()


def run_cache(trace, lanes, cache_kb=4, ports=2, perfect=False,
              preload_peer=False):
    sim = Simulator()
    clock = ClockDomain(100)
    dram = DRAM(sim)
    bus = SystemBus(sim, clock, 32, downstream=dram)
    domain = CoherenceDomain(sim, bus)
    cache = Cache(sim, clock, "accel", cache_kb * 1024, 64, 4)
    domain.register(cache)
    tlb = AcceleratorTLB(sim)
    addr_map = {}
    base = 0x10_0000
    for name, decl in trace.arrays.items():
        addr_map[name] = base
        base += 4096
    spad = make_scratchpad(trace, 1, kinds=("internal",)) \
        if any(d.kind == "internal" for d in trace.arrays.values()) else None
    internal = [n for n, d in trace.arrays.items() if d.kind == "internal"]
    mem_if = CacheInterface(sim, clock, cache, tlb, addr_map,
                            phys_offset=0x1000_0000, ports=ports, spad=spad,
                            internal_arrays=internal, perfect=perfect)
    sched = DatapathScheduler(sim, clock, DDDG(trace),
                              assign_lanes(trace, lanes), mem_if)
    sim.add_done_dependency(lambda: sched.done)
    return sim, sched, cache, tlb


class TestCacheInterface:
    def test_completes_through_cache(self):
        tb = make_linear_trace(16)
        sim, sched, cache, tlb = run_cache(tb, 4)
        sched.start()
        sim.run()
        assert sched.done
        assert cache.misses > 0
        assert tlb.misses >= 2  # two arrays, two pages

    def test_perfect_memory_faster(self):
        tb = make_linear_trace(16)
        times = {}
        for perfect in (False, True):
            sim, sched, *_ = run_cache(tb, 4, perfect=perfect)
            sched.start()
            sim.run()
            times[perfect] = sched.compute_ticks
        assert times[True] < times[False]

    def test_internal_arrays_stay_in_scratchpad(self):
        tb = TraceBuilder()
        tb.array("in", 8, 4, kind="input", init=[1.0] * 8)
        tb.array("tmp", 8, 4, kind="internal")
        for i in range(8):
            with tb.iteration(i):
                v = tb.load("in", i)
                tb.store("tmp", i, v)
        sim, sched, cache, _tlb = run_cache(tb, 2)
        sched.start()
        sim.run()
        # Only the 'in' loads went through the cache.
        assert cache.reads == 8
        assert cache.writes == 0

    def test_port_limit_slows_execution(self):
        """With perfect (always-hit) memory the port count is the only
        memory bottleneck, so it must show up in the schedule length."""
        tb = make_linear_trace(64)
        times = {}
        for ports in (1, 8):
            sim, sched, *_ = run_cache(tb, 16, cache_kb=8, ports=ports,
                                       perfect=True)
            sched.start()
            sim.run()
            times[ports] = sched.compute_ticks
        assert times[8] < times[1]


class TestBusyTracking:
    def test_busy_interval_spans_run(self):
        tb = make_linear_trace(8)
        sim, sched, _ = run_spad(tb, 2, 2)
        sched.start()
        sim.run()
        assert sched.busy.total_busy() > 0
        merged = sched.busy.merged()
        assert merged[0][0] >= sched.start_tick
        assert merged[-1][1] <= sched.done_tick
