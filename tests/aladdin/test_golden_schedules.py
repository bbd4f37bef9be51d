"""Golden schedules: hand-computed cycle counts for tiny kernels.

These pin the scheduler's exact timing semantics (issue rules, FU
latencies, port arbitration, round barriers) so refactors cannot silently
shift the model.  Latencies: load/store 1 (scratchpad), fadd 3, fmul 4,
alu 1 (see repro.aladdin.ir.OP_INFO).
"""

import pytest

from repro.aladdin.accelerator import Accelerator
from repro.aladdin.trace import TraceBuilder


def cycles(tb, lanes, partitions, **kw):
    return Accelerator(tb, lanes, partitions, **kw).run_isolated().cycles


class TestStraightLine:
    def test_single_load(self):
        tb = TraceBuilder()
        tb.array("a", 4, 4, kind="input", init=[0] * 4)
        tb.load("a", 0)
        assert cycles(tb, 1, 1) == 1

    def test_load_fmul_store_chain(self):
        # load (c0, done c1) -> fmul (c1..c4) -> store (c5): 6 cycles.
        tb = TraceBuilder()
        tb.array("a", 4, 4, kind="input", init=[1.0] * 4)
        tb.array("o", 4, 4, kind="output")
        v = tb.load("a", 0)
        w = tb.fmul(v, 2.0)
        tb.store("o", 0, w)
        assert cycles(tb, 1, 1) == 6

    def test_fadd_chain(self):
        # n chained fadds: 3 cycles each, no overlap possible.
        tb = TraceBuilder()
        acc = 0.0
        for _ in range(5):
            acc = tb.fadd(acc, 1.0)
        assert cycles(tb, 1, 1) == 15

    def test_independent_fadds_pipeline(self):
        # 4 independent fadds, one FU, II=1: issue c0..c3, the last
        # completes at c3 + 3 = cycle 6.
        tb = TraceBuilder()
        for _ in range(4):
            tb.fadd(1.0, 2.0)
        assert cycles(tb, 1, 1) == 6


class TestMemoryPorts:
    def test_single_bank_serializes_loads(self):
        # 4 loads, one bank with one port: issue c0..c3, done c4.
        tb = TraceBuilder()
        tb.array("a", 4, 4, kind="input", init=[0] * 4)
        with tb.iteration(0):
            for i in range(4):
                tb.load("a", i)
        assert cycles(tb, 1, 1) == 4

    def test_four_banks_but_one_lane_port(self):
        # The lane's single mem-issue slot still serializes: 4 cycles.
        tb = TraceBuilder()
        tb.array("a", 4, 4, kind="input", init=[0] * 4)
        with tb.iteration(0):
            for i in range(4):
                tb.load("a", i)
        assert cycles(tb, 1, 4) == 4

    def test_wider_mem_issue_uses_banks(self):
        # 4 mem issues/lane/cycle + 4 banks: all loads in c0, done c1.
        tb = TraceBuilder()
        tb.array("a", 4, 4, kind="input", init=[0] * 4)
        with tb.iteration(0):
            for i in range(4):
                tb.load("a", i)
        assert cycles(tb, 1, 4, fu_per_lane={"mem": 4}) == 1

    def test_bank_conflict_with_wide_issue(self):
        # 4 mem issues but a single bank: conflicts serialize to 4 cycles.
        tb = TraceBuilder()
        tb.array("a", 4, 4, kind="input", init=[0] * 4)
        with tb.iteration(0):
            for i in range(4):
                tb.load("a", i)
        assert cycles(tb, 1, 1, fu_per_lane={"mem": 4}) == 4


class TestLanesAndRounds:
    def _two_iter_kernel(self):
        tb = TraceBuilder()
        tb.array("a", 8, 4, kind="input", init=[1.0] * 8)
        tb.array("o", 8, 4, kind="output")
        for i in range(2):
            with tb.iteration(i):
                v = tb.load("a", i)
                w = tb.fmul(v, 2.0)
                tb.store("o", i, w)
        return tb

    def test_two_lanes_one_round(self):
        # Both iterations run concurrently on separate lanes/banks.
        assert cycles(self._two_iter_kernel(), 2, 2) == 6

    def test_one_lane_two_rounds_with_barrier(self):
        # Round barrier: second iteration starts only after the first
        # fully completes: 2 x 6 cycles.
        assert cycles(self._two_iter_kernel(), 1, 1) == 12

    def test_one_lane_pipelined(self):
        # Loop pipelining: iteration 1's load issues in cycle 1 (the
        # lane's mem slot is free after iteration 0's load), so the
        # second chain finishes one cycle behind the first: 7 cycles.
        assert cycles(self._two_iter_kernel(), 1, 1,
                      pipelining="off") == 7

    def test_serial_node_not_barriered(self):
        # A serial epilogue node depends only on data, not on rounds.
        tb = TraceBuilder()
        tb.array("a", 4, 4, kind="input", init=[1.0] * 4)
        with tb.iteration(0):
            v = tb.load("a", 0)
        with tb.iteration(1):
            tb.load("a", 1)
        tb.fadd(v, 1.0)  # serial: needs only iteration 0's load
        # 2 lanes: loads at c0; fadd c1..c3: 4 cycles.
        assert cycles(tb, 2, 2) == 4


class TestMixedFUs:
    def test_different_classes_issue_same_cycle(self):
        # One fadd and one fmul are independent and use different FUs:
        # both issue at c0; fmul (4) dominates.
        tb = TraceBuilder()
        tb.fadd(1.0, 2.0)
        tb.fmul(1.0, 2.0)
        assert cycles(tb, 1, 1) == 4

    def test_same_class_serializes(self):
        # Two independent fmuls share the lane's one fmul unit: issue
        # c0 and c1, last done c5.
        tb = TraceBuilder()
        tb.fmul(1.0, 2.0)
        tb.fmul(3.0, 4.0)
        assert cycles(tb, 1, 1) == 5
