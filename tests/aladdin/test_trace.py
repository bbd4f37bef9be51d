"""Trace builder: SSA values, memory dependences, functional semantics."""

import pytest

from repro.aladdin.ir import Op
from repro.aladdin.trace import TraceBuilder, Value
from repro.errors import TraceError


def make_tb():
    tb = TraceBuilder("t")
    tb.array("a", 8, 4, kind="input", init=[1, 2, 3, 4, 5, 6, 7, 8])
    tb.array("out", 8, 4, kind="output")
    return tb


class TestArrays:
    def test_duplicate_array_rejected(self):
        tb = make_tb()
        with pytest.raises(TraceError):
            tb.array("a", 4, 4)

    def test_bad_kind_rejected(self):
        tb = TraceBuilder()
        with pytest.raises(TraceError):
            tb.array("x", 4, 4, kind="wibble")

    def test_init_length_mismatch(self):
        tb = TraceBuilder()
        with pytest.raises(TraceError):
            tb.array("x", 4, 4, init=[1, 2])

    def test_out_of_bounds_access(self):
        tb = make_tb()
        with pytest.raises(TraceError):
            tb.load("a", 8)
        with pytest.raises(TraceError):
            tb.store("out", -1, 0)

    def test_undeclared_array(self):
        tb = make_tb()
        with pytest.raises(TraceError):
            tb.load("nope", 0)


class TestValues:
    def test_load_returns_functional_value(self):
        tb = make_tb()
        v = tb.load("a", 2)
        assert v.value == 3

    def test_store_updates_data(self):
        tb = make_tb()
        tb.store("out", 1, 42)
        assert tb.arrays["out"].data[1] == 42

    def test_op_computes(self):
        tb = make_tb()
        assert tb.add(2, 3).value == 5
        assert tb.fmul(2.0, 4.0).value == 8.0
        assert tb.xor(0b1100, 0b1010).value == 0b0110
        assert tb.select(1, "nope" == "nope" and 10 or 0, 20).value == 10
        assert tb.icmp(5, 3).value == 1
        assert tb.icmp(3, 5).value == 0

    def test_fsqrt(self):
        tb = make_tb()
        assert tb.fsqrt(9.0).value == pytest.approx(3.0)

    def test_unknown_opcode(self):
        tb = make_tb()
        with pytest.raises(TraceError):
            tb.op("madd", 1, 2)


class TestRejectedOps:
    """An op or access that raises leaves the trace as it was."""

    def test_memory_opcode_through_op_leaves_no_node(self):
        tb = make_tb()
        with pytest.raises(TraceError, match="no semantics"):
            tb.op(Op.LOAD, 1, 2)
        assert tb.num_nodes == 0
        assert tb.node_array == []

    def test_missing_operand_is_a_trace_error(self):
        tb = make_tb()
        x = tb.load("a", 0)
        with pytest.raises(TraceError, match="takes 2 operands, got 1"):
            tb.op(Op.ADD, x)
        assert tb.num_nodes == 1

    def test_extra_operand_is_a_trace_error(self):
        tb = make_tb()
        with pytest.raises(TraceError, match="takes 1 operand, got 2"):
            tb.op(Op.FSQRT, 4.0, 9.0)
        assert tb.num_nodes == 0

    def test_failed_evaluation_leaves_no_node(self):
        tb = make_tb()
        with pytest.raises(ValueError):
            tb.shl(1, -1)
        with pytest.raises(ValueError):
            tb.op(Op.AND, float("nan"), 1)
        assert tb.num_nodes == 0

    def test_rejected_access_leaves_no_node(self):
        tb = make_tb()
        for bad in (lambda: tb.load("a", 8), lambda: tb.load("nope", 0),
                    lambda: tb.store("out", 8, 1)):
            with pytest.raises(TraceError):
                bad()
        assert tb.num_nodes == 0
        assert tb.arrays["out"].data == [0] * 8


class TestDependences:
    def test_register_dependence(self):
        tb = make_tb()
        x = tb.load("a", 0)
        y = tb.fmul(x, 2.0)
        assert x.node in tb.deps[y.node]

    def test_constants_have_no_producer(self):
        tb = make_tb()
        y = tb.fadd(1.0, 2.0)
        assert tb.deps[y.node] == ()

    def test_raw_memory_dependence(self):
        tb = make_tb()
        s = tb.store("out", 0, 1)
        v = tb.load("out", 0)
        assert s in tb.deps[v.node]
        assert v.value == 1

    def test_waw_memory_dependence(self):
        tb = make_tb()
        s1 = tb.store("out", 0, 1)
        s2 = tb.store("out", 0, 2)
        assert s1 in tb.deps[s2]

    def test_different_addresses_independent(self):
        tb = make_tb()
        tb.store("out", 0, 1)
        v = tb.load("out", 1)
        assert tb.deps[v.node] == ()

    def test_load_before_any_store_is_root(self):
        tb = make_tb()
        v = tb.load("a", 0)
        assert tb.deps[v.node] == ()


class TestIterations:
    def test_serial_by_default(self):
        tb = make_tb()
        v = tb.load("a", 0)
        assert tb.node_iter[v.node] == -1

    def test_iteration_scope(self):
        tb = make_tb()
        with tb.iteration(3):
            v = tb.load("a", 0)
        assert tb.node_iter[v.node] == 3
        after = tb.load("a", 1)
        assert tb.node_iter[after.node] == -1

    def test_nested_scopes_restore(self):
        tb = make_tb()
        with tb.iteration(1):
            with tb.iteration(2):
                inner = tb.load("a", 0)
            outer = tb.load("a", 1)
        assert tb.node_iter[inner.node] == 2
        assert tb.node_iter[outer.node] == 1

    def test_negative_iteration_rejected(self):
        tb = make_tb()
        with pytest.raises(TraceError):
            with tb.iteration(-1):
                pass

    def test_num_iterations(self):
        tb = make_tb()
        for i in (0, 5, 2):
            with tb.iteration(i):
                tb.load("a", 0)
        assert tb.num_iterations() == 6


class TestSummary:
    def test_histogram(self):
        tb = make_tb()
        tb.load("a", 0)
        tb.load("a", 1)
        tb.fadd(1.0, 2.0)
        hist = tb.op_histogram()
        assert hist[Op.LOAD] == 2
        assert hist[Op.FADD] == 1

    def test_first_use_order(self):
        tb = TraceBuilder()
        tb.array("late", 4, 4, kind="input", init=[0] * 4)
        tb.array("early", 4, 4, kind="input", init=[0] * 4)
        tb.array("never", 4, 4, kind="input", init=[0] * 4)
        tb.load("early", 0)
        tb.load("late", 0)
        assert tb.first_use_order() == ["early", "late", "never"]
