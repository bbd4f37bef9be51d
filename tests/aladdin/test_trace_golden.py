"""Trace capture is pinned: byte-identical traces, unchanged semantics.

``trace_golden.json`` holds one digest per builtin workload and one for a
frontend kernel (see ``_trace_golden.py``); every trace must rebuild to
the same bytes.  The semantics table is checked against the per-opcode
``if`` chain it replaced, kept here verbatim as the oracle, through both
``TraceBuilder.op`` and the sugar methods.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.aladdin.ir import Op
from repro.aladdin.trace import SEMANTICS, TraceBuilder, Value
from repro.errors import TraceError
from repro.workloads.registry import get_workload
from tests.aladdin._trace_golden import (
    FRONTEND_KERNEL,
    load_golden,
    trace_digest,
)

GOLDEN = load_golden()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trace_matches_golden_digest(name):
    if name == FRONTEND_KERNEL.name:
        tb = FRONTEND_KERNEL.build()
    else:
        tb = get_workload(name).build()
    assert trace_digest(tb) == GOLDEN[name], (
        f"{name}: the captured trace changed; trace capture must stay "
        f"byte-identical (regenerate only for a kernel change)")


def _oracle(opcode, vals):
    """The trace builder's original functional semantics."""
    if opcode == Op.ADD:
        return vals[0] + vals[1]
    if opcode == Op.SUB:
        return vals[0] - vals[1]
    if opcode == Op.MUL:
        return vals[0] * vals[1]
    if opcode == Op.DIV:
        return vals[0] // vals[1] if vals[1] else 0
    if opcode == Op.AND:
        return int(vals[0]) & int(vals[1])
    if opcode == Op.OR:
        return int(vals[0]) | int(vals[1])
    if opcode == Op.XOR:
        return int(vals[0]) ^ int(vals[1])
    if opcode == Op.SHL:
        return int(vals[0]) << int(vals[1])
    if opcode == Op.SHR:
        return int(vals[0]) >> int(vals[1])
    if opcode == Op.ICMP:
        return 1 if vals[0] > vals[1] else 0
    if opcode == Op.SELECT:
        return vals[1] if vals[0] else vals[2]
    if opcode == Op.FADD:
        return float(vals[0]) + float(vals[1])
    if opcode == Op.FSUB:
        return float(vals[0]) - float(vals[1])
    if opcode == Op.FMUL:
        return float(vals[0]) * float(vals[1])
    if opcode == Op.FDIV:
        return float(vals[0]) / float(vals[1]) if vals[1] else 0.0
    if opcode == Op.FSQRT:
        return math.sqrt(abs(float(vals[0])))
    if opcode == Op.FCMP:
        return 1 if float(vals[0]) > float(vals[1]) else 0
    raise TraceError(f"no semantics for opcode {opcode!r}")


ARITY = {Op.SELECT: 3, Op.FSQRT: 1}

#: The sugar method of every opcode that has one (DIV has none).
SUGAR = {
    Op.ADD: "add", Op.SUB: "sub", Op.MUL: "mul", Op.XOR: "xor",
    Op.AND: "band", Op.OR: "bor", Op.SHL: "shl", Op.SHR: "shr",
    Op.ICMP: "icmp", Op.SELECT: "select", Op.FADD: "fadd",
    Op.FSUB: "fsub", Op.FMUL: "fmul", Op.FDIV: "fdiv",
    Op.FSQRT: "fsqrt", Op.FCMP: "fcmp",
}

# Magnitudes stay small enough that a shift by an operand is cheap; the
# zeros (divisors), bools and non-finite floats are drawn on purpose.
numbers = st.one_of(
    st.integers(-(1 << 20), 1 << 20),
    st.sampled_from([0, 1, -1, 0.0, -0.0, True, False]),
    st.floats(-1e6, 1e6),
    st.sampled_from([math.inf, -math.inf, math.nan]),
)


def _outcome(fn, *args):
    """``("ok", type, value)`` of a result, or ``("raise", type)``; a
    float's value is its hex form, so NaN and -0.0 compare exactly."""
    try:
        result = fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return ("raise", type(exc))
    if isinstance(result, Value):
        result = result.value
    if isinstance(result, float):
        return ("ok", float, result.hex())
    return ("ok", type(result), result)


def test_table_covers_the_oracle():
    assert set(SEMANTICS) == set(SUGAR) | {Op.DIV}
    for opcode, (arity, _fn) in SEMANTICS.items():
        assert arity == ARITY.get(opcode, 2), opcode


@given(st.sampled_from(sorted(SEMANTICS)), st.lists(numbers, min_size=3,
                                                     max_size=3))
@settings(max_examples=600, deadline=None)
def test_semantics_match_the_oracle(opcode, operands):
    vals = operands[:SEMANTICS[opcode][0]]
    want = _outcome(_oracle, opcode, list(vals))
    assert _outcome(SEMANTICS[opcode][1], *vals) == want
    tb = TraceBuilder()
    calls = [(tb.op, (opcode, *vals)),
             # Values carry their concrete numbers through unchanged.
             (tb.op, (opcode, *(Value(None, v) for v in vals)))]
    if opcode in SUGAR:
        calls.append((getattr(tb, SUGAR[opcode]), vals))
    for fn, args in calls:
        assert _outcome(fn, *args) == want
    # A node exists exactly for each op that computed a result.
    assert tb.num_nodes == (len(calls) if want[0] == "ok" else 0)
    assert all(deps == () for deps in tb.deps)
