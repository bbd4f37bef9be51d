"""Dynamic trace capture.

Aladdin instruments a program with an LLVM pass and records its dynamic
execution.  Our stand-in (documented in DESIGN.md) is a *trace-builder DSL*:
kernels are ordinary Python functions that perform their real computation
through :class:`TraceBuilder` calls, which simultaneously

* compute the functional result (so workloads are testable end to end), and
* append one trace node per dynamic operation, with true register
  dependences (SSA values) and memory dependences (store->load RAW and
  store->store WAW per word).

The captured trace is design-independent: lanes/partitions are applied
later by :mod:`repro.aladdin.transforms` and the scheduler, so one trace is
reused across an entire design sweep.
"""

import math
import operator

from repro.errors import TraceError
from repro.aladdin.ir import Op, OP_INFO


class Value:
    """An SSA value: the functional result plus its producing node."""

    __slots__ = ("node", "value")

    def __init__(self, node, value):
        self.node = node    # producing trace node id, or None for constants
        self.value = value  # concrete Python number

    def __repr__(self):
        return f"Value(node={self.node}, value={self.value!r})"


class ArrayDecl:
    """A kernel-local array: name, geometry, and role.

    ``kind`` is one of ``"input"`` (DMA'd / cached in), ``"output"``
    (DMA'd / cached out), ``"inout"`` (both — e.g. in-place sorts), or
    ``"internal"`` (private scratchpad data that never leaves the
    accelerator — Section IV-D keeps such data in scratchpads even for
    cache-based designs).
    """

    __slots__ = ("name", "length", "word_bytes", "kind", "data")

    def __init__(self, name, length, word_bytes, kind, data):
        self.name = name
        self.length = length
        self.word_bytes = word_bytes
        self.kind = kind
        self.data = data

    @property
    def size_bytes(self):
        return self.length * self.word_bytes


#: Functional semantics of each compute opcode: ``{opcode: (operand count,
#: fn)}``.  Loads and stores have none: :meth:`TraceBuilder.load` and
#: :meth:`TraceBuilder.store` give them theirs.
SEMANTICS = {
    Op.ADD: (2, operator.add),
    Op.SUB: (2, operator.sub),
    Op.MUL: (2, operator.mul),
    Op.DIV: (2, lambda a, b: a // b if b else 0),
    Op.AND: (2, lambda a, b: int(a) & int(b)),
    Op.OR: (2, lambda a, b: int(a) | int(b)),
    Op.XOR: (2, lambda a, b: int(a) ^ int(b)),
    Op.SHL: (2, lambda a, b: int(a) << int(b)),
    Op.SHR: (2, lambda a, b: int(a) >> int(b)),
    Op.ICMP: (2, lambda a, b: 1 if a > b else 0),
    Op.SELECT: (3, lambda cond, a, b: a if cond else b),
    Op.FADD: (2, lambda a, b: float(a) + float(b)),
    Op.FSUB: (2, lambda a, b: float(a) - float(b)),
    Op.FMUL: (2, lambda a, b: float(a) * float(b)),
    Op.FDIV: (2, lambda a, b: float(a) / float(b) if b else 0.0),
    Op.FSQRT: (1, lambda a: math.sqrt(abs(float(a)))),
    Op.FCMP: (2, lambda a, b: 1 if float(a) > float(b) else 0),
}


def _binary(opcode, doc):
    """A :class:`TraceBuilder` method emitting the two-operand ``opcode``:
    :meth:`TraceBuilder.op` unrolled for the kernels' commonest call."""
    fn = SEMANTICS[opcode][1]

    def binary_op(self, a, b):
        da = db = None
        if isinstance(a, Value):
            da = a.node
            a = a.value
        if isinstance(b, Value):
            db = b.node
            b = b.value
        result = fn(a, b)
        node = len(self.node_op)
        self.node_op.append(opcode)
        self.node_iter.append(self._cur_iter)
        self.node_array.append(None)
        self.node_index.append(0)
        if da is None:
            self.deps.append(() if db is None else (db,))
        else:
            self.deps.append((da,) if db is None else (da, db))
        return Value(node, result)

    binary_op.__doc__ = doc
    return binary_op


class TraceBuilder:
    """Builds the dynamic trace while executing the kernel functionally."""

    def __init__(self, name=""):
        self.name = name
        # Parallel node arrays (struct-of-arrays keeps big traces cheap).
        self.node_op = []
        self.node_iter = []        # parallel-loop iteration, -1 = serial code
        self.node_array = []       # array name for memory ops, else None
        self.node_index = []       # word index for memory ops, else 0
        self.deps = []             # list of tuples of predecessor node ids
        self.arrays = {}
        self._last_store = {}      # (array, index) -> node id
        self._cur_iter = -1
        self.max_iter = -1

    # -- arrays ---------------------------------------------------------------

    def array(self, name, length, word_bytes=4, kind="input", init=None):
        """Declare an array; ``init`` seeds its functional contents."""
        if name in self.arrays:
            raise TraceError(f"array {name!r} declared twice")
        if kind not in ("input", "output", "inout", "internal"):
            raise TraceError(f"bad array kind {kind!r}")
        data = list(init) if init is not None else [0] * length
        if len(data) != length:
            raise TraceError(
                f"array {name!r}: init has {len(data)} elements, expected {length}")
        decl = ArrayDecl(name, length, word_bytes, kind, data)
        self.arrays[name] = decl
        return decl

    # -- iteration markers ------------------------------------------------------

    def iteration(self, index):
        """Enter parallel-loop iteration ``index`` (the loop whose iterations
        map onto datapath lanes).  Returns a context manager."""
        return _IterationScope(self, index)

    # -- trace node construction --------------------------------------------------
    #
    # Every emitter appends the node arrays itself (the binary sugar is
    # ``op`` unrolled, see _binary).  The functional result, or the loaded
    # word, is computed first, so an op or access that raises leaves no
    # node behind.

    def load(self, array, index):
        """Load word ``index`` from ``array``; returns the SSA value."""
        decl = self.arrays.get(array)
        if decl is None or not 0 <= index < decl.length:
            raise self._access_error(array, index)
        value = decl.data[index]
        prev = self._last_store.get((array, index))
        node = len(self.node_op)
        self.node_op.append(Op.LOAD)
        self.node_iter.append(self._cur_iter)
        self.node_array.append(array)
        self.node_index.append(index)
        self.deps.append(() if prev is None else (prev,))
        return Value(node, value)

    def store(self, array, index, value):
        """Store ``value`` (a Value or constant) to ``array[index]``."""
        decl = self.arrays.get(array)
        if decl is None or not 0 <= index < decl.length:
            raise self._access_error(array, index)
        dep = None
        if isinstance(value, Value):
            dep = value.node
            value = value.value
        key = (array, index)
        prev = self._last_store.get(key)
        decl.data[index] = value
        node = len(self.node_op)
        self.node_op.append(Op.STORE)
        self.node_iter.append(self._cur_iter)
        self.node_array.append(array)
        self.node_index.append(index)
        if dep is None:
            self.deps.append(() if prev is None else (prev,))
        else:
            self.deps.append((dep,) if prev is None else (dep, prev))
        self._last_store[key] = node
        return node

    def _access_error(self, array, index):
        decl = self.arrays.get(array)
        if decl is None:
            return TraceError(f"access to undeclared array {array!r}")
        return TraceError(
            f"{array}[{index}] out of bounds (length {decl.length})")

    def op(self, opcode, *operands):
        """Emit a compute op; computes the functional result as well.

        Operands are Values or plain numbers (constants have no producer).
        """
        entry = SEMANTICS.get(opcode)
        if entry is None or len(operands) != entry[0]:
            raise _op_error(opcode, operands)
        deps = []
        values = []
        for operand in operands:
            if isinstance(operand, Value):
                if operand.node is not None:
                    deps.append(operand.node)
                values.append(operand.value)
            else:
                values.append(operand)
        result = entry[1](*values)
        node = len(self.node_op)
        self.node_op.append(opcode)
        self.node_iter.append(self._cur_iter)
        self.node_array.append(None)
        self.node_index.append(0)
        self.deps.append(tuple(deps))
        return Value(node, result)

    # Arithmetic sugar so kernels read naturally.

    add = _binary(Op.ADD, "Integer add.")
    sub = _binary(Op.SUB, "Integer subtract.")
    mul = _binary(Op.MUL, "Integer multiply.")
    xor = _binary(Op.XOR, "Bitwise xor.")
    band = _binary(Op.AND, "Bitwise and.")
    bor = _binary(Op.OR, "Bitwise or.")
    shl = _binary(Op.SHL, "Shift left.")
    shr = _binary(Op.SHR, "Shift right.")
    icmp = _binary(Op.ICMP, "Integer compare: 1 when a > b, else 0.")
    fadd = _binary(Op.FADD, "Floating-point add.")
    fsub = _binary(Op.FSUB, "Floating-point subtract.")
    fmul = _binary(Op.FMUL, "Floating-point multiply.")
    fdiv = _binary(Op.FDIV, "Floating-point divide.")
    fcmp = _binary(Op.FCMP, "Floating-point compare: 1 when a > b, else 0.")

    def select(self, cond, a, b):
        """Conditional select: a when cond is truthy, else b."""
        return self.op(Op.SELECT, cond, a, b)

    def fsqrt(self, a):
        """Floating-point square root of |a|."""
        return self.op(Op.FSQRT, a)

    # -- summary ------------------------------------------------------------------

    @property
    def num_nodes(self):
        return len(self.node_op)

    def op_histogram(self):
        """Dynamic op counts by opcode.

        Memoized per trace length: traces are effectively frozen once built
        (every run of the same workload shares one cached trace), so the
        33k-node scan runs once, not once per design point.  Callers get a
        fresh dict so they may mutate it freely.
        """
        cached = getattr(self, "_op_hist_memo", None)
        if cached is not None and cached[0] == len(self.node_op):
            return dict(cached[1])
        hist = {}
        for op in self.node_op:
            hist[op] = hist.get(op, 0) + 1
        self._op_hist_memo = (len(self.node_op), hist)
        return dict(hist)

    def num_iterations(self):
        """Number of parallel-loop iterations traced."""
        return self.max_iter + 1

    def first_use_order(self):
        """Arrays ordered by the trace position of their first access.

        The SoC issues DMA descriptors in this order, modeling a programmer
        who places ``dmaLoad`` calls in the order the kernel consumes the
        data — the natural way to make DMA-triggered compute effective.
        Arrays never accessed sort last, in declaration order.
        Memoized per trace length (see :meth:`op_histogram`).
        """
        cached = getattr(self, "_first_use_memo", None)
        if cached is not None and cached[0] == len(self.node_array):
            return list(cached[1])
        first = {}
        for node, array in enumerate(self.node_array):
            if array is not None and array not in first:
                first[array] = node
        names = list(self.arrays)
        order = sorted(names,
                       key=lambda n: (first.get(n, len(self.node_array)),
                                      names.index(n)))
        self._first_use_memo = (len(self.node_array), order)
        return list(order)


class _IterationScope:
    def __init__(self, builder, index):
        if index < 0:
            raise TraceError("iteration index must be non-negative")
        self.builder = builder
        self.index = index
        self._prev = None

    def __enter__(self):
        self._prev = self.builder._cur_iter
        self.builder._cur_iter = self.index
        self.builder.max_iter = max(self.builder.max_iter, self.index)
        return self

    def __exit__(self, exc_type, exc, tb):
        self.builder._cur_iter = self._prev
        return False


def _op_error(opcode, operands):
    """The TraceError for an op :meth:`TraceBuilder.op` cannot emit."""
    if opcode not in OP_INFO:
        return TraceError(f"unknown opcode {opcode!r}")
    if opcode not in SEMANTICS:
        return TraceError(f"no semantics for opcode {opcode!r}")
    arity = SEMANTICS[opcode][0]
    return TraceError(f"opcode {opcode!r} takes {arity} operand"
                      f"{'s' if arity != 1 else ''}, got {len(operands)}")
