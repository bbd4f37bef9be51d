"""Property-based tests for modulo-scheduled loop pipelining.

The load-bearing equivalence: with deterministic scratchpad timing and
uniform rounds, forcing the initiation interval to one round's length
must reproduce barrier mode *bit-identically* — the II gate then opens
each round exactly when the barrier would have.  Random uniform kernels
(random op chains, optional loop-carried accumulator, random lane
counts) probe that equivalence, plus the bounds
``dependence height <= modulo(auto) <= barriers`` and the RecMII
dependence bound.
"""

from hypothesis import assume, example, given, settings, strategies as st

from repro.aladdin.accelerator import Accelerator
from repro.aladdin.trace import TraceBuilder
from repro.aladdin.transforms import assign_lanes

# Op-chain steps: (method name, latency is irrelevant here — variety is
# the point).  All take (value, constant).
OPS = ("fadd", "fmul", "add", "mul")

ops_chains = st.lists(st.sampled_from(OPS), min_size=1, max_size=4)
lanes_st = st.sampled_from((1, 2, 4))
iters_st = st.integers(min_value=2, max_value=12)


def build_kernel(num_iters, chain, carried):
    """A uniform per-iteration kernel: load -> op chain -> store, with an
    optional loop-carried accumulator threaded through the first op."""
    tb = TraceBuilder("prop")
    tb.array("a", num_iters, 4, kind="input",
             init=[float(i) for i in range(num_iters)])
    tb.array("out", num_iters, 4, kind="output")
    acc = None
    for i in range(num_iters):
        with tb.iteration(i):
            x = tb.load("a", i)
            if carried and acc is not None:
                x = tb.fadd(acc, x)
            for op in chain:
                x = getattr(tb, op)(x, 2.0)
            if carried:
                acc = x
            tb.store("out", i, x)
    return tb


@given(iters_st, lanes_st, ops_chains)
@settings(max_examples=40, deadline=None)
def test_ii_at_round_duration_is_bit_identical_to_barriers(
        num_iters, lanes, chain):
    # Restricted to carried=False: a loop-carried accumulator makes round
    # durations non-uniform (iteration 0 lacks the carried fadd), and the
    # II gate then legitimately opens some rounds *earlier* than their
    # barrier would — modulo gets faster, not identical.
    tb = build_kernel(num_iters, chain, carried=False)
    barrier = Accelerator(tb, lanes, 4).run_isolated()
    num_rounds = assign_lanes(tb, lanes).num_rounds
    assume(num_rounds > 1)
    assume(barrier.cycles % num_rounds == 0)  # uniform round duration
    round_cycles = barrier.cycles // num_rounds
    forced = Accelerator(tb, lanes, 4, pipelining="modulo",
                         ii=round_cycles).run_isolated()
    assert forced.ticks == barrier.ticks
    assert forced.scheduler.reservation_conflicts == \
        barrier.scheduler.reservation_conflicts == 0


@given(iters_st, lanes_st, ops_chains, st.booleans())
@example(7, 1, ["fadd", "fadd", "add", "add"], False)
@settings(max_examples=25, deadline=None)
def test_auto_ii_sandwiched_between_off_and_barriers(
        num_iters, lanes, chain, carried):
    """Modulo gating never loses to barriers: a fully completed round
    always releases its successor (the barrier fallback), so an
    overestimated II cannot throttle below barrier behavior.

    "off" is *not* a lower bound.  The datapath is a greedy list
    scheduler, and holding a node back can shorten the schedule (a list
    scheduling anomaly): the pinned example runs 23 cycles with "off",
    22 with modulo at II=2 and 70 with barriers.  What does hold is the
    dependence height, the latency-weighted critical path: no mode can
    finish a dependence chain faster than its latencies allow."""
    tb = build_kernel(num_iters, chain, carried)
    barrier = Accelerator(tb, lanes, 4).run_isolated()
    modulo_accel = Accelerator(tb, lanes, 4, pipelining="modulo")
    modulo = modulo_accel.run_isolated()
    off = Accelerator(tb, lanes, 4, pipelining="off").run_isolated()
    height = modulo_accel.ddg.critical_path()
    assert height <= modulo.cycles <= barrier.cycles
    assert height <= off.cycles


@given(iters_st, lanes_st, ops_chains)
@settings(max_examples=25, deadline=None)
def test_carried_chain_bounds_runtime_at_any_ii(num_iters, lanes, chain):
    """Even at II=1 the loop-carried accumulator serializes: runtime is
    at least the chain's dependence height, gates notwithstanding."""
    tb = build_kernel(num_iters, chain, carried=True)
    res = Accelerator(tb, lanes, 4, pipelining="modulo",
                      ii=1).run_isolated()
    # Each iteration after the first adds one fadd (latency 3) to the
    # carried chain.
    assert res.cycles >= (num_iters - 1) * 3
