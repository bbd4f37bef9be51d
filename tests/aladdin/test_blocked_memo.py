"""Counting MSHR-refused runs without probing them, against the probes.

The scheduler's cache walk remembers each lane's leading run of accesses
the cache refused for full MSHRs, and counts it again without a TLB or
cache call while no MSHR was released, no line installed and no TLB page
evicted.  ``_probe_reference`` is the walk that probes every one of them
on every pass.  Each example runs one random kernel on one random
small-MSHR cache design both ways; the full stats registries (events,
``cache.blocked`` and ``tlb.hits`` included) and the final TLB recency
order must be identical.
"""

import itertools

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.aladdin.trace import TraceBuilder
from repro.core.config import DesignPoint, SoCConfig
from repro.core.soc import SoC
from repro.obs import trace
from repro.obs.stats import StatRegistry
from repro.workloads.registry import (
    Workload,
    register_workload,
    unregister_workload,
)

from tests.aladdin import _probe_reference

OPS = ("add", "mul", "xor", "fadd", "fmul")
_names = itertools.count()


@st.composite
def kernels(draw):
    """A random kernel: per iteration, loads from random words of two
    input arrays (and an internal one, if any), a random op chain, one
    store.  The arrays span many cache lines and up to three pages."""
    internal = draw(st.booleans())
    words = 2 * draw(st.integers(32, 1536))
    iters = draw(st.integers(4, 40))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    sources = ("a", "b", "t") if internal else ("a", "b")
    body = [([(draw(st.sampled_from(sources)), draw(st.integers(0, words - 1)))
              for _ in range(draw(st.integers(1, 4)))],
             draw(st.lists(st.sampled_from(OPS), max_size=3)),
             draw(st.integers(0, words - 1)) if internal and draw(
                 st.booleans()) else None)
            for _ in range(iters)]

    def build():
        tb = TraceBuilder(f"memo{seed}")
        tb.array("a", words, 4, kind="input", init=[1] * words)
        tb.array("b", words // 2, 8, kind="input", init=[2] * (words // 2))
        if internal:
            tb.array("t", words, 4, kind="internal")
        tb.array("out", iters, 4, kind="output")
        for i, (loads, ops, spill) in enumerate(body):
            with tb.iteration(i):
                vals = [tb.load(array, index if array != "b" else index // 2)
                        for array, index in loads]
                acc = vals[0]
                for op in ops:
                    acc = getattr(tb, op)(acc, vals[-1])
                if spill is not None:
                    tb.store("t", spill, acc)
                tb.store("out", i, acc)
        return tb

    return build


@st.composite
def designs(draw):
    partitions = draw(st.integers(1, 4))
    return DesignPoint(
        lanes=draw(st.integers(1, 16)), partitions=partitions,
        mem_interface="cache", cache_size_kb=draw(st.sampled_from((2, 4))),
        cache_line=draw(st.sampled_from((32, 64))),
        cache_ports=draw(st.integers(1, 4)), cache_assoc=4,
        prefetcher=draw(st.sampled_from(("none", "stride"))),
        pipelining=draw(st.sampled_from(("off", "barriers", "modulo"))))


def run(workload, design, cfg, reference):
    """One offload: the full registry dump and the TLB's recency order."""
    soc = SoC(workload, design, cfg)
    if reference:
        _probe_reference.install(soc.scheduler)
    registry = StatRegistry()
    soc.reg_stats(registry)
    soc.run()
    return registry.to_json(), list(soc.tlb._tlb)


def both(build, design, cfg):
    name = f"blocked-memo-{next(_names)}"
    register_workload(Workload.from_builder(name, build,
                                            verify=lambda _trace: None))
    try:
        return (run(name, design, cfg, False), run(name, design, cfg, True))
    finally:
        unregister_workload(name)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(kernels(), designs(), st.integers(2, 4), st.integers(2, 8))
def test_counted_runs_match_probed_runs(build, design, mshrs, tlb_entries):
    cfg = SoCConfig(mshrs=mshrs, tlb_entries=tlb_entries)
    (stats, lru), (ref_stats, ref_lru) = both(build, design, cfg)
    assert stats == ref_stats
    assert lru == ref_lru


# Blocked-heavy points: 2 MSHRs and 4 lanes.
BLOCKED_DESIGN = DesignPoint(lanes=4, partitions=4, mem_interface="cache",
                             cache_size_kb=2, cache_ports=4, cache_assoc=4,
                             prefetcher="none", pipelining="off")
BLOCKED_CFG = SoCConfig(mshrs=2)


def test_blocked_runs_skip_the_cache():
    """Most refusals of a blocked-heavy point are counted, not probed."""
    soc = SoC("spmv-crs", BLOCKED_DESIGN, BLOCKED_CFG)
    cache = soc.accel_cache
    probes = []
    access = cache.access
    cache.access = lambda *args, **kw: probes.append(1) or access(*args,
                                                                **kw)
    soc.run()
    accepted = cache.hits + cache.misses + cache.merged
    assert cache.blocked > 10 * accepted
    assert len(probes) - accepted < cache.blocked // 10


def traced(reference):
    lines = []
    with trace.flags("cache,tlb", sink=lines.append):
        soc = SoC("backprop", BLOCKED_DESIGN, BLOCKED_CFG)
        if reference:
            _probe_reference.install(soc.scheduler)
        soc.run()
    return lines


def test_traced_run_text_is_identical():
    """One ``blocked`` line per counted refusal, in probe order."""
    lines = traced(False)
    assert sum("(MSHRs full)" in line for line in lines) > 10000
    assert lines == traced(True)
