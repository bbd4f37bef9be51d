"""Property: parallel + memoized sweeps are bit-identical to serial ones.

The acceptance bar for the sweep engine: for the ``quick`` density grid on
two workloads, ``run_sweep(..., parallel=N, cache_dir=...)`` must return
``RunResult``s whose full serialized form (every timing tick, energy pJ,
breakdown fraction, and stat counter) matches the serial path byte for
byte — first on a cold cache (results computed in worker processes), then
on a warm one (results loaded from disk, zero points evaluated).  The
memoized keys behind the store must equal freshly computed ones.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import DesignPoint, SoCConfig
from repro.core.export import results_to_json
from repro.core.sweep import cache_design_space, dma_design_space, run_sweep
from repro.core.sweeppool import (
    SweepMetrics,
    key_payload,
    keyed_payloads,
    sweep_key,
)

WORKLOADS = ("aes-aes", "nw-nw")


def quick_grid():
    """A cross-interface slice of the quick grid (DMA plus cache points)."""
    return dma_design_space("quick") + cache_design_space("quick")[:3]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_parallel_cached_sweep_bit_identical_to_serial(workload, tmp_path):
    designs = quick_grid()
    serial = run_sweep(workload, designs)
    serial_json = results_to_json(serial)

    # Cold cache: every point simulated in a worker process.
    cold = SweepMetrics()
    parallel = run_sweep(workload, designs, parallel=2,
                         cache_dir=str(tmp_path), metrics=cold)
    assert cold.evaluated == len(designs)
    assert results_to_json(parallel) == serial_json

    # Warm cache: every point deserialized from disk, nothing evaluated.
    warm = SweepMetrics()
    cached = run_sweep(workload, designs, parallel=2,
                       cache_dir=str(tmp_path), metrics=warm)
    assert warm.evaluated == 0
    assert warm.cache_hits == len(designs)
    assert results_to_json(cached) == serial_json


def test_serial_cached_and_parallel_uncached_agree(tmp_path):
    """The two engine features are independent: cache-only and pool-only
    paths both reproduce the serial results exactly."""
    workload = WORKLOADS[0]
    designs = dma_design_space("quick")
    serial_json = results_to_json(run_sweep(workload, designs))
    cache_only = run_sweep(workload, designs, cache_dir=str(tmp_path))
    pool_only = run_sweep(workload, designs, parallel=2)
    assert results_to_json(cache_only) == serial_json
    assert results_to_json(pool_only) == serial_json


#: Field values set after construction, past the constructor's checks:
#: integral floats (same key as the int), ints in boolean slots (a
#: different key than the bool they equal) and containers (never
#: memoized).
MUTATIONS = st.sampled_from([
    ("lanes", 4.0), ("lanes", 4), ("partitions", 2.0),
    ("cache_size_kb", 16.0), ("pipelined_dma", 1), ("pipelined_dma", 0),
    ("dma_triggered_compute", 1), ("double_buffer", 1),
    ("perfect_memory", 1), ("perfect_memory", True), ("ii", 2),
    ("prefetcher", ["stride"]), ("spad_ports", (True,)),
    ("spad_ports", (1,)),
])


@st.composite
def design_points(draw):
    design = DesignPoint(
        lanes=draw(st.sampled_from([1, 4])),
        partitions=draw(st.sampled_from([1, 2])),
        mem_interface=draw(st.sampled_from(["dma", "cache"])),
        pipelined_dma=draw(st.booleans()),
        double_buffer=draw(st.booleans()),
        perfect_memory=draw(st.booleans()))
    for name, value in draw(st.lists(MUTATIONS, max_size=2)):
        setattr(design, name, value)
    return design


CONFIGS = st.sampled_from([None, SoCConfig(), SoCConfig(bus_width_bits=64),
                           SoCConfig(mshrs=16.0)])


def fresh(workload, designs, cfg):
    return [(sweep_key(workload, d, cfg), key_payload(workload, d, cfg))
            for d in designs]


@settings(max_examples=80, deadline=None)
@given(st.lists(design_points(), min_size=1, max_size=8),
       st.sampled_from(["aes-aes", "nw-nw"]), CONFIGS,
       st.lists(st.tuples(st.integers(0, 7), MUTATIONS), max_size=3))
def test_keyed_payloads_match_fresh_keys(designs, workload, cfg, later):
    """The key memo answers exactly what a fresh key and payload would,
    on repeats and after fields change under it."""
    designs = designs + designs[::-1]
    expected = fresh(workload, designs, cfg)
    assert keyed_payloads(workload, designs, cfg) == expected
    assert keyed_payloads(workload, designs, cfg) == expected
    for index, (name, value) in later:
        setattr(designs[index % len(designs)], name, value)
    assert keyed_payloads(workload, designs, cfg) == fresh(
        workload, designs, cfg)


def test_key_memo_separates_what_canonicalizes_apart():
    base = DesignPoint(lanes=4)
    floats = DesignPoint(lanes=4)
    floats.lanes = 4.0
    ints = DesignPoint()
    ints.pipelined_dma = 1
    (k_base, _), (k_floats, _), (k_ints, _) = keyed_payloads(
        "aes-aes", [base, floats, ints])
    assert k_floats == k_base  # 4 and 4.0 simulate the same point
    assert k_ints != k_base    # True and 1 serialize apart
    assert k_ints == sweep_key("aes-aes", ints)
    # Containers hide the same pair where no type check sees it.
    ones, trues = DesignPoint(), DesignPoint()
    ones.spad_ports, trues.spad_ports = (1,), (True,)
    assert keyed_payloads("aes-aes", [ones, trues]) == fresh(
        "aes-aes", [ones, trues], None)
