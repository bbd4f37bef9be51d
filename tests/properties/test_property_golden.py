"""Golden-snapshot determinism: the optimized hot paths change nothing.

The hot-path overhaul (flat scheduler arrays, fused scratchpad issue,
completion batching, memoized construction tables) is required to be a
pure performance change: every simulation statistic must be *bit
identical* to the unoptimized simulator.  ``golden_runs.json`` was
captured before the overhaul; these tests re-run all nine
(workload x design) pairs and compare canonical JSON bytes.  The
``PINNED`` designs (bank-conflict-heavy DMA points, ``off`` and modulo
pipelining, a 1-port cache modulo point) were captured before the
resource-bucketed issue pass: they hold its arithmetic conflict
counters to the per-node scan's.  The 4-port spmv-crs cache point with
pipelining off was captured while every MSHR-blocked access was still
probed on every pass; its ``tlb_miss_rate`` pins ``tlb.hits``, and so
each of the 3.1 M refusals now counted without a probe.

A legitimate modeling change that moves numbers must regenerate the
goldens (``PYTHONPATH=src python -m tests.properties._golden``) and say
why in the commit.
"""

import pytest

from tests.properties._golden import (
    DESIGNS,
    PINNED,
    WORKLOADS,
    canonical,
    load_golden,
    run_design,
    snapshot,
)

GOLDEN = load_golden()


@pytest.mark.parametrize("design_key", sorted(DESIGNS))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_matches_golden_bytes(workload, design_key):
    key = f"{workload}/{design_key}"
    assert key in GOLDEN, f"missing golden entry {key}; regenerate goldens"
    result = run_design(workload, DESIGNS[design_key])
    current = canonical(snapshot(result))
    golden = canonical(GOLDEN[key])
    assert current == golden, (
        f"{key}: simulation stats diverged from the golden snapshot — "
        f"an optimization changed observable behavior"
    )


@pytest.mark.parametrize("key", sorted(PINNED))
def test_pinned_run_matches_golden_bytes(key):
    assert key in GOLDEN, f"missing golden entry {key}; regenerate goldens"
    workload, design = PINNED[key]
    current = canonical(snapshot(run_design(workload, design)))
    assert current == canonical(GOLDEN[key]), (
        f"{key}: conflict counters or schedule diverged from the golden "
        f"snapshot")


def test_golden_file_is_canonical():
    """The committed file itself is in canonical form (regenerated via
    the _golden module, not hand-edited)."""
    with open(__file__.replace("test_property_golden.py",
                               "golden_runs.json"), "rb") as fh:
        raw = fh.read()
    assert raw == canonical(GOLDEN) + b"\n"


def test_repeated_runs_are_deterministic():
    """Two in-process runs of the same pair are byte-identical (no state
    leaks through the memoized construction tables)."""
    design = DESIGNS["dma-default"]
    first = canonical(snapshot(run_design("fft-transpose", design)))
    second = canonical(snapshot(run_design("fft-transpose", design)))
    assert first == second
