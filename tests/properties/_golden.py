"""Golden-run snapshot machinery for the determinism property suite.

A *snapshot* is every number a simulation produces — total ticks, cycle
breakdown, energy, power, EDP, area, and the full ``RunResult.stats``
dict — serialized to canonical JSON.  The committed ``golden_runs.json``
was captured from the unoptimized (pre hot-path overhaul) simulator;
``test_property_golden.py`` asserts the optimized kernel / scheduler /
cache paths reproduce it byte-for-byte.

Regenerate (only when a *modeling* change legitimately moves the numbers):

    PYTHONPATH=src python -m tests.properties._golden
"""

import json
import os

from repro.core.config import DesignPoint
from repro.core.soc import run_design

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_runs.json")

WORKLOADS = ("gemm-ncubed", "stencil-stencil2d", "fft-transpose")

DESIGNS = {
    "dma-default": DesignPoint(lanes=4, partitions=4, mem_interface="dma"),
    "dma-bulk-8x2": DesignPoint(lanes=8, partitions=2, mem_interface="dma",
                                pipelined_dma=False,
                                dma_triggered_compute=False),
    "cache-4k-2p": DesignPoint(lanes=4, partitions=4, mem_interface="cache",
                               cache_size_kb=4, cache_ports=2,
                               cache_assoc=4, prefetcher="stride"),
}


#: High-conflict and pipelining-mode designs, keyed ``workload/name``.
#: The nine pairs above all run in barriers mode with few bank
#: conflicts; these pin the scheduler's conflict counters
#: (``spad.conflicts``, ``reservation_conflicts``) and issue order where
#: blocked ready nodes dominate the issue pass, and where accesses
#: refused for full MSHRs do (``spmv-crs/cache-4k-4p-off``).
PINNED = {
    "stencil-stencil2d/dma-16x1": (
        "stencil-stencil2d",
        DesignPoint(lanes=16, partitions=1, mem_interface="dma")),
    "stencil-stencil3d/dma-4x4-off": (
        "stencil-stencil3d",
        DesignPoint(lanes=4, partitions=4, mem_interface="dma",
                    pipelining="off")),
    "gemm-ncubed/dma-8x1": (
        "gemm-ncubed",
        DesignPoint(lanes=8, partitions=1, mem_interface="dma")),
    "md-knn/dma-4x4-modulo-ii8": (
        "md-knn",
        DesignPoint(lanes=4, partitions=4, mem_interface="dma",
                    pipelining="modulo", ii=8)),
    "spmv-crs/cache-16k-1p-modulo": (
        "spmv-crs",
        DesignPoint(lanes=4, partitions=4, mem_interface="cache",
                    cache_size_kb=16, cache_ports=1, cache_assoc=4,
                    pipelining="modulo")),
    "spmv-crs/cache-4k-4p-off": (
        "spmv-crs",
        DesignPoint(lanes=4, partitions=4, mem_interface="cache",
                    cache_size_kb=4, cache_ports=4, cache_assoc=4,
                    pipelining="off")),
}


def snapshot(result):
    """Every externally visible number of one run, JSON-serializable."""
    return {
        "total_ticks": result.total_ticks,
        "accel_cycles": result.accel_cycles,
        "breakdown": dict(result.breakdown),
        "energy_pj": result.energy_pj,
        "power_mw": result.power_mw,
        "edp": result.edp,
        "area_mm2": result.area_mm2,
        "stats": {k: v for k, v in sorted(result.stats.items())},
    }


def canonical(obj):
    """Canonical JSON bytes — byte-identical iff the numbers are."""
    return json.dumps(obj, sort_keys=True, indent=1).encode()


def capture_all():
    """Run every (workload, design) pair and snapshot it."""
    runs = {}
    for workload in WORKLOADS:
        for key, design in DESIGNS.items():
            result = run_design(workload, design)
            runs[f"{workload}/{key}"] = snapshot(result)
    for key, (workload, design) in PINNED.items():
        runs[key] = snapshot(run_design(workload, design))
    return runs


def load_golden():
    with open(GOLDEN_PATH, "rb") as fh:
        return json.load(fh)


def main():
    runs = capture_all()
    with open(GOLDEN_PATH, "wb") as fh:
        fh.write(canonical(runs))
        fh.write(b"\n")
    print(f"wrote {len(runs)} golden runs to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
