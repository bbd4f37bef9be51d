"""Schedule digests: every number of a wide grid of runs, pinned.

A *schedule digest* is the SHA-256 of a run's canonical snapshot (the
fields of the golden-snapshot suite and of the benchmark's result gate:
ticks, cycles, breakdown, energy, power, EDP, area and every stat).  The
grid is wider than ``golden_runs.json``: the core-8 kernels on 2 lanes
and 2 partitions under every DMA flavour and pipelining mode and on
1- and 4-port caches, a DMA and a cache handoff pipeline, and
``Accelerator.run_isolated`` in all three pipelining modes.  The points
that take seconds each (fft-transpose cache modulo, 4-port spmv-crs
modulo, stencil2d ``off``) are left out.

``schedule_golden.json`` was captured before the datapath ran its cycles
inline; ``test_schedule_golden.py`` re-runs the grid and compares.
Regenerate (only when a *modelling* change legitimately moves a
schedule):

    PYTHONPATH=src python -m tests.aladdin._schedule_golden
"""

import hashlib
import json
import os

from repro.aladdin.accelerator import Accelerator
from repro.core.config import DesignPoint
from repro.core.pipeline import AcceleratorPipeline
from repro.core.soc import run_design
from repro.workloads import cached_trace
from repro.workloads.registry import CORE_EIGHT

from tests.properties._golden import canonical, snapshot

GOLDEN_PATH = os.path.join(os.path.dirname(__file__),
                           "schedule_golden.json")

_SMALL = {"lanes": 2, "partitions": 2}
_CACHE = dict(_SMALL, mem_interface="cache", cache_size_kb=4)

DESIGNS = {
    "dma-triggered": DesignPoint(**_SMALL),
    "dma-bulk": DesignPoint(dma_triggered_compute=False, **_SMALL),
    "dma-off": DesignPoint(pipelining="off", **_SMALL),
    "dma-modulo-ii2": DesignPoint(pipelining="modulo", ii=2, **_SMALL),
    "dma-modulo-auto": DesignPoint(pipelining="modulo", **_SMALL),
    "cache-1p": DesignPoint(cache_ports=1, **_CACHE),
    "cache-4p": DesignPoint(cache_ports=4, **_CACHE),
    "cache-1p-modulo": DesignPoint(cache_ports=1, pipelining="modulo",
                                   **_CACHE),
    "cache-4p-modulo": DesignPoint(cache_ports=4, pipelining="modulo",
                                   **_CACHE),
}

#: (workload, design) pairs that take seconds each.
SKIPPED = {
    ("fft-transpose", "cache-1p-modulo"),
    ("fft-transpose", "cache-4p-modulo"),
    ("spmv-crs", "cache-4p-modulo"),
    ("stencil-stencil2d", "dma-off"),
}

PIPELINES = {
    "pipeline-dma": (["aes-aes", "kmp"], "dma"),
    "pipeline-cache": (["aes-aes", "kmp"], "cache"),
}

ISOLATED = ("barriers", "off", "modulo")


def digest(obj):
    return hashlib.sha256(canonical(obj)).hexdigest()


def keys():
    """Every key of the grid, in capture order."""
    out = [f"{w}/{d}" for d in DESIGNS for w in CORE_EIGHT
           if (w, d) not in SKIPPED]
    out += sorted(PIPELINES)
    out += [f"{w}/isolated-{mode}" for mode in ISOLATED for w in CORE_EIGHT]
    return out


def _isolated_snapshot(result):
    sched = result.scheduler
    return {
        "cycles": result.cycles,
        "ticks": result.ticks,
        "energy_pj": result.energy_pj,
        "power_mw": result.power_mw,
        "edp": result.edp,
        "area_mm2": result.area_mm2,
        "spad": [result.spad.accesses, result.spad.conflicts,
                 sorted(result.spad.access_by_array.items())],
        "sched": [sched.reservation_conflicts, sched.busy.total_busy(),
                  sched.issued_loads, sched.issued_stores, sched.ii],
    }


def run(key):
    """The snapshot of one grid point."""
    if key in PIPELINES:
        stages, handoff = PIPELINES[key]
        result = AcceleratorPipeline(stages, handoff=handoff,
                                     buffer_bytes=512).run()
        return {"makespan_ticks": result.makespan_ticks,
                "stages": [snapshot(r) for r in result.stage_results],
                "links": result.links}
    workload, name = key.split("/")
    if name.startswith("isolated-"):
        mode = name[len("isolated-"):]
        accel = Accelerator(cached_trace(workload), 2, 2, pipelining=mode)
        return _isolated_snapshot(accel.run_isolated())
    return snapshot(run_design(workload, DESIGNS[name]))


def capture():
    return {key: digest(run(key)) for key in keys()}


def load_golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def main():
    digests = capture()
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} schedule digests to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
