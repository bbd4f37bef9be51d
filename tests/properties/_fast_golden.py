"""Golden fast-tier predictions for the calibrated analytic model.

``golden_fast.json`` pins ``(total_ticks, energy_pj, area_mm2)`` of
every prediction an aes-aes calibration at ``quick`` density makes on
its own grid (the four DMA transfer-optimisation classes plus the cache
space).  ``tests/core/test_calibrate.py`` asserts exact equality, so a
refactor of the fast tier that moves any tabulated prediction fails.

Regenerate (only when a fast-model change legitimately moves the numbers):

    PYTHONPATH=src python -m tests.properties._fast_golden
"""

import json
import os

from repro.core.calibrate import calibrate_workload
from repro.core.sweep import cache_design_space, dma_design_space

GOLDEN_FAST_PATH = os.path.join(os.path.dirname(__file__),
                                "golden_fast.json")

WORKLOAD = "aes-aes"


def quick_grid():
    """The quick DMA (all four classes) + cache grid, in a fixed order."""
    grid = [d
            for pipelined in (False, True)
            for triggered in (False, True)
            for d in dma_design_space("quick", pipelined=pipelined,
                                      triggered=triggered)]
    return grid + cache_design_space("quick")


def prediction_record(result):
    """The fast tier's externally visible numbers for one design."""
    return [result.total_ticks, result.energy_pj, result.area_mm2]


def capture(cal=None):
    """``{repr(design.key()): record}`` over the quick grid."""
    grid = quick_grid()
    if cal is None:
        cal = calibrate_workload(WORKLOAD, density="quick", designs=grid,
                                 save=False)
    out = {}
    for design in grid:
        result = cal.predict(design)
        out[repr(design.key())] = (None if result is None
                                   else prediction_record(result))
    return out


def load_golden_fast():
    with open(GOLDEN_FAST_PATH) as fh:
        return json.load(fh)


def main():
    runs = capture()
    with open(GOLDEN_FAST_PATH, "w") as fh:
        json.dump(runs, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print(f"wrote {len(runs)} fast predictions to {GOLDEN_FAST_PATH}")


if __name__ == "__main__":
    main()
