"""Wide cache designs, pinned by digest.

The golden runs (``golden_runs.json``) hold no cache design wider than
4 lanes and none with internal arrays, so they never reach the parts of
the cache walk that matter most on wide designs: lanes that find every
cache port taken, lanes that must still reach their scratchpad nodes
past a taken port, and a 4-port cache refusing accesses for full MSHRs.
Each point below is pinned by the SHA-256 of its canonical snapshot
(:func:`tests.properties._golden.snapshot`), captured before the cache
path's per-lane and per-access cuts; every number a run produces must
still match it byte for byte.
"""

import hashlib

import pytest

from repro.core.config import DesignPoint
from repro.core.soc import run_design
from tests.properties._golden import canonical, snapshot

#: (workload, cache KB, cache ports) -> snapshot digest.  Every point
#: has 16 lanes, 4 partitions and a 4-way cache; nw-nw keeps internal
#: arrays in scratchpads.
PINS = {
    ("stencil-stencil3d", 4, 1):
        "3de4edc821ed307633476246cf8c00e36ec0aa37b81bb8d4ee5f0e4a28d55f63",
    ("gemm-ncubed", 16, 1):
        "4f1c6930ec687a76b7c7d6a7350a2deb474694852ecbb98309fac23445ba8650",
    ("nw-nw", 4, 1):
        "ac97ccee92cbe2a7fcbb937d79d9a507e6a150317ae633964afb49bf58dc4452",
    ("spmv-crs", 4, 4):
        "01ba35a06a0563e853a7b313fb85537846cdcdb4963731dec0cb619f561e363f",
}


@pytest.mark.parametrize("workload,size_kb,ports", sorted(PINS), ids=str)
def test_wide_cache_design_matches_pin(workload, size_kb, ports):
    design = DesignPoint(lanes=16, partitions=4, mem_interface="cache",
                         cache_size_kb=size_kb, cache_ports=ports,
                         cache_assoc=4)
    digest = hashlib.sha256(
        canonical(snapshot(run_design(workload, design)))).hexdigest()
    assert digest == PINS[(workload, size_kb, ports)]
