"""The SoC's compute phase against the isolated datapath.

A DMA design without DMA-triggered compute starts its datapath once every
input word sits in the scratchpad, so its compute phase is the isolated
schedule of Fig. 4 (``Accelerator.run_isolated``), shifted by where the
start falls within an accelerator cycle: the DMA flow ends on a half
cycle, and the first issue pass waits for the next edge.  This ties the
isolated-scheduler path to the SoC path for every pipelining mode, with
bulk and pipelined DMA and both bus widths.
"""

import itertools

import pytest

from repro.aladdin.accelerator import Accelerator
from repro.core.config import DesignPoint, SoCConfig
from repro.core.soc import SoC
from repro.workloads import cached_trace

#: Ticks from the datapath's start to the accelerator edge of its first
#: issue pass: half of the 10 000-tick cycle at 100 MHz.
START_PHASE = 5000

KERNELS = ("aes-aes", "gemm-ncubed", "md-knn", "spmv-crs", "nw-nw", "kmp")
GRID = tuple(itertools.product((1, 4), (1, 4)))          # lanes, partitions
DMA_BUS = tuple(itertools.product((True, False), (32, 64)))


@pytest.mark.parametrize("mode", ("off", "barriers", "modulo"))
@pytest.mark.parametrize("kernel", KERNELS)
def test_soc_compute_phase_is_the_isolated_schedule(kernel, mode):
    """Each (lanes, partitions) point runs with its own pairing of DMA
    style and bus width, so every pairing is covered per kernel and
    mode."""
    trace = cached_trace(kernel)
    for (lanes, partitions), (pipelined, bus) in zip(GRID, DMA_BUS):
        soc = SoC(kernel, DesignPoint(lanes=lanes, partitions=partitions,
                                      pipelined_dma=pipelined,
                                      dma_triggered_compute=False,
                                      pipelining=mode),
                  cfg=SoCConfig(bus_width_bits=bus))
        soc.run()
        sched = soc.scheduler
        isolated = Accelerator(trace, lanes, partitions,
                               pipelining=mode).run_isolated()
        assert (sched.done_tick - sched.start_tick
                == isolated.ticks + START_PHASE), (
            lanes, partitions, pipelined, bus)
