"""Closed-form model of the DMA offload (the validation reference).

gem5-Aladdin's validation (Section III-F) decomposes the offload into the
pieces it measured on the Zynq Zedboard: cache flush/invalidate time, DMA
transfer time, and accelerator compute time.  This module predicts each
phase analytically from first principles:

* flush / invalidate: measured per-line constants (84 / 71 ns);
* DMA: per-transaction setup (40 accelerator cycles) plus bus-bandwidth-
  limited streaming, with per-burst arbitration beats;
* compute: the standalone Aladdin schedule (isolated run) of the same
  datapath configuration.

:mod:`repro.core.validation` compares these predictions against the
detailed event-driven co-simulation — our stand-in for the paper's
model-vs-hardware comparison (DESIGN.md substitution #2).
"""

import math

from repro.aladdin.accelerator import Accelerator
from repro.core.config import SoCConfig
from repro.sim.clock import ClockDomain
from repro.units import ns_to_ticks
from repro.workloads import cached_trace

INPUT_KINDS = ("input", "inout")
OUTPUT_KINDS = ("output", "inout")


class AnalyticPhases:
    """Predicted per-phase durations in ticks.

    ``blocks`` is the number of pipelined-DMA blocks the input region
    splits into (1 for baseline DMA); it is an instance attribute so two
    predictions never share state through the class.
    """

    def __init__(self, flush, invalidate, dma_in, compute, dma_out, driver,
                 blocks=1):
        self.flush = flush
        self.invalidate = invalidate
        self.dma_in = dma_in
        self.compute = compute
        self.dma_out = dma_out
        self.driver = driver
        self._blocks = max(1, blocks)

    @property
    def blocks(self):
        return self._blocks

    @property
    def total_baseline(self):
        """Serial composition: the baseline DMA flow."""
        return (self.flush + self.invalidate + self.driver + self.dma_in
                + self.compute + self.dma_out)

    def total_pipelined(self):
        """Pipelined DMA: flush of block b+1 hides behind DMA of block b,
        so the data-in phase is bounded by the slower stream plus one
        exposed leading flush block (``ceil(flush / blocks)``)."""
        lead = -(-self.flush // self._blocks)
        overlap = max(self.flush, self.dma_in)
        return (lead + overlap + self.invalidate + self.compute
                + self.dma_out)


def _region_lines(trace, kinds, line_size):
    lines = 0
    for decl in trace.arrays.values():
        if decl.kind in kinds:
            lines += math.ceil(decl.size_bytes / line_size)
    return lines


def _region_bytes(trace, kinds):
    return sum(d.size_bytes for d in trace.arrays.values()
               if d.kind in kinds)


def dma_transfer_ticks(bytes_, cfg, transactions=1):
    """Setup + streaming time for moving ``bytes_`` over the system bus."""
    clock = ClockDomain(cfg.accel_clock_mhz)
    width = cfg.bus_width_bits // 8
    beats = math.ceil(bytes_ / width)
    bursts = math.ceil(bytes_ / cfg.dma_burst_bytes)
    setup = transactions * cfg.dma_setup_cycles
    return clock.cycles_to_ticks(setup + beats + bursts)  # 1 arb beat/burst


def phase_terms(workload, design, cfg=None):
    """The static phases of one DMA design point: every phase but compute.

    Flush, invalidate, DMA and driver time follow from the trace's array
    sizes and the platform alone; ``compute`` is left at 0 for the caller
    to fill (an isolated run, or the fast tier's tabulated schedule).
    """
    cfg = cfg or SoCConfig()
    trace = cached_trace(workload)
    flush_lines = _region_lines(trace, INPUT_KINDS, cfg.cpu_cache_line)
    inval_lines = _region_lines(trace, OUTPUT_KINDS, cfg.cpu_cache_line)
    in_bytes = _region_bytes(trace, INPUT_KINDS)
    out_bytes = _region_bytes(trace, OUTPUT_KINDS)
    if design.pipelined_dma:
        txns = max(1, math.ceil(in_bytes / cfg.dma_block_bytes))
    else:
        txns = 1
    return AnalyticPhases(
        flush=ns_to_ticks(flush_lines * cfg.flush_ns_per_line),
        invalidate=ns_to_ticks(inval_lines * cfg.invalidate_ns_per_line),
        dma_in=dma_transfer_ticks(in_bytes, cfg, transactions=txns),
        compute=0,
        dma_out=dma_transfer_ticks(out_bytes, cfg, transactions=1),
        driver=ns_to_ticks(cfg.ioctl_ns + cfg.poll_interval_ns),
        blocks=txns,
    )


def predict_phases(workload, design, cfg=None):
    """Analytic phase model for one DMA design point."""
    phases = phase_terms(workload, design, cfg)
    accel = Accelerator(cached_trace(workload), design.lanes,
                        design.partitions, design.spad_ports,
                        pipelining=design.pipelining, ii=design.ii)
    phases.compute = accel.run_isolated().ticks
    return phases


def predict_total(workload, design, cfg=None):
    """End-to-end predicted offload time in ticks."""
    phases = predict_phases(workload, design, cfg)
    if design.pipelined_dma:
        return phases.total_pipelined()
    return phases.total_baseline
