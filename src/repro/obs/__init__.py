"""Observability: statistics registry, debug tracing, timeline export.

gem5 owes much of its usability to three instruments: a hierarchical
statistics framework (``stats.txt``), ``DPRINTF`` debug flags, and event
traces that can be replayed visually.  This package reproduces all three
for the reproduction's SoC:

* :mod:`repro.obs.stats` — ``Scalar`` / ``Vector`` / ``Formula`` /
  ``Distribution`` statistics registered under dotted hierarchical names
  (``soc.dram.row_hits``, ``accel0.tlb.miss_rate``), dumped as
  gem5-style text or structured JSON, resettable per region of interest.
* :mod:`repro.obs.trace` — ``dprintf``-style tracing behind named debug
  flags (``bus``, ``dram``, ``tlb``, ``dma``, ``sched``, ...).  Disabled
  flags cost one ``is None`` check at each instrumented site — the same
  zero-detached-overhead discipline as the event profiler.
* :mod:`repro.obs.timeline` — converts recorded busy intervals and trace
  events into Chrome ``trace_event`` JSON loadable in Perfetto or
  ``chrome://tracing`` (one row per engine: CPU, DMA, bus, per-bank
  DRAM, accelerator datapath).

CLI entry points: the ``repro run <workload>`` observers ``--stats
[PATH|-]`` and ``--timeline out.json``, ``repro run --debug-flags
bus,dram`` and the ``REPRO_DEBUG_FLAGS`` environment variable.
"""

from repro.obs.stats import (
    Distribution,
    Formula,
    Scalar,
    StatRegistry,
    Vector,
)
from repro.obs.timeline import TimelineBuilder, soc_timeline
from repro.obs.trace import dprintf, set_flags, tracer

__all__ = [
    "Distribution",
    "Formula",
    "Scalar",
    "StatRegistry",
    "TimelineBuilder",
    "Vector",
    "dprintf",
    "set_flags",
    "soc_timeline",
    "tracer",
]
