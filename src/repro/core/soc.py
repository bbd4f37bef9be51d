"""SoC composition and end-to-end offload flows.

Builds the system of Figure 3 and runs complete offloads:

**DMA flow** (Section II-B, with Section IV-B's optimizations):
CPU flushes the input regions from its caches (per line, writing dirty data
back to DRAM), invalidates the return region, programs the DMA engine, and
the accelerator computes out of scratchpads — starting after the full
transfer (baseline), or per 4 KB block behind the pipelined flush, or
immediately with full/empty-bit gating (DMA-triggered compute).  Results
stream back via DMA and the accelerator signals completion through a shared
flag the CPU spin-waits on.

**Cache flow** (Sections III-D/E): the CPU invokes the accelerator via
ioctl with no flushes at all; the accelerator's coherent cache pulls data on
demand — dirty input lines are forwarded cache-to-cache from the CPU's
cache under MOESI — with address translation through the accelerator TLB.
A fence orders the final stores before the completion signal.

All engines run in one event queue, so DMA bursts, cache fills, flush
writebacks, and background traffic genuinely contend on the bus and DRAM.

The platform (bus, DRAM, coherence domain, CPU cache) is factored into
:class:`Platform` so several accelerators can share it — Figure 3 draws
ACCEL0 and ACCEL1 on one bus; see :mod:`repro.core.multi`.
"""

from repro.aladdin.accelerator import make_scratchpad
from repro.aladdin.activity import measured
from repro.aladdin.area import AreaModel
from repro.aladdin.power import PowerModel
from repro.check import resolve_check
from repro.aladdin.modulo import plan_ii
from repro.aladdin.scheduler import (
    CacheInterface,
    DatapathScheduler,
    SpadInterface,
)
from repro.aladdin.transforms import assign_lanes
from repro.core.config import DesignPoint, SoCConfig
from repro.core.metrics import RunResult, classify_breakdown
from repro.cpu.driver import CPUDriver, DriverTimings
from repro.dma.descriptor import DMADescriptor
from repro.dma.engine import DMAEngine
from repro.errors import SimulationError
from repro.memory.bus import SystemBus
from repro.memory.cache import Cache
from repro.memory.coherence import CoherenceDomain
from repro.memory.dram import DRAM
from repro.memory.fullempty import ReadyBits
from repro.memory.tlb import AcceleratorTLB
from repro.memory.traffic import TrafficGenerator
from repro.sim.clock import ClockDomain
from repro.sim.kernel import Simulator
from repro.sim.ports import MemRequest
from repro.units import ns_to_ticks
from repro.workloads import cached_ddg, cached_trace

PHYS_BASE = 0x1000_0000
VIRT_BASE = 0x0010_0000
PAGE = 4096
SIGNAL_BASE = 0x0FFF_0000  # shared completion flags, one line per accel

INPUT_KINDS = ("input", "inout")
OUTPUT_KINDS = ("output", "inout")


def _page_align(n):
    return (n + PAGE - 1) // PAGE * PAGE


class Platform:
    """The shared half of the SoC: clocks, bus, DRAM, coherence, CPU cache.

    One platform can host several accelerators (each an :class:`SoC`
    instance built with ``platform=``); they contend on the same bus and
    DRAM banks, which is exactly the shared-resource scenario of
    Section IV-A.
    """

    def __init__(self, cfg=None, check=None):
        self.cfg = cfg or SoCConfig()
        self.sim = Simulator()
        self.accel_clock = ClockDomain(self.cfg.accel_clock_mhz)
        self.bus_clock = ClockDomain(self.cfg.accel_clock_mhz)
        self.cpu_clock = ClockDomain(self.cfg.cpu_clock_mhz)
        self.dram = DRAM(self.sim, banks=self.cfg.dram_banks,
                         row_bytes=self.cfg.dram_row_bytes,
                         row_hit_ns=self.cfg.dram_row_hit_ns,
                         row_miss_ns=self.cfg.dram_row_miss_ns)
        self.bus = SystemBus(self.sim, self.bus_clock,
                             self.cfg.bus_width_bits, downstream=self.dram)
        self.domain = CoherenceDomain(self.sim, self.bus)
        self.cpu_cache = Cache(self.sim, self.cpu_clock, "cpu-l2",
                               self.cfg.cpu_cache_kb * 1024,
                               self.cfg.cpu_cache_line,
                               assoc=8, mshrs=self.cfg.mshrs)
        self.domain.register(self.cpu_cache)
        self._next_offset = 0
        self._num_accels = 0
        self.socs = []  # every SoC built on this platform registers here
        # Streaming handoff buffers between pipeline stages
        # (repro.core.pipeline); the leak audit walks these too.
        self.handoff_links = []
        # Runtime correctness checking (repro.check): ``check`` may be a
        # Checker, a bool, or None (= honor $REPRO_CHECK).  Detached, the
        # per-transition hooks cost one ``is None`` test.
        self.checker = resolve_check(check)
        if self.checker is not None:
            self.checker.attach(self)

    def alloc_region(self, size_bytes):
        """Reserve a page-aligned window of the shared address space."""
        offset = self._next_offset
        self._next_offset += _page_align(size_bytes)
        return offset

    def next_accel_id(self):
        """Allocate the next accelerator slot on this platform."""
        accel_id = self._num_accels
        self._num_accels += 1
        return accel_id

    def make_driver(self, name):
        """A CPU driver bound to this platform's shared CPU cache."""
        cfg = self.cfg
        return CPUDriver(
            self.sim, self.cpu_clock, cpu_cache=self.cpu_cache,
            dram=self.dram,
            timings=DriverTimings(cfg.flush_ns_per_line,
                                  cfg.invalidate_ns_per_line,
                                  cfg.ioctl_ns, cfg.poll_interval_ns),
            line_size=cfg.cpu_cache_line, name=name)

    def reg_stats(self, stats):
        """Register the shared platform's counters under ``soc.*``.

        Idempotent per registry: several SoCs sharing one platform (the
        multi-accelerator scenario) register the shared half only once.
        """
        if "soc.sim.events" in stats:
            return
        self.sim.reg_stats(stats, "soc.sim")
        self.bus.reg_stats(stats, "soc.bus")
        self.dram.reg_stats(stats, "soc.dram")
        self.domain.reg_stats(stats, "soc.coherence")
        self.cpu_cache.reg_stats(stats, "soc.cpu_cache")
        if self.checker is not None:
            self.checker.reg_stats(stats, "check")


class SoC:
    """One accelerator plus its platform, wired for a single offload.

    Standalone use builds a private :class:`Platform`; pass ``platform=``
    to share one between accelerators (see :class:`repro.core.multi.
    MultiAcceleratorSoC`).
    """

    def __init__(self, workload, design=None, cfg=None, platform=None,
                 check=None):
        self.workload = workload
        self.design = design or DesignPoint()
        if platform is not None:
            if cfg is not None:
                raise SimulationError(
                    "pass cfg via the shared Platform, not per-SoC")
            if check is not None:
                raise SimulationError(
                    "pass check via the shared Platform, not per-SoC")
        self.platform = platform or Platform(cfg, check=check)
        self.cfg = self.platform.cfg
        self.trace = cached_trace(workload)
        self.ddg = cached_ddg(workload)
        self.accel_id = self.platform.next_accel_id()
        self.platform.socs.append(self)
        self._build()

    # -- construction -------------------------------------------------------

    def _build(self):
        design, cfg, plat = self.design, self.cfg, self.platform
        self.sim = plat.sim
        self.accel_clock = plat.accel_clock
        self.bus = plat.bus
        self.dram = plat.dram
        self.domain = plat.domain
        self.cpu_cache = plat.cpu_cache

        self._map_shared_regions()

        self.driver = plat.make_driver(f"cpu{self.accel_id}")
        self.assignment = assign_lanes(self.trace, design.lanes)
        self.accel_cache = None
        self.tlb = None
        self.dma = None
        self.ready_bits = {}

        if design.is_dma:
            self.spad = make_scratchpad(self.trace, design.partitions,
                                        design.spad_ports)
            self.dma = DMAEngine(self.sim, self.accel_clock, self.bus,
                                 setup_cycles=cfg.dma_setup_cycles,
                                 burst_bytes=cfg.dma_burst_bytes,
                                 max_outstanding=cfg.dma_max_outstanding,
                                 name=f"dma{self.accel_id}")
            if design.dma_triggered_compute:
                granularity = cfg.cpu_cache_line
                if design.double_buffer:
                    # Double buffering: track readiness at half-array
                    # granularity instead of cache lines (Section IV-B2).
                    granularity = None
                for name, decl in self.trace.arrays.items():
                    if decl.kind in INPUT_KINDS:
                        g = granularity or max(decl.size_bytes // 2,
                                               cfg.cpu_cache_line)
                        bits = ReadyBits(name, decl.size_bytes,
                                         granularity=g)
                        self.ready_bits[name] = bits
                self.dma.ready_bits = self.ready_bits
            mem_if = SpadInterface(self.sim, self.accel_clock, self.spad,
                                   ready_bits=self.ready_bits)
        else:
            self.spad = make_scratchpad(self.trace, design.partitions,
                                        design.spad_ports,
                                        kinds=("internal",))
            self.accel_cache = Cache(
                self.sim, self.accel_clock, f"accel{self.accel_id}-cache",
                design.cache_size_kb * 1024, design.cache_line,
                design.cache_assoc, mshrs=cfg.mshrs,
                prefetcher=design.prefetcher)
            self.domain.register(self.accel_cache)
            self.tlb = AcceleratorTLB(self.sim, entries=cfg.tlb_entries,
                                      miss_latency_ns=cfg.tlb_miss_ns,
                                      name=f"accel{self.accel_id}-tlb")
            internal = [n for n, d in self.trace.arrays.items()
                        if d.kind == "internal"]
            mem_if = CacheInterface(
                self.sim, self.accel_clock, self.accel_cache, self.tlb,
                addr_map=self.virt_base, phys_offset=PHYS_BASE - VIRT_BASE,
                ports=design.cache_ports, spad=self.spad,
                internal_arrays=internal, perfect=design.perfect_memory)

        self.ii_plan = None
        if design.pipelining == "modulo":
            # Memory issue bandwidth seen by the datapath: scratchpad
            # ports for DMA designs, cache ports for cache designs.
            if design.is_dma:
                mem_slots = design.partitions * design.spad_ports
            else:
                mem_slots = design.cache_ports
            self.ii_plan = plan_ii(self.ddg, self.assignment,
                                   mem_slots_per_cycle=mem_slots,
                                   ii=design.ii)
        plan = self.ii_plan
        self.scheduler = DatapathScheduler(
            self.sim, self.accel_clock, self.ddg, self.assignment, mem_if,
            on_done=self._on_compute_done,
            name=f"{self.workload}-accel{self.accel_id}",
            pipelining=design.pipelining,
            ii=plan.ii if plan else 0,
            rec_mii=plan.rec_mii if plan else 0,
            res_mii=plan.res_mii if plan else 0)

        self.traffic = None
        if cfg.background_traffic:
            self.traffic = TrafficGenerator(
                self.sim, self.bus, plat.bus_clock,
                burst_bytes=cfg.traffic_burst_bytes,
                interval_cycles=cfg.traffic_interval_cycles)

        self._signaled = False
        self._flow_done = False
        self._end_tick = None

    def _map_shared_regions(self):
        """Lay out this accelerator's shared-memory windows.

        One page-aligned physical region per non-internal array, then the
        CPU side: cache full of the (dirty) input data it just generated,
        plus stale copies of the return region.  Pipeline stages override
        :meth:`_cpu_generated` — arrays fed by an upstream accelerator
        were never touched by the CPU, so they must not be preloaded.
        """
        plat = self.platform
        self.phys_base = {}
        self.virt_base = {}
        for name, decl in self.trace.arrays.items():
            if decl.kind == "internal":
                continue
            offset = plat.alloc_region(decl.size_bytes)
            self.phys_base[name] = PHYS_BASE + offset
            self.virt_base[name] = VIRT_BASE + offset
        for name, decl in self.trace.arrays.items():
            if decl.kind != "internal" and self._cpu_generated(name):
                self.cpu_cache.preload(self.phys_base[name], decl.size_bytes)

    def _cpu_generated(self, _array):
        """True when the CPU's cache holds (stale or dirty) copies of the
        array before the offload.  Standalone offloads: every shared
        array."""
        return True

    # -- flow helpers -------------------------------------------------------

    def _input_regions(self):
        """Input regions in first-use order (the order of the kernel's
        dmaLoad calls), so DMA-triggered compute unblocks early."""
        order = self.trace.first_use_order()
        return [(name, self.phys_base[name],
                 self.trace.arrays[name].size_bytes)
                for name in order
                if self.trace.arrays[name].kind in INPUT_KINDS]

    def _output_regions(self):
        return [(name, self.phys_base[name], d.size_bytes)
                for name, d in self.trace.arrays.items()
                if d.kind in OUTPUT_KINDS]

    def _input_blocks(self):
        """Page-sized (flush block, DMA descriptor) units, in address order."""
        blocks = []
        block_bytes = self.cfg.dma_block_bytes
        for name, phys, size in self._input_regions():
            offset = 0
            while offset < size:
                chunk = min(block_bytes, size - offset)
                blocks.append((name, phys + offset, offset, chunk))
                offset += chunk
        return blocks

    # -- the offload flows ----------------------------------------------------

    def launch(self):
        """Start this accelerator's offload (does not run the simulator)."""
        if self.design.is_dma:
            self._start_dma_flow()
        else:
            self._start_cache_flow()
        if self.traffic is not None:
            self.traffic.start(lambda: self._flow_done)
        self.sim.add_done_dependency(lambda: self._flow_done)

    def run(self):
        """Execute the offload to completion; returns a :class:`RunResult`.

        With checking enabled (``check=`` / ``$REPRO_CHECK``) the
        end-of-run leak audit runs before results are collected, so a run
        that leaked resources raises instead of reporting optimistic
        numbers.
        """
        self.launch()
        self.sim.run()
        checker = self.platform.checker
        if checker is not None:
            checker.audit(self.platform)
        return self.collect()

    # DMA mode ---------------------------------------------------------------

    def _start_dma_flow(self):
        design = self.design
        if design.pipelined_dma:
            blocks = self._input_blocks()
            if design.dma_triggered_compute:
                self.scheduler.start()
            self._flush_block(blocks, 0)
        else:
            regions = self._input_regions()
            self._flush_region_seq(regions, 0)

    def _flush_block(self, blocks, idx):
        """Pipelined DMA: flush block b, then DMA it while flushing b+1."""
        if idx >= len(blocks):
            self._after_input_flushes()
            return
        name, phys, offset, size = blocks[idx]

        def flushed():
            desc = DMADescriptor(phys, name, offset, size, to_accel=True)
            self.dma.enqueue([desc], on_done=(
                self._dma_in_done if idx == len(blocks) - 1 else None))
            self._flush_block(blocks, idx + 1)

        self.driver.flush_region(phys, size, flushed)

    def _flush_region_seq(self, regions, idx):
        """Baseline DMA: flush everything first."""
        if idx >= len(regions):
            self._after_input_flushes()
            return
        _name, phys, size = regions[idx]
        self.driver.flush_region(
            phys, size, lambda: self._flush_region_seq(regions, idx + 1))

    def _after_input_flushes(self):
        self._invalidate_outputs(0)

    def _invalidate_outputs(self, idx):
        outputs = [r for r in self._output_regions()]
        if idx >= len(outputs):
            self._after_output_invalidates()
            return
        _name, phys, size = outputs[idx]
        self.driver.invalidate_region(
            phys, size, lambda: self._invalidate_outputs(idx + 1))

    def _after_output_invalidates(self):
        """CPU-side setup finished.  Non-pipelined DMA invokes the
        accelerator now; pipelined DMA already has per-block transfers in
        flight (the last one signals :meth:`_dma_in_done`)."""
        if not self.design.pipelined_dma:
            self.driver.ioctl_invoke(self._program_bulk_dma)

    def _program_bulk_dma(self):
        descs = [DMADescriptor(phys, name, 0, size, to_accel=True)
                 for name, phys, size in self._input_regions()]
        if self.design.dma_triggered_compute:
            self.scheduler.start()
        self.dma.enqueue(descs, on_done=self._dma_in_done)

    def _dma_in_done(self):
        if not self.design.dma_triggered_compute:
            self.scheduler.start()

    def _on_compute_done(self):
        if self.design.is_dma:
            self._start_output_dma()
        else:
            # mfence: order the final stores, then signal.
            self.sim.schedule(ns_to_ticks(self.cfg.fence_ns),
                              self._after_fence)

    def _start_output_dma(self):
        """DMA the return regions back to shared memory, then signal.
        Pipeline stages interpose chunked, credit-gated pushes here."""
        descs = [DMADescriptor(phys, name, 0, size, to_accel=False)
                 for name, phys, size in self._output_regions()]
        if descs:
            self.dma.enqueue(descs, on_done=self._signal_completion)
        else:
            self._signal_completion()

    def _after_fence(self):
        """The cache flow's mfence retired; the final stores are ordered.
        Pipeline stages commit their handoff flags here."""
        self._signal_completion()

    # Cache mode ------------------------------------------------------------

    def _start_cache_flow(self):
        self.driver.ioctl_invoke(self.scheduler.start)

    # Completion --------------------------------------------------------------

    def _signal_completion(self):
        req = MemRequest(SIGNAL_BASE + 64 * self.accel_id, 8, is_write=True,
                         requester=f"accel{self.accel_id}-signal",
                         callback=self._flag_written)
        self.bus.request(req)
        self.driver.spin_wait(lambda: self._signaled, self._cpu_saw_done)

    def _flag_written(self, _req):
        self._signaled = True

    def _cpu_saw_done(self):
        self._flow_done = True
        self._end_tick = self.sim.now

    # -- results ---------------------------------------------------------------

    def collect(self):
        """Build the :class:`RunResult` after the simulation has finished."""
        if self._end_tick is None:
            raise SimulationError("offload flow never completed")
        total = self._end_tick
        breakdown = classify_breakdown(
            total,
            self.driver.flush_busy.intervals,
            self.dma.busy.intervals if self.dma else [],
            self.scheduler.busy.intervals,
        )
        activity = measured(self.design.lanes, self.trace.op_histogram(),
                            self.spad, cache=self.accel_cache, tlb=self.tlb,
                            cache_ports=self.design.cache_ports)
        energy = PowerModel(activity).energy(total)
        area = AreaModel(activity).area()
        stats = {
            "bus_utilization": self.bus.utilization(0, total),
            "bus_bytes": self.bus.bytes_transferred,
            "dram_row_hit_rate": self.dram.row_hit_rate(),
            "spad_conflicts": self.spad.conflicts,
            "lines_flushed": self.driver.lines_flushed,
            "lines_invalidated": self.driver.lines_invalidated,
            "compute_ticks": self.scheduler.compute_ticks,
        }
        if self.ii_plan is not None:
            stats["ii"] = self.ii_plan.ii
            stats["rec_mii"] = self.ii_plan.rec_mii
            stats["res_mii"] = self.ii_plan.res_mii
            stats["reservation_conflicts"] = \
                self.scheduler.reservation_conflicts
        if self.dma is not None:
            stats["dma_bytes"] = self.dma.bytes_moved
            stats["dma_transactions"] = self.dma.transactions
        if self.accel_cache is not None:
            stats["cache_miss_rate"] = self.accel_cache.miss_rate()
            stats["cache_hits"] = self.accel_cache.hits
            stats["cache_misses"] = self.accel_cache.misses
            stats["c2c_transfers"] = self.domain.cache_to_cache_transfers
        if self.tlb is not None:
            stats["tlb_miss_rate"] = self.tlb.miss_rate()
        return RunResult(self.workload, self.design, total,
                         self.accel_clock.ticks_to_cycles(total),
                         breakdown, energy, stats, area=area)

    # -- observability ---------------------------------------------------------

    def reg_stats(self, stats):
        """Register every counter of this SoC in ``stats``.

        Shared platform components land under ``soc.*`` (once per
        registry); this accelerator's own engines land under
        ``accel<id>.*`` and its CPU driver under ``cpu<id>.*``.  All stats
        are getter-backed mirrors of the live counters, so registration
        adds no per-event work — attach before or after :meth:`run`, the
        dumped values are identical.
        """
        self.platform.reg_stats(stats)
        accel = f"accel{self.accel_id}"
        self.driver.reg_stats(stats, f"cpu{self.accel_id}")
        self.scheduler.reg_stats(stats, f"{accel}.sched")
        self.spad.reg_stats(stats, f"{accel}.spad")
        if self.dma is not None:
            self.dma.reg_stats(stats, f"{accel}.dma")
        if self.accel_cache is not None:
            self.accel_cache.reg_stats(stats, f"{accel}.cache")
        if self.tlb is not None:
            self.tlb.reg_stats(stats, f"{accel}.tlb")
        return stats


def run_design(workload, design=None, cfg=None, profiler=None,
               registry=None, check=None):
    """Convenience wrapper: build an SoC and run one offload.

    ``profiler`` — an :class:`repro.sim.profiling.EventProfiler` — attaches
    to the run's event queue, attributing event counts and callback wall
    time per component.  When ``None`` (the default) the event loop takes
    its unprofiled path and pays no per-event overhead.

    ``registry`` — a :class:`repro.obs.stats.StatRegistry` — receives
    every component counter of the run under ``soc.*`` / ``accel0.*``
    names (see :meth:`SoC.reg_stats`); dump it afterwards with
    ``registry.dump_text()`` / ``registry.to_json()``.

    ``check`` — a :class:`repro.check.Checker`, ``True`` for a fresh one,
    ``False`` to force checking off, or ``None`` to honor ``$REPRO_CHECK``
    — enables MOESI invariant checking, the end-of-run leak audit, and
    deadlock diagnosis for this run.
    """
    soc = SoC(workload, design, cfg, check=check)
    if profiler is not None:
        soc.sim.queue.set_profiler(profiler)
    if registry is not None:
        soc.reg_stats(registry)
    return soc.run()
