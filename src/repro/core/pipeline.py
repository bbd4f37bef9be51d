"""Streaming accelerator pipelines: back-pressured producer→consumer chains.

The paper stops at independent accelerators contending on one shared bus
(Figure 11 / Section IV-A).  Real SoCs chain accelerators into dataflows:
stage k's output array *is* stage k+1's input, handed off through a shared
buffer instead of bouncing through the CPU.  This module composes that
scenario out of the existing pieces:

* **Scratchpad (DMA) handoff** — the producer's ``dmaStore`` is split into
  chunk-sized descriptors targeting a small ring buffer in shared memory;
  the consumer's ``dmaLoad`` pulls each chunk into its own scratchpad.
  Full/empty bits (:class:`~repro.memory.fullempty.ReadyBits`) track the
  buffer at chunk granularity and gate both engines' descriptor starts
  (:class:`~repro.memory.fullempty.DescriptorGate`): a chunk's pull parks
  until the producer committed it, and a push parks until the consumer
  drained the slot it would overwrite — genuine back-pressure.  A full
  buffer stalls the producer; an empty one parks the consumer.
* **Coherent cache handoff** — both stages use coherent caches; the
  consumer's input region is aliased onto the producer's output region
  (zero-copy), the producer's mfence commits the handoff flags, and the
  consumer's invocation is gated on them.  Data moves on demand through
  MOESI cache-to-cache transfers; the "buffer" is the memory system
  itself, so there is no credit-based back-pressure to model.

``double_buffer=True`` splits the DMA ring into two half-sized slots so the
producer fills one while the consumer drains the other (Section IV-B2's
double-buffering, applied to the handoff instead of the offload).

Every handoff records per-chunk (produced, consume-start, consumed) ticks,
so the ordering invariant — a consumer never reads a word its producer has
not written — is checkable after the run, and the pipeline's buffers join
the end-of-run leak audit (:mod:`repro.check.audit`): unconsumed committed
chunks, stalled producers, and parked consumers are leaks.

Typical use::

    from repro.core.pipeline import AcceleratorPipeline
    pipe = AcceleratorPipeline(
        ["stencil-stencil2d", "gemm-ncubed", "kmp"],
        handoff="dma", buffer_bytes=2048, double_buffer=True)
    result = pipe.run()
    result.makespan_ticks, result.links[0]["producer_stalls"]
"""

from repro.core.config import DesignPoint, SoCConfig
from repro.core.soc import (
    INPUT_KINDS,
    OUTPUT_KINDS,
    PHYS_BASE,
    VIRT_BASE,
    Platform,
    SoC,
    run_design,
)
from repro.dma.descriptor import DMADescriptor
from repro.errors import ConfigError
from repro.memory.fullempty import DescriptorGate, ReadyBits
from repro.sim.stats import IntervalTracker
from repro.workloads import cached_trace

HANDOFF_MODES = ("dma", "cache")
_LINE = 64  # chunk alignment: one cache line


def _linked_arrays(trace, kinds):
    """Shared arrays of the given kinds, in declaration order."""
    return [name for name, decl in trace.arrays.items()
            if decl.kind in kinds]


class PipelineStage:
    """One stage spec: a workload plus its accelerator design point."""

    def __init__(self, workload, design=None, in_array=None, out_array=None):
        self.workload = workload
        self.design = design
        # Optional explicit link endpoints; default: first input / first
        # output array of the stage's trace.
        self.in_array = in_array
        self.out_array = out_array

    @classmethod
    def normalize(cls, spec):
        if isinstance(spec, cls):
            return spec
        if isinstance(spec, str):
            return cls(spec)
        workload, design = spec
        return cls(workload, design)


class HandoffLink:
    """The shared buffer between two adjacent pipeline stages.

    Owns the full/empty bits that sequence the handoff, the buffer
    geometry (chunk size, ring slots), the per-chunk tick accounting, and
    the stall/park interval trackers the timeline export renders.

    The platform lists its links and each stage refers to its links, so
    a link keeps only what it drives — the two stages' DMA engines, the
    consumer's own ready bits and the workload names — never the stages
    themselves, and closes no reference cycle.
    """

    def __init__(self, index, producer, consumer, mode, buffer_bytes,
                 double_buffer):
        self.index = index
        self.name = f"link{index}"
        self.producer_workload = producer.workload
        self.consumer_workload = consumer.workload
        self.sim = producer.sim
        self.mode = mode
        self.buffer_bytes = buffer_bytes
        self.double_buffer = double_buffer

        self.out_array = producer._linked_out
        self.in_array = consumer._linked_in
        out_size = producer.trace.arrays[self.out_array].size_bytes
        in_size = consumer.trace.arrays[self.in_array].size_bytes
        self.link_bytes = min(out_size, in_size)
        if self.link_bytes <= 0:
            raise ConfigError(
                f"{self.name}: {producer.workload}.{self.out_array} -> "
                f"{consumer.workload}.{self.in_array} moves no data")

        self.slots = 2 if (mode == "dma" and double_buffer) else 1
        if mode == "dma":
            raw = buffer_bytes // self.slots
            chunk = max(_LINE, raw - raw % _LINE)
        else:
            # Cache handoff: memory is the buffer.  Chunks only granulate
            # the accounting; commit happens wholesale at the fence.
            chunk = buffer_bytes
        self.chunk_bytes = min(chunk, self.link_bytes)
        self.num_chunks = -(-self.link_bytes // self.chunk_bytes)

        # Full bit = chunk committed by the producer, not yet drained by
        # the consumer.
        self.bits = ReadyBits(self.name, self.link_bytes,
                              granularity=self.chunk_bytes)

        self.buf_base = None
        if mode == "dma":
            offset = producer.platform.alloc_region(
                self.slots * self.chunk_bytes)
            self.buf_base = PHYS_BASE + offset

        self.handoffs = 0
        self.producer_stalls = 0
        self.consumer_parks = 0
        self.producer_stall = IntervalTracker(f"{self.name}-stall")
        self.consumer_park = IntervalTracker(f"{self.name}-park")
        self.produced_tick = [None] * self.num_chunks
        self.consume_start_tick = [None] * self.num_chunks
        self.consumed_tick = [None] * self.num_chunks
        self._pull_gates = {}
        self._push_dma = producer.dma
        self._pull_dma = consumer.dma
        # The consumer's own triggered-compute bits for the linked array,
        # and that array's size (see start_consuming).
        self._consumer_bits = consumer.ready_bits.get(self.in_array)
        self._in_size = in_size

    # -- geometry helpers ---------------------------------------------------

    def _chunk(self, j):
        offset = j * self.chunk_bytes
        return offset, min(self.chunk_bytes, self.link_bytes - offset)

    def _slot_addr(self, j):
        """Physical address of chunk ``j``'s ring slot (DMA mode)."""
        return self.buf_base + (j % self.slots) * self.chunk_bytes

    # -- DMA-mode producer: chunked, credit-gated pushes --------------------

    def start_producing(self, on_done):
        """Producer compute finished: stream the linked output through the
        ring buffer, then call ``on_done`` (which sends any remaining
        non-linked outputs and signals completion)."""
        self._push(0, on_done)

    def _push(self, j, on_done):
        if j >= self.num_chunks:
            on_done()
            return
        offset, size = self._chunk(j)
        gate = None
        if j >= self.slots:
            # Back-pressure: the slot this chunk reuses must be drained.
            prev_offset, prev_size = self._chunk(j - self.slots)
            gate = DescriptorGate(self.bits, prev_offset, prev_size,
                                  until="empty",
                                  tracker=self.producer_stall)
        desc = DMADescriptor(self._slot_addr(j), self.out_array, offset,
                             size, to_accel=False)
        self._push_dma.enqueue(
            [desc], on_done=lambda: self._pushed(j, gate, on_done),
            label=f"{self.name}.push{j}", gate=gate)

    def _pushed(self, j, gate, on_done):
        offset, size = self._chunk(j)
        self.produced_tick[j] = self.sim.now
        self.handoffs += 1
        if gate is not None and gate.waited:
            self.producer_stalls += 1
        self.bits.set_range(offset, size)  # wakes a parked consumer pull
        self._push(j + 1, on_done)

    # -- DMA-mode consumer: chunked, ready-gated pulls ----------------------

    def start_consuming(self, on_done):
        """Stage launch: chain ready-gated pulls of every chunk, then call
        ``on_done`` (the stage's input-arrival accounting)."""
        # The consumer's linked array may be larger than the link window;
        # the tail holds preinitialized data, so its own triggered-compute
        # ready bits must not wait for a DMA that will never come.
        own_bits = self._consumer_bits
        if own_bits is not None and self._in_size > self.link_bytes:
            own_bits.set_range(self.link_bytes,
                               self._in_size - self.link_bytes)
        self._pull(0, on_done)

    def _pull(self, j, on_done):
        if j >= self.num_chunks:
            on_done()
            return
        offset, size = self._chunk(j)
        gate = DescriptorGate(self.bits, offset, size, until="full",
                              tracker=self.consumer_park)
        self._pull_gates[j] = gate
        desc = DMADescriptor(self._slot_addr(j), self.in_array, offset,
                             size, to_accel=True)
        self._pull_dma.enqueue(
            [desc], on_done=lambda: self._pulled(j, on_done),
            label=f"{self.name}.pull{j}", gate=gate)

    def _pulled(self, j, on_done):
        offset, size = self._chunk(j)
        gate = self._pull_gates.pop(j)
        self.consume_start_tick[j] = gate.opened_tick
        self.consumed_tick[j] = self.sim.now
        if gate.waited:
            self.consumer_parks += 1
        self.bits.clear_range(offset, size)  # credit back: wakes producer
        self._pull(j + 1, on_done)

    # -- cache-mode handoff: fence-committed flags, gated invocation --------

    def commit_all(self):
        """Producer's mfence retired: every chunk of the aliased region is
        globally visible; set the handoff flags."""
        now = self.sim.now
        for j in range(self.num_chunks):
            self.produced_tick[j] = now
        self.handoffs += self.num_chunks
        self.bits.set_range(0, self.link_bytes)

    def gate_consumer_launch(self, proceed):
        """Hold the consumer's ioctl until the producer committed."""
        if self.bits.range_ready(0, self.link_bytes):
            self._consumer_released()
            proceed()
            return
        self.consumer_park.begin(self.sim.now)
        self.consumer_parks += 1

        def released():
            self.consumer_park.end(self.sim.now)
            self._consumer_released()
            proceed()

        self.bits.wait_range(0, self.link_bytes, released)

    def _consumer_released(self):
        now = self.sim.now
        for j in range(self.num_chunks):
            self.consume_start_tick[j] = now

    def consume_all(self):
        """Consumer compute finished: the region was read; drain the
        flags so the end-of-run audit sees an empty buffer."""
        now = self.sim.now
        for j in range(self.num_chunks):
            self.consumed_tick[j] = now
        self.bits.clear_range(0, self.link_bytes)

    # -- reporting ----------------------------------------------------------

    def ordering_clean(self):
        """True when no chunk was consumed before its producer committed
        it — the handoff correctness invariant, checked from the recorded
        ReadyBits ordering."""
        for produced, started in zip(self.produced_tick,
                                     self.consume_start_tick):
            if produced is None or started is None or started < produced:
                return False
        return True

    def report(self):
        return {
            "link": self.index,
            "producer": self.producer_workload,
            "consumer": self.consumer_workload,
            "mode": self.mode,
            "link_bytes": self.link_bytes,
            "chunk_bytes": self.chunk_bytes,
            "slots": self.slots,
            "chunks": self.num_chunks,
            "handoffs": self.handoffs,
            "producer_stalls": self.producer_stalls,
            "consumer_parks": self.consumer_parks,
            "producer_stall_ticks": self.producer_stall.total_busy(),
            "consumer_park_ticks": self.consumer_park.total_busy(),
            "produced_ticks": list(self.produced_tick),
            "consume_start_ticks": list(self.consume_start_tick),
            "consumed_ticks": list(self.consumed_tick),
            "ordering_clean": self.ordering_clean(),
        }

    def reg_stats(self, stats, prefix=None):
        prefix = prefix or f"pipeline.{self.name}"
        stats.scalar(f"{prefix}.handoffs", lambda: self.handoffs,
                     desc="chunks handed producer -> consumer")
        stats.scalar(f"{prefix}.producer_stalls",
                     lambda: self.producer_stalls,
                     desc="pushes that parked on a full buffer")
        stats.scalar(f"{prefix}.consumer_parks",
                     lambda: self.consumer_parks,
                     desc="pulls/launches that parked on an empty buffer")
        stats.scalar(f"{prefix}.producer_stall_ticks",
                     lambda: self.producer_stall.total_busy(),
                     desc="ticks the producer waited for buffer credit")
        stats.scalar(f"{prefix}.consumer_park_ticks",
                     lambda: self.consumer_park.total_busy(),
                     desc="ticks the consumer waited for committed data")


class _StageSoC(SoC):
    """One pipeline stage: an :class:`SoC` whose linked input arrives from
    the upstream accelerator instead of the CPU, and whose linked output
    streams into the downstream handoff buffer."""

    def __init__(self, workload, design, platform, stage_index,
                 linked_in=None, linked_out=None, alias=None):
        self.stage_index = stage_index
        self._linked_in = linked_in
        self._linked_out = linked_out
        self._alias = alias
        self.link_in = None   # wired by AcceleratorPipeline after build
        self.link_out = None
        self._inputs_pending = 0
        super().__init__(workload, design, platform=platform)

    # -- construction hooks -------------------------------------------------

    def _map_shared_regions(self):
        super()._map_shared_regions()
        if self._alias is not None:
            # Coherent-cache handoff: the linked input *is* the producer's
            # output region (zero-copy); re-point the mapping.
            phys, virt = self._alias
            self.phys_base[self._linked_in] = phys
            self.virt_base[self._linked_in] = virt

    def _cpu_generated(self, array):
        # Handoff arrays never pass through the CPU: the producer writes
        # them, so the CPU cache holds no dirty input data and no stale
        # return copies to preload.
        return array not in (self._linked_in, self._linked_out)

    # -- flow hooks ----------------------------------------------------------

    def _input_regions(self):
        regions = super()._input_regions()
        if self.link_in is not None and self.design.is_dma:
            regions = [r for r in regions if r[0] != self._linked_in]
        return regions

    def _output_regions(self):
        regions = super()._output_regions()
        if self.link_out is not None and self.design.is_dma:
            regions = [r for r in regions if r[0] != self._linked_out]
        return regions

    def launch(self):
        if self.design.is_dma:
            self._inputs_pending = 1  # the CPU-side flush+DMA flow
            if self.link_in is not None:
                self._inputs_pending += 1
                self.link_in.start_consuming(self._input_source_done)
        super().launch()

    def _dma_in_done(self):
        self._input_source_done()

    def _input_source_done(self):
        self._inputs_pending -= 1
        if self._inputs_pending == 0 and \
                not self.design.dma_triggered_compute:
            self.scheduler.start()

    def _after_output_invalidates(self):
        super()._after_output_invalidates()
        if (self.design.pipelined_dma and self.design.is_dma
                and not self._input_blocks()):
            # Every input is linked: there are no CPU-side blocks whose
            # last DMA would signal input arrival.  The flow is done now.
            self._dma_in_done()

    def _on_compute_done(self):
        if self.design.is_dma and self.link_out is not None:
            self.link_out.start_producing(self._start_output_dma)
        else:
            super()._on_compute_done()

    def _start_cache_flow(self):
        if self.link_in is not None:
            self.link_in.gate_consumer_launch(
                lambda: SoC._start_cache_flow(self))
        else:
            super()._start_cache_flow()

    def _after_fence(self):
        if self.link_in is not None:
            self.link_in.consume_all()
        if self.link_out is not None:
            self.link_out.commit_all()
        super()._after_fence()


class PipelineResult:
    """Everything one finished pipeline run measured."""

    def __init__(self, pipeline, stage_results):
        self.workloads = [s.workload for s in pipeline.stages]
        self.handoff = pipeline.handoff
        self.buffer_bytes = pipeline.buffer_bytes
        self.double_buffer = pipeline.double_buffer
        self.stage_results = stage_results
        self.links = [link.report() for link in pipeline.links]
        self.makespan_ticks = max(r.total_ticks for r in stage_results)

    @property
    def depth(self):
        return len(self.workloads)

    def ordering_clean(self):
        return all(link["ordering_clean"] for link in self.links)

    def to_dict(self):
        return {
            "workloads": self.workloads,
            "handoff": self.handoff,
            "buffer_bytes": self.buffer_bytes,
            "double_buffer": self.double_buffer,
            "depth": self.depth,
            "makespan_ticks": self.makespan_ticks,
            "stages": [
                {"workload": r.workload, "total_ticks": r.total_ticks,
                 "time_us": r.time_us, "power_mw": r.power_mw,
                 "breakdown": dict(r.breakdown)}
                for r in self.stage_results
            ],
            "links": self.links,
        }


class AcceleratorPipeline:
    """N accelerators chained producer→consumer on one shared platform."""

    def __init__(self, stages, handoff="dma", buffer_bytes=4096,
                 double_buffer=False, cfg=None, check=None):
        """``stages`` is a list of workload names, (workload, DesignPoint)
        pairs, or :class:`PipelineStage` specs, upstream first.

        ``handoff`` picks the buffer kind: ``"dma"`` streams chunks
        through a ``buffer_bytes`` shared ring with credit back-pressure
        (``double_buffer`` splits it into two slots); ``"cache"`` aliases
        the regions and hands off through the coherence protocol.  All
        stage designs must match the handoff's memory interface.
        ``check`` enables runtime correctness checking on the shared
        platform; ``None`` honors ``$REPRO_CHECK``.
        """
        specs = [PipelineStage.normalize(s) for s in stages]
        if len(specs) < 2:
            raise ConfigError("a pipeline chains at least 2 stages")
        if handoff not in HANDOFF_MODES:
            raise ConfigError(f"handoff must be one of {HANDOFF_MODES}, "
                              f"got {handoff!r}")
        self.handoff = handoff
        self.double_buffer = bool(double_buffer)
        min_buffer = _LINE * (2 if self.double_buffer else 1)
        if handoff == "dma" and buffer_bytes < min_buffer:
            raise ConfigError(
                f"buffer_bytes must be >= {min_buffer} "
                f"({'two ring slots' if self.double_buffer else 'one line'}"
                f"), got {buffer_bytes}")
        self.buffer_bytes = buffer_bytes
        self.cfg = cfg or SoCConfig()
        self.platform = Platform(self.cfg, check=check)

        want = "dma" if handoff == "dma" else "cache"
        default = DesignPoint(mem_interface=want)
        self.specs = specs
        for spec in specs:
            spec.design = spec.design or default
            if spec.design.mem_interface != want:
                raise ConfigError(
                    f"stage {spec.workload!r} uses "
                    f"mem_interface={spec.design.mem_interface!r}; a "
                    f"{handoff!r} handoff needs every stage on "
                    f"{want!r} (coherent-DMA mixing would need a flush "
                    f"protocol the model does not have)")

        self.stages = []
        self.links = []
        last = len(specs) - 1
        for k, spec in enumerate(specs):
            linked_in = linked_out = alias = None
            if k > 0:
                linked_in = self._pick_array(spec, "in")
                if handoff == "cache":
                    producer = self.stages[k - 1]
                    out = producer._linked_out
                    alias = (producer.phys_base[out],
                             producer.virt_base[out])
            if k < last:
                linked_out = self._pick_array(spec, "out")
            stage = _StageSoC(spec.workload, spec.design, self.platform,
                              k, linked_in=linked_in,
                              linked_out=linked_out, alias=alias)
            self.stages.append(stage)
        for k in range(1, len(self.stages)):
            link = HandoffLink(k - 1, self.stages[k - 1], self.stages[k],
                               handoff, buffer_bytes, self.double_buffer)
            self.stages[k - 1].link_out = link
            self.stages[k].link_in = link
            self.links.append(link)
        self.platform.handoff_links.extend(self.links)
        self._results = None
        self._solo_results = None

    @staticmethod
    def _pick_array(spec, direction):
        trace = cached_trace(spec.workload)
        explicit = spec.in_array if direction == "in" else spec.out_array
        kinds = INPUT_KINDS if direction == "in" else OUTPUT_KINDS
        candidates = _linked_arrays(trace, kinds)
        if explicit is not None:
            if explicit not in candidates:
                raise ConfigError(
                    f"{spec.workload!r} has no {direction}put array "
                    f"{explicit!r} (candidates: {candidates})")
            return explicit
        if not candidates:
            raise ConfigError(f"{spec.workload!r} has no shared "
                              f"{direction}put array to link")
        return candidates[0]

    # -- execution -----------------------------------------------------------

    def run(self):
        """Launch every stage at tick 0 and run the chain to completion.

        Stage k>0 starts its CPU-side work immediately but its linked
        input only flows as stage k-1 commits chunks; the makespan is the
        completion of the last stage.  With checking enabled the leak
        audit (including the handoff buffers) runs before collection.
        """
        for stage in self.stages:
            stage.launch()
        self.platform.run()
        self._results = PipelineResult(
            self, [stage.collect() for stage in self.stages])
        return self._results

    @property
    def results(self):
        if self._results is None:
            raise RuntimeError("call run() first")
        return self._results

    def makespan_ticks(self):
        return self.results.makespan_ticks

    def solo_results(self):
        """Each stage re-run alone on a private platform (memoized)."""
        if self._solo_results is None:
            self._solo_results = [
                run_design(spec.workload, spec.design, self.cfg)
                for spec in self.specs]
        return self._solo_results

    def speedup_vs_serial(self):
        """Serial-offload time / pipeline makespan (> 1: streaming wins).

        The serial baseline runs the same stages back to back through the
        CPU (each offload's input flushed and DMA'd the classic way), so
        this is the direct measurement of what the handoff buys.
        """
        serial = sum(r.total_ticks for r in self.solo_results())
        return serial / self.results.makespan_ticks

    def bus_utilization(self):
        return self.platform.bus.utilization(
            0, self.results.makespan_ticks)

    def reg_stats(self, stats):
        """Register every stage's and link's counters in ``stats``."""
        for stage in self.stages:
            stage.reg_stats(stats)
        for link in self.links:
            link.reg_stats(stats)
        return stats
