"""The four design scenarios of Section V-B.

1. **Baseline (isolated)**: classic Aladdin — optimize the accelerator with
   preloaded scratchpads, no system attached.
2. **Co-designed DMA**: scratchpads + fully-optimized DMA over a 32-bit bus.
3. **Co-designed cache**: hardware-managed coherent cache, 32-bit bus.
4. **Co-designed cache, 64-bit bus**: same, with doubled bus bandwidth.

For each scenario we sweep the design space and take the EDP optimum.  The
paper's Figure 10 then asks: how much better is the co-designed optimum
than *the isolated-optimal design dropped into the same realistic system*?
That naive design keeps the isolated optimum's parallelism and local-memory
provisioning; for cache scenarios its cache must hold the whole footprint
(a scratchpad-equivalent sizing) with port count matching the isolated
memory bandwidth.
"""

from repro.aladdin.accelerator import Accelerator
from repro.core.config import DesignPoint, PARAMETER_TABLE, SoCConfig
from repro.core.metrics import RunResult
from repro.core.pareto import edp_optimal, sweep_pareto
from repro.core.soc import run_design
from repro.core.sweep import cache_design_space, dma_design_space
from repro.workloads import cached_ddg, cached_trace


class Scenario:
    """One named design scenario: a design space plus a platform config."""

    def __init__(self, key, label, mem_interface, bus_width_bits=32):
        self.key = key
        self.label = label
        self.mem_interface = mem_interface  # "isolated" | "dma" | "cache"
        self.bus_width_bits = bus_width_bits

    def soc_config(self, base_cfg=None):
        """Platform config with this scenario's bus width."""
        cfg = base_cfg or SoCConfig()
        return cfg.replace(bus_width_bits=self.bus_width_bits)

    def design_space(self, density="standard"):
        """The design points this scenario sweeps."""
        if self.mem_interface == "cache":
            return cache_design_space(density)
        return dma_design_space(density)

    def __repr__(self):
        return f"Scenario({self.key})"


SCENARIOS = {
    "isolated": Scenario("isolated", "Baseline (isolated)", "isolated"),
    "dma32": Scenario("dma32", "Co-designed DMA, 32-bit bus", "dma", 32),
    "cache32": Scenario("cache32", "Co-designed cache, 32-bit bus",
                        "cache", 32),
    "cache64": Scenario("cache64", "Co-designed cache, 64-bit bus",
                        "cache", 64),
}


def run_isolated(workload, design):
    """Evaluate one design in isolation (classic Aladdin) as a RunResult."""
    trace = cached_trace(workload)
    accel = Accelerator(trace, design.lanes, design.partitions,
                        design.spad_ports,
                        pipelining=design.pipelining, ii=design.ii)
    res = accel.run_isolated()
    breakdown = {
        "flush_only": 0, "dma_flush": 0, "compute_dma": 0,
        "compute_only": res.ticks, "other": 0,
    }
    stats = {"isolated": True}
    if accel.ii_plan is not None:
        stats["ii"] = accel.ii_plan.ii
        stats["rec_mii"] = accel.ii_plan.rec_mii
        stats["res_mii"] = accel.ii_plan.res_mii
        stats["reservation_conflicts"] = res.scheduler.reservation_conflicts
    return RunResult(workload, design, res.ticks,
                     accel.clock.ticks_to_cycles(res.ticks),
                     breakdown, res.energy,
                     stats=stats, area=res.area)


def isolated_sweep(workload, density="standard"):
    """Isolated (classic-Aladdin) runs over the DMA design space."""
    designs = dma_design_space(density)
    return [run_isolated(workload, d) for d in designs]


def run_scenario_optimum(workload, scenario, density="standard",
                         base_cfg=None, **sweep):
    """Sweep the scenario's design space; return (optimum, all results).

    The optimum is taken over :func:`repro.core.pareto.reducible`
    results (failures and unconfirmed fast predictions dropped; the
    returned list keeps them in input order).  The isolated scenario is
    already analytic and ignores ``sweep``; other keywords go to
    ``run_sweep``.
    """
    if scenario.mem_interface == "isolated":
        results = isolated_sweep(workload, density)
        return edp_optimal(results), results
    _frontier, optimum, results = sweep_pareto(
        workload, scenario.design_space(density),
        scenario.soc_config(base_cfg), **sweep)
    if optimum is None:
        raise ValueError(f"no {scenario.key} design point of {workload} "
                         f"succeeded")
    return optimum, results


def naive_design_for(workload, isolated_design, scenario):
    """The isolated-optimal design transplanted into ``scenario``.

    DMA scenarios keep lanes/partitions (with the DMA optimizations on —
    the comparison is about provisioning, not about crippling the
    transfer).  Cache scenarios get a scratchpad-equivalent cache: sized to
    hold the whole shared footprint, with ports matching the isolated
    design's local memory bandwidth.
    """
    if scenario.mem_interface == "dma":
        return isolated_design.replace(mem_interface="dma",
                                       pipelined_dma=True,
                                       dma_triggered_compute=True)
    ddg = cached_ddg(workload)
    footprint_kb = max(ddg.footprint_bytes() / 1024.0, 1.0)
    sizes = [s for s in PARAMETER_TABLE["cache_size_kb"]
             if s >= footprint_kb]
    size = sizes[0] if sizes else PARAMETER_TABLE["cache_size_kb"][-1]
    ports = max(p for p in PARAMETER_TABLE["cache_ports"]
                if p <= max(isolated_design.partitions, 1))
    return isolated_design.replace(mem_interface="cache",
                                   cache_size_kb=size, cache_ports=ports)


def edp_improvement(workload, scenario, density="standard", base_cfg=None,
                    isolated_optimum=None, codesigned_optimum=None,
                    **sweep):
    """Figure 10's metric for one (workload, scenario) pair.

    Returns a dict with the naive EDP (isolated-optimal design under the
    scenario's system), the co-designed EDP (scenario optimum), and their
    ratio (improvement; > 1 means co-design wins).  Precomputed optima can
    be passed in to reuse sweep work.  The naive point is a single exact
    run; other keywords go to ``run_sweep`` for the scenario sweep.
    """
    if isolated_optimum is None:
        isolated_optimum, _ = run_scenario_optimum(
            workload, SCENARIOS["isolated"], density)
    cfg = scenario.soc_config(base_cfg)
    naive = naive_design_for(workload, isolated_optimum.design, scenario)
    naive_result = run_design(workload, naive, cfg)
    if codesigned_optimum is not None:
        codesigned, results = codesigned_optimum, []
    else:
        codesigned, results = run_scenario_optimum(
            workload, scenario, density, base_cfg, **sweep)
    # The co-design space is a superset of the naive point, but a
    # sub-sampled sweep grid may miss it; the optimum over the union keeps
    # the metric well defined (improvement >= 1 by construction).
    if naive_result.edp < codesigned.edp:
        codesigned = naive_result
    return {
        "workload": workload,
        "scenario": scenario.key,
        "naive_design": naive,
        "naive_edp": naive_result.edp,
        "codesigned_design": codesigned.design,
        "codesigned_edp": codesigned.edp,
        "improvement": naive_result.edp / codesigned.edp,
        "codesigned_result": codesigned,
        "naive_result": naive_result,
        "sweep": results,
    }


def run_pipeline_family(workloads, depths=(2, 3), buffer_bytes=(512, 4096),
                        handoffs=("dma", "cache"), traffic=(False,),
                        double_buffer=(False,), base_cfg=None, check=None,
                        progress=None):
    """The streaming-pipeline design-space family.

    Chains the first ``depth`` entries of ``workloads`` for every
    combination of chain depth × handoff buffer size × handoff mode
    (scratchpad-DMA vs coherent cache) × background traffic ×
    double-buffering, and records per-combination makespan, back-pressure
    behaviour, and speedup over running the same stages serially through
    the CPU.  Buffer size is a DMA-handoff knob; cache handoffs collapse
    it (memory is the buffer), so those rows are generated once per
    (depth, traffic, ...) with ``buffer_bytes=None``.

    Returns a list of plain dicts, one per combination, ready for
    tabulation or JSON dumping.
    """
    from repro.core.pipeline import AcceleratorPipeline

    base_cfg = base_cfg or SoCConfig()
    rows = []
    combos = []
    for depth in depths:
        if depth > len(workloads):
            continue
        for traf in traffic:
            for dbuf in double_buffer:
                for handoff in handoffs:
                    if handoff == "cache":
                        if dbuf:
                            continue  # double buffering is a DMA-ring knob
                        combos.append((depth, traf, dbuf, handoff, None))
                    else:
                        for buf in buffer_bytes:
                            combos.append((depth, traf, dbuf, handoff, buf))

    solo_cache = {}
    for idx, (depth, traf, dbuf, handoff, buf) in enumerate(combos):
        chain = list(workloads[:depth])
        cfg = base_cfg.replace(background_traffic=traf)
        pipe = AcceleratorPipeline(
            chain, handoff=handoff,
            buffer_bytes=buf if buf is not None else 4096,
            double_buffer=dbuf, cfg=cfg, check=check)
        result = pipe.run()
        # Serial baseline: memoized per (workload, handoff, traffic) —
        # identical across the buffer-size axis.
        serial = 0
        for spec in pipe.specs:
            key = (spec.workload, handoff, traf)
            if key not in solo_cache:
                solo_cache[key] = run_design(spec.workload, spec.design,
                                             cfg)
            serial += solo_cache[key].total_ticks
        rows.append({
            "depth": depth,
            "workloads": list(chain),
            "handoff": handoff,
            "buffer_bytes": buf,
            "double_buffer": dbuf,
            "background_traffic": traf,
            "makespan_ticks": result.makespan_ticks,
            "serial_ticks": serial,
            "speedup_vs_serial": serial / result.makespan_ticks,
            "stage_ticks": [r.total_ticks for r in result.stage_results],
            "handoffs": sum(l["handoffs"] for l in result.links),
            "producer_stalls": sum(l["producer_stalls"]
                                   for l in result.links),
            "consumer_parks": sum(l["consumer_parks"]
                                  for l in result.links),
            "producer_stall_ticks": sum(l["producer_stall_ticks"]
                                        for l in result.links),
            "consumer_park_ticks": sum(l["consumer_park_ticks"]
                                       for l in result.links),
            "ordering_clean": result.ordering_clean(),
        })
        if progress is not None:
            progress(idx + 1, len(combos), rows[-1])
    return rows
