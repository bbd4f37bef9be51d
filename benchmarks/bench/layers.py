"""Turning the traced run's clock and counters into per-layer metrics.

Stage metrics (``*_s`` named after a span) are inclusive span seconds;
component metrics (``memory.*``, ``dma.engine_s``, ``cpu.driver_s``,
``aladdin.scheduler.*``, ``sim.kernel.dispatch_s``) are self seconds.
Both are per op of the workload and host-normalized, like the
end-to-end latencies.  Set-up metrics are per run.
"""

#: Component layers reported as self seconds per op.
SELF_LAYERS = ("memory.cache", "memory.coherence", "memory.tlb",
               "memory.bus", "memory.dram", "memory.spad", "memory.fullempty",
               "dma.engine", "cpu.driver", "core.sweeppool.store_get",
               "core.sweeppool.store_put", "core.calibrate.predict",
               "core.pareto.reduce")
#: Stage spans reported as inclusive seconds per op.
STAGES = ("aladdin.transforms.assign_lanes", "aladdin.modulo.plan_ii",
          "core.soc.build", "sim.kernel.run", "core.soc.collect",
          "core.pipeline.build", "core.pipeline.run")
#: Set-up spans reported per run (plus whatever the traced ops built).
SETUP = ("workloads.trace_build", "aladdin.ddg.build", "core.sweep.prewarm",
         "core.calibrate.calibrate")


def _union(intervals):
    total, end = 0.0, float("-inf")
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


def _ratio(num, den):
    return num / den if den else 0.0


def compute(tracer, traced, setup, scale, overhead, probe_s):
    """All per-layer metrics of one traced run, by name."""
    clock = tracer.clock
    counts = tracer.counts
    n = len(traced)
    first = min(r["t0"] for r in traced)
    spans = [(row, start, end) for _thread, row, start, end in clock.spans
             if start >= first]
    stage = {}
    for row, start, end in spans:
        stage[row] = stage.get(row, 0.0) + (end - start)
    self_s = {}
    scheduler = {}
    for (layer, label), (_calls, secs) in clock.totals().items():
        self_s[layer] = self_s.get(layer, 0.0) + secs
        if layer == "aladdin.scheduler":
            scheduler[label] = scheduler.get(label, 0.0) + secs

    out = {}
    for name in SETUP:
        out[f"{name}_s"] = setup.get(f"{name}_s", 0.0) + stage.get(name, 0.0)
    out["setup.import_s"] = setup["setup.import_s"]
    for name in STAGES:
        out[f"{name}_s"] = stage.get(name, 0.0) * scale / n
    for name in SELF_LAYERS:
        out[f"{name}_s"] = self_s.get(name, 0.0) * scale / n
    out["aladdin.scheduler.issue_pass_s"] = scheduler.get(
        "DatapathScheduler._issue_pass", 0.0) * scale / n
    out["aladdin.scheduler.complete_s"] = scheduler.get(
        "DatapathScheduler._complete_batch", 0.0) * scale / n
    out["aladdin.scheduler.issue_passes"] = \
        counts["aladdin.scheduler.issue_passes"] / n
    out["aladdin.scheduler.blocked_per_node"] = _ratio(counts["blocked"],
                                                       counts["nodes"])
    out["sim.kernel.dispatch_s"] = self_s.get("sim.kernel", 0.0) * scale / n
    out["sim.kernel.events"] = counts["sim.kernel.events"] / n
    out["sim.kernel.events_per_s"] = _ratio(
        counts["sim.kernel.events"], stage.get("sim.kernel.run", 0.0)
        * scale)
    out["sim.accel_cycles"] = counts["sim.accel_cycles"] / n
    out["memory.cache.blocked"] = counts["cache.blocked"] / n
    out["memory.cache.hit_rate"] = _ratio(
        counts["cache.hits"], counts["cache.hits"] + counts["cache.misses"])
    out["core.pipeline.stall_ticks"] = \
        counts["core.pipeline.stall_ticks"] / n

    fresh = [r for r in traced if r.get("cls") == "fresh"]
    replay = [r for r in traced if r.get("cls") == "replay"]
    out["core.sweeppool.cold_request_s"] = _ratio(
        sum(r["wall"] * r["scale"] for r in fresh), len(fresh))
    out["core.sweeppool.warm_request_s"] = _ratio(
        sum(r["wall"] * r["scale"] for r in replay), len(replay))
    out["core.sweeppool.point_eval_s"] = _ratio(
        counts["pool.point_s"] * scale, counts["pool.evaluated"])
    out["core.sweeppool.overhead_s"] = _ratio(
        counts["pool.overhead_s"] * scale, counts["pool.fresh"])
    out["core.sweeppool.worker_utilization"] = _ratio(
        counts["pool.utilization"], counts["pool.fresh"])
    for kind, name in (("warm", "warm"), ("cold", "cold"), ("edp", "auto")):
        out[f"serve.{name}_query_s"] = _ratio(
            counts[f"serve.{kind}_s"] * scale, counts[f"serve.{kind}_n"])
    requests = sum(r["attempted"] for r in traced)
    for name in ("hits", "joins", "dispatches"):
        out[f"serve.{name}"] = _ratio(counts[f"serve.{name}"], requests)
    out["serve.points_per_batch"] = _ratio(counts["serve.dispatches"],
                                           counts["serve.batches"])
    out["core.calibrate.pruned_frac"] = _ratio(
        counts["calibrate.pruned"], counts["calibrate.fast_points"])

    covered = []
    for record in traced:
        start, end = record["t0"], record["t0"] + record["wall"]
        inside = [(max(s, start), min(e, end)) for _row, s, e in spans
                  if s < end and e > start]
        covered.append(_union(inside))
    out["host.span_coverage"] = sum(covered) / sum(r["wall"] for r in traced)
    out["host.span_coverage_min"] = min(c / r["wall"]
                                        for c, r in zip(covered, traced))
    out["host.trace_overhead"] = overhead
    out["host.probe_ms"] = probe_s * 1e3
    return out


_UNITS = {
    "host.probe_ms": "ms",
    "host.trace_overhead": "ratio",
    "host.span_coverage": "ratio",
    "host.span_coverage_min": "ratio",
    "aladdin.scheduler.blocked_per_node": "ratio",
    "memory.cache.hit_rate": "ratio",
    "core.sweeppool.worker_utilization": "ratio",
    "core.calibrate.pruned_frac": "ratio",
    "sim.kernel.events_per_s": "1/s",
    "core.pipeline.stall_ticks": "ticks/op",
    "serve.points_per_batch": "count",
    "core.sweeppool.cold_request_s": "s",
    "core.sweeppool.warm_request_s": "s",
    "core.sweeppool.point_eval_s": "s",
    "core.sweeppool.overhead_s": "s",
    "serve.warm_query_s": "s",
    "serve.cold_query_s": "s",
    "serve.auto_query_s": "s",
    "setup.import_s": "s",
}


def unit(name):
    """The unit of one per-layer metric."""
    if name in _UNITS:
        return _UNITS[name]
    if name[:-2] in SETUP:
        return "s"
    return "s/op" if name.endswith("_s") else "count/op"
