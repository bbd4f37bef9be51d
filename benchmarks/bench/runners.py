"""Executing one workload's ops in the measuring process.

Each runner has the same shape: ``setup`` (traces, pre-warm,
calibration), ``pass_scope`` (per-pass state such as a fresh result
store), ``execute`` (the timed part of one op) and ``settle`` (checking
the outcome against the expected values and counting what it resolved,
outside the timed part).  With a :class:`Tracer`, simulations run stage
by stage through public calls so host time can be split per layer.
"""

import collections
import contextlib
import os
import shutil
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

from repro import DesignPoint, SoC, run_design
from repro.aladdin.modulo import plan_ii
from repro.aladdin.transforms import assign_lanes
from repro.core.calibrate import calibrate_workload
from repro.core.pipeline import AcceleratorPipeline
from repro.core.sweep import run_sweep
from repro.core.sweeppool import SweepCache, SweepMetrics, key_payload
from repro.core.sweeppool import sweep_key
from repro.obs.stats import StatRegistry
from repro.serve.service import SweepService
from repro.workloads import cached_ddg, cached_trace

from . import spec, tracing

POOL_JOBS = 2
_BLOCKED_STATS = ("spad.conflicts", "cache.blocked",
                  "sched.reservation_conflicts")


class Tracer:
    """The traced run's clock plus the simulation counts it gathers."""

    def __init__(self):
        self.clock = tracing.LayerClock()
        self.counts = collections.Counter()
        self._simulating = False

    @contextlib.contextmanager
    def simulating(self):
        """Wrap the simulator's component methods (once, re-entrant)."""
        if self._simulating:
            yield
            return
        with tracing.instrument(self.clock, sim=True):
            self._simulating = True
            try:
                yield
            finally:
                self._simulating = False

    def account(self, profiler, registry, results, links=()):
        counts = self.counts
        counts["sim.kernel.events"] += profiler.total_events
        issue = profiler.records.get("DatapathScheduler._issue_pass")
        counts["aladdin.scheduler.issue_passes"] += issue[0] if issue else 0
        counts["sim.accel_cycles"] += sum(r.accel_cycles for r in results)
        for name in registry.names():
            if not name.startswith("accel"):
                continue
            stat = name.split(".", 1)[1]
            if stat in _BLOCKED_STATS:
                counts["blocked"] += registry.value(name)
            elif stat == "sched.nodes":
                counts["nodes"] += registry.value(name)
            elif stat in ("cache.hits", "cache.misses", "cache.blocked"):
                counts[stat] += registry.value(name)
        for link in links:
            counts["core.pipeline.stall_ticks"] += (
                link["producer_stall_ticks"] + link["consumer_park_ticks"])


def _span(tracer, layer):
    """A stage span when tracing, else nothing."""
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.clock.span(layer)


def _host_scope(tracer):
    """Time the store, calibration and Pareto entry points when tracing."""
    if tracer is None:
        return contextlib.nullcontext()
    return tracing.instrument(tracer.clock, sim=False, host=True)


def _mem_slots(design):
    """Memory issue slots per cycle, as the SoC plans modulo schedules."""
    if design.is_dma:
        return design.partitions * design.spad_ports
    return design.cache_ports


def _build_kernel(tracer, workload):
    with tracer.clock.span("workloads.trace_build"):
        trace = cached_trace(workload)
    with tracer.clock.span("aladdin.ddg.build"):
        ddg = cached_ddg(workload)
    return trace, ddg


def staged_point(tracer, workload, design):
    """``run_design`` split into its public stages, each a span."""
    clock = tracer.clock
    with tracer.simulating():
        trace, ddg = _build_kernel(tracer, workload)
        with clock.span("aladdin.transforms.assign_lanes"):
            assignment = assign_lanes(trace, design.lanes)
        if design.pipelining == "modulo":
            with clock.span("aladdin.modulo.plan_ii"):
                plan_ii(ddg, assignment,
                        mem_slots_per_cycle=_mem_slots(design),
                        ii=design.ii)
        with clock.span("core.soc.build"):
            soc = SoC(workload, design)
        profiler = tracing.LayerProfiler(clock)
        soc.sim.queue.set_profiler(profiler)
        registry = soc.reg_stats(StatRegistry())
        with clock.span("sim.kernel.run"):
            soc.launch()
            soc.sim.run()
            if soc.platform.checker is not None:
                soc.platform.checker.audit(soc.platform)
        with clock.span("core.soc.collect"):
            result = soc.collect()
    tracer.account(profiler, registry, [result])
    return result


def _pipeline(op):
    return AcceleratorPipeline(op["stages"], handoff=op["handoff"],
                               buffer_bytes=op["buffer_bytes"],
                               double_buffer=op["double_buffer"])


def staged_pipeline(tracer, op):
    clock = tracer.clock
    with tracer.simulating():
        for workload in op["stages"]:
            _build_kernel(tracer, workload)
        with clock.span("core.pipeline.build"):
            pipe = _pipeline(op)
        profiler = tracing.LayerProfiler(clock)
        pipe.platform.sim.queue.set_profiler(profiler)
        registry = pipe.reg_stats(StatRegistry())
        with clock.span("core.pipeline.run"):
            result = pipe.run()
    tracer.account(profiler, registry, result.stage_results, result.links)
    return result


def _outcome(samples=None, points=0, cycles=0, attempted=1, failed=0):
    """What one op resolved.  ``samples=None``: its latency is its wall."""
    return {"samples": samples, "points": points, "cycles": cycles,
            "attempted": attempted, "failed": failed}


class SweepRunner:
    """dma-sweep / cache-sweep: inline ``run_design`` and pipelines."""

    def __init__(self, gate, kernels):
        self.gate = gate
        self.kernels = kernels

    def setup(self, tracer):
        for workload in self.kernels:
            if tracer is None:
                cached_ddg(workload)
            else:
                _build_kernel(tracer, workload)

    @contextlib.contextmanager
    def pass_scope(self, tracer):
        if tracer is None:
            yield
        else:
            with tracer.simulating():
                yield

    def execute(self, op, tracer):
        if op["kind"] == "pipeline":
            if tracer is not None:
                return staged_pipeline(tracer, op)
            return _pipeline(op).run()
        design = DesignPoint(**op["design"])
        if tracer is not None:
            return staged_point(tracer, op["workload"], design)
        return run_design(op["workload"], design)

    def settle(self, op, result, _tracer):
        if op["kind"] == "pipeline":
            ok = self.gate.pipeline(op, result)
            cycles = sum(r.accel_cycles for r in result.stage_results)
            return _outcome(points=2, cycles=cycles, failed=int(not ok))
        ok = self.gate.point(op["workload"], op["design"], result)
        return _outcome(points=1, cycles=result.accel_cycles,
                        failed=int(not ok))

    def close(self):
        pass


class PoolRunner:
    """pool-store: one client, ``run_sweep(parallel=2)`` over a store."""

    def __init__(self, gate, work_dir):
        self.gate = gate
        self.work_dir = work_dir
        self.store = None

    def setup(self, _tracer):
        pass

    @contextlib.contextmanager
    def pass_scope(self, tracer):
        self.store = tempfile.mkdtemp(prefix="store-", dir=self.work_dir)
        try:
            with _host_scope(tracer):
                yield
        finally:
            shutil.rmtree(self.store, ignore_errors=True)
            self.store = None

    def execute(self, op, tracer):
        designs = [DesignPoint(**d) for d in op["designs"]]
        metrics = SweepMetrics()
        with _span(tracer, "core.sweeppool.request"):
            results = run_sweep(op["workload"], designs, parallel=POOL_JOBS,
                                cache_dir=self.store, metrics=metrics)
        return results, metrics

    def settle(self, op, raw, tracer):
        results, metrics = raw
        failed = 0
        for design, result in zip(op["designs"], results):
            failed += not self.gate.point(op["workload"], design, result)
        cycles = 0
        if op["fresh"]:
            cycles = sum(r.accel_cycles for r in results
                         if not getattr(r, "is_failure", False))
        if tracer is not None:
            counts = tracer.counts
            if op["fresh"]:
                counts["pool.fresh"] += 1
                counts["pool.point_s"] += sum(metrics.point_seconds)
                counts["pool.evaluated"] += metrics.evaluated
                counts["pool.overhead_s"] += (
                    metrics.wall_seconds
                    - sum(metrics.point_seconds) / max(metrics.jobs, 1))
                counts["pool.utilization"] += metrics.worker_utilization
                for design in op["designs"]:
                    staged_point(tracer, op["workload"],
                                 DesignPoint(**design))
        outcome = _outcome(points=len(results), cycles=cycles,
                           failed=int(failed > 0))
        outcome["cls"] = "fresh" if op["fresh"] else "replay"
        return outcome

    def close(self):
        pass


class ServiceRunner:
    """service-mix: two clients (this thread and one client thread)
    against an in-process service."""

    def __init__(self, gate, work_dir):
        self.gate = gate
        self.work_dir = work_dir
        self.warm_designs = [DesignPoint(**d) for d in spec.WARM_SPACE]
        self.prewarmed = []
        self.calibration = None
        self.service = None
        self.clients = None

    def setup(self, tracer):
        kernels = (spec.WARM_KERNELS + spec.COLD_KERNELS
                   + (spec.EDP_KERNEL,))
        for workload in kernels:
            if tracer is None:
                cached_ddg(workload)
            else:
                _build_kernel(tracer, workload)
        with _span(tracer, "core.sweep.prewarm"):
            for workload in spec.WARM_KERNELS:
                results = run_sweep(workload, self.warm_designs)
                self.prewarmed += [(workload, d, r) for d, r in
                                   zip(self.warm_designs, results)]
        edp_designs = [DesignPoint(**d) for subset in spec.EDP_SUBSETS
                       for d in subset]
        with _span(tracer, "core.calibrate.calibrate"):
            self.calibration = calibrate_workload(
                spec.EDP_KERNEL, designs=edp_designs, save=False)
        self.clients = ThreadPoolExecutor(max_workers=1,
                                          thread_name_prefix="client")

    @contextlib.contextmanager
    def pass_scope(self, tracer):
        """A fresh store seeded with the pre-warmed results and the kmp
        calibration, behind a fresh service."""
        store = tempfile.mkdtemp(prefix="service-", dir=self.work_dir)
        cache = SweepCache(store)
        for workload, design, result in self.prewarmed:
            cache.put(sweep_key(workload, design), result,
                      key_payload(workload, design))
        self.calibration.save(store)
        self.service = SweepService(store, jobs=1)
        before = self.service.metrics.snapshot()
        try:
            with _host_scope(tracer):
                yield
        finally:
            if tracer is not None:
                after = self.service.metrics.snapshot()
                for name in ("hits", "joins", "dispatches", "batches"):
                    tracer.counts[f"serve.{name}"] += (after[name]
                                                       - before[name])
                engine = self.service.sweep_metrics
                tracer.counts["calibrate.fast_points"] += engine.fast_points
                tracer.counts["calibrate.pruned"] += engine.pruned
            self.service.close()
            self.service = None
            shutil.rmtree(store, ignore_errors=True)

    def _request(self, req, tracer):
        svc = self.service
        start = time.perf_counter()
        try:
            with _span(tracer, f"serve.{req['kind']}_query"):
                if req["kind"] == "warm":
                    answer = svc.query("pareto", req["workload"],
                                       designs=self.warm_designs)
                elif req["kind"] == "cold":
                    designs = [DesignPoint(**d) for d in req["designs"]]
                    answer = svc.submit(req["workload"], designs,
                                        fidelity="exact")
                else:
                    designs = [DesignPoint(**d)
                               for d in spec.EDP_SUBSETS[req["subset"]]]
                    answer = svc.query("edp", req["workload"],
                                       designs=designs, fidelity="auto")
        except Exception as exc:  # a failed request is counted, not fatal
            answer = exc
        return time.perf_counter() - start, answer

    def execute(self, op, tracer):
        """The round's second request runs on the client thread while the
        first runs here, so both start together."""
        first, second = op["requests"]
        future = self.clients.submit(self._request, second, tracer)
        return [self._request(first, tracer), future.result()]

    def settle(self, op, answers, tracer):
        gate = self.gate
        latencies = []
        points = cycles = failed = 0
        for req, (latency, answer) in zip(op["requests"], answers):
            latencies.append(latency)
            if isinstance(answer, Exception):
                gate.mismatches.append(f"{req['kind']}|{req['workload']}: "
                                       f"{answer!r}")
                failed += 1
                continue
            if tracer is not None:
                tracer.counts[f"serve.{req['kind']}_n"] += 1
                tracer.counts[f"serve.{req['kind']}_s"] += latency
            if req["kind"] == "warm":
                ok = gate.pareto(req["workload"], spec.WARM_SPACE, answer)
                points += len(spec.WARM_SPACE)
            elif req["kind"] == "cold":
                results, report = answer
                ok = all([gate.point(req["workload"], d, r)
                          for d, r in zip(req["designs"], results)])
                points += len(results)
                if report["dispatches"]:
                    cycles += sum(r.accel_cycles for r in results
                                  if not getattr(r, "is_failure", False))
                    if tracer is not None:
                        for design in req["designs"]:
                            staged_point(tracer, req["workload"],
                                         DesignPoint(**design))
            else:
                subset = spec.EDP_SUBSETS[req["subset"]]
                ok = gate.edp(req["workload"], subset, answer)
                points += len(subset)
            failed += not ok
        return _outcome(samples=latencies, points=points, cycles=cycles,
                        attempted=len(latencies), failed=failed)

    def close(self):
        if self.clients is not None:
            self.clients.shutdown(wait=True)


def make_runner(workload, gate, work_dir):
    if workload == "dma-sweep":
        return SweepRunner(gate, spec.CORE_EIGHT)
    if workload == "cache-sweep":
        return SweepRunner(gate, spec.CACHE_KERNELS)
    if workload == "pool-store":
        return PoolRunner(gate, work_dir)
    if workload == "service-mix":
        return ServiceRunner(gate, work_dir)
    raise ValueError(f"unknown workload {workload!r}")


def make_work_dir(root):
    os.makedirs(root, exist_ok=True)
    return tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=root)
