"""Object lifetime of finished runs (DESIGN.md "Object lifetime").

A finished run holds no reference cycles: dropping its handle frees the
whole SoC graph by reference counting, so the cyclic collector finds
nothing.  The edges that closed cycles are cut once the run is over, and
forward references stay, so a stats registry attached after the run
dumps the same values as one attached before it.
"""

import gc

import pytest

from repro.aladdin.accelerator import Accelerator
from repro.aladdin.scheduler import DatapathScheduler
from repro.check import Checker
from repro.core.config import DesignPoint, SoCConfig
from repro.core.multi import MultiAcceleratorSoC
from repro.core.pipeline import AcceleratorPipeline
from repro.core.soc import SoC, run_design
from repro.errors import LeakError, SimulationError
from repro.obs.stats import StatRegistry
from repro.workloads import cached_trace


def _dma(**extra):
    return DesignPoint(lanes=2, partitions=2, **extra)


def _cache(**extra):
    return DesignPoint(lanes=2, mem_interface="cache", cache_size_kb=4,
                       **extra)


DESIGNS = {
    "dma-plain": _dma(pipelined_dma=False, dma_triggered_compute=False),
    "dma-pipelined": _dma(pipelined_dma=True, dma_triggered_compute=False),
    "dma-triggered": _dma(pipelined_dma=True, dma_triggered_compute=True),
    "dma-double-buffer": _dma(double_buffer=True),
    "dma-off": _dma(pipelining="off"),
    "dma-modulo": _dma(pipelining="modulo"),
    "cache-stride": _cache(prefetcher="stride"),
    "cache-no-prefetch": _cache(prefetcher="none"),
    "cache-perfect": _cache(perfect_memory=True),
    "cache-off": _cache(pipelining="off"),
    "cache-modulo": _cache(pipelining="modulo"),
}

PIPELINES = {
    "dma-depth2": (["aes-aes", "kmp"], "dma", False),
    "dma-depth3-double": (["aes-aes", "kmp", "viterbi"], "dma", True),
    "cache-depth2": (["aes-aes", "kmp"], "cache", False),
    "cache-depth3": (["aes-aes", "kmp", "viterbi"], "cache", False),
}


def _cyclic_garbage(run):
    """Objects the cyclic collector finds after ``run()``'s result is
    dropped.  A first call warms the per-trace memos outside the window.
    """
    run()
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


def _pipeline(stages, handoff, double_buffer, check=None):
    return AcceleratorPipeline(stages, handoff=handoff, buffer_bytes=512,
                               double_buffer=double_buffer, check=check)


class TestCycleFreeRuns:
    @pytest.mark.parametrize("name", sorted(DESIGNS))
    def test_run_design(self, name):
        design = DESIGNS[name]
        assert _cyclic_garbage(lambda: run_design("aes-aes", design)) == 0

    @pytest.mark.parametrize("name", ["dma-triggered", "cache-stride"])
    def test_checked_run_design(self, name):
        design = DESIGNS[name]
        assert _cyclic_garbage(
            lambda: run_design("aes-aes", design, check=True)) == 0

    def test_background_traffic(self):
        cfg = SoCConfig(background_traffic=True)
        assert _cyclic_garbage(
            lambda: run_design("aes-aes", _dma(), cfg)) == 0

    def test_registry_and_profiler_attached(self):
        from repro.sim.profiling import EventProfiler

        def run():
            return run_design("aes-aes", _dma(), registry=StatRegistry(),
                              profiler=EventProfiler())
        assert _cyclic_garbage(run) == 0

    @pytest.mark.parametrize("name", sorted(PIPELINES))
    def test_pipeline(self, name):
        stages, handoff, double_buffer = PIPELINES[name]
        assert _cyclic_garbage(
            lambda: _pipeline(stages, handoff, double_buffer).run()) == 0

    def test_multi_accelerator(self):
        jobs = [("aes-aes", DESIGNS["dma-triggered"]),
                ("kmp", DESIGNS["cache-stride"])]
        assert _cyclic_garbage(
            lambda: MultiAcceleratorSoC(jobs).run()) == 0

    @pytest.mark.parametrize("pipelining", ["barriers", "off", "modulo"])
    def test_run_isolated(self, pipelining):
        trace = cached_trace("aes-aes")
        assert _cyclic_garbage(
            lambda: Accelerator(trace, 2, 2,
                                pipelining=pipelining).run_isolated()) == 0

    def test_platform_runs_once(self):
        soc = SoC("aes-aes", DESIGNS["dma-triggered"])
        soc.run()
        with pytest.raises(SimulationError, match="already ran"):
            soc.platform.run()

    def test_checker_outlives_its_platform(self):
        """The checker refers to its platform weakly: the platform is freed
        with the run, and the accumulated counters stay readable."""
        checker = Checker()
        run_design("aes-aes", DESIGNS["cache-stride"], check=checker)
        assert checker.platform is None
        assert checker.invariant_checks > 0
        assert checker.health_report()["audits"] == 1
        with pytest.raises(LeakError, match="freed"):
            checker.audit()


def _dump(registry):
    """Every getter-backed stat and formula by name.  Sampled
    distributions (``soc.bus.queue_wait``) only see what happens while
    they are attached, so they are left out."""
    doc = {name: value for name, value in registry.to_json().items()
           if registry[name].kind != "distribution"}
    assert doc, "nothing registered"
    return doc


class TestPostRunInspection:
    """Cutting an edge that a getter reads would show up here: stats
    registered after the run must match those registered before it."""

    @pytest.mark.parametrize("name", ["dma-triggered", "dma-modulo",
                                      "cache-stride", "cache-perfect"])
    def test_soc(self, name):
        soc = SoC("aes-aes", DESIGNS[name])
        before = soc.reg_stats(StatRegistry())
        soc.run()
        after = soc.reg_stats(StatRegistry())
        assert _dump(after) == _dump(before)
        assert after.value("soc.sim.events") > 0

    @pytest.mark.parametrize("name", sorted(PIPELINES))
    def test_pipeline(self, name):
        pipe = _pipeline(*PIPELINES[name])
        before = pipe.reg_stats(StatRegistry())
        pipe.run()
        after = pipe.reg_stats(StatRegistry())
        assert _dump(after) == _dump(before)
        assert after.value("pipeline.link0.handoffs") > 0

    def test_multi_accelerator(self):
        multi = MultiAcceleratorSoC([("aes-aes", DESIGNS["dma-triggered"]),
                                     ("kmp", DESIGNS["cache-stride"])])

        def register():
            registry = StatRegistry()
            for soc in multi.socs:
                soc.reg_stats(registry)
            return registry

        before = register()
        multi.run()
        after = register()
        assert _dump(after) == _dump(before)
        assert after.value("accel1.cache.hits") > 0

    def test_run_isolated_scheduler(self, monkeypatch):
        before = StatRegistry()
        start = DatapathScheduler.start

        def start_registered(sched):
            sched.reg_stats(before, "sched")
            start(sched)

        monkeypatch.setattr(DatapathScheduler, "start", start_registered)
        result = Accelerator(cached_trace("aes-aes"), 2, 2).run_isolated()
        after = StatRegistry()
        result.scheduler.reg_stats(after, "sched")
        assert _dump(after) == _dump(before)
        assert after.value("sched.completed") > 0
