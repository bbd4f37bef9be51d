"""Fault-tolerant, resumable sweep execution (robust engine).

Every fault is injected deterministically through the
``REPRO_SWEEP_FAULT`` / ``fault=`` hook (see
:func:`repro.core.sweeppool.parse_fault_spec`), so worker crashes,
hard exits, hangs and interrupts are reproducible in-process.

Pool tests use the ``fork`` start method: behaviourally identical to
``spawn`` for the dispatcher under test, without paying interpreter
startup per worker.
"""

import json
import os
import time
import warnings

import pytest

import repro.core.sweeppool as sweeppool
from repro.core.config import SoCConfig
from repro.core.export import results_to_json
from repro.core.sweep import dma_design_space, run_sweep
from repro.core.sweeppool import (
    ENV_FAULT,
    FailedPoint,
    SweepManifest,
    SweepMetrics,
    parse_fault_spec,
    partition_results,
    run_sweep_pool,
    sweep_id,
)
from repro.errors import SweepError

WORKLOAD = "aes-aes"


def quick_designs(n=3):
    return dma_design_space("quick")[:n]


def as_json(results):
    return json.loads(results_to_json(results))


@pytest.fixture(scope="module")
def serial_json():
    """Golden serial results for the default 3-point space."""
    return as_json(run_sweep(WORKLOAD, quick_designs()))


class TestFaultSpec:
    def test_parse(self):
        assert parse_fault_spec("") == {}
        assert parse_fault_spec(None) == {}
        spec = parse_fault_spec("raise@2,exit@0,hang@1*2")
        assert spec[2][0] == "raise" and spec[0][0] == "exit"
        assert spec[1] == ("hang", 2)

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            parse_fault_spec("explode@1")
        with pytest.raises(ValueError):
            parse_fault_spec("raise")

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv(ENV_FAULT, "raise@0")
        with pytest.raises(RuntimeError, match="injected fault"):
            run_sweep_pool(WORKLOAD, quick_designs(1))

    def test_explicit_fault_overrides_env(self, monkeypatch):
        monkeypatch.setenv(ENV_FAULT, "raise@0")
        results = run_sweep_pool(WORKLOAD, quick_designs(1), fault="")
        assert not getattr(results[0], "is_failure", False)


class TestFailedPoint:
    def test_attrs_and_dict(self):
        fp = FailedPoint(WORKLOAD, quick_designs(1)[0], "RuntimeError('x')",
                         traceback="tb", attempts=3, kind="timeout")
        assert fp.is_failure
        d = fp.as_dict()
        assert d["kind"] == "timeout" and d["attempts"] == 3
        assert d["design"] == quick_designs(1)[0].to_record()
        assert "timeout" in repr(fp)

    def test_partition(self):
        fp = FailedPoint(WORKLOAD, quick_designs(1)[0], "boom")
        ok, failed = partition_results([1, fp, 2])
        assert ok == [1, 2] and failed == [fp]


class TestCollectInline:
    def test_worker_raises_becomes_failed_point(self):
        metrics = SweepMetrics()
        results = run_sweep_pool(WORKLOAD, quick_designs(), fault="raise@1",
                                 on_error="collect", metrics=metrics)
        assert isinstance(results[1], FailedPoint)
        assert results[1].kind == "error"
        assert "injected fault" in results[1].error
        assert results[1].traceback  # captured formatted traceback
        assert not getattr(results[0], "is_failure", False)
        assert not getattr(results[2], "is_failure", False)
        assert metrics.failures == 1 and metrics.evaluated == 2
        assert metrics.points == 3

    def test_default_on_error_still_raises(self):
        with pytest.raises(RuntimeError, match="injected fault"):
            run_sweep_pool(WORKLOAD, quick_designs(), fault="raise@1")

    def test_raise_after_retries_is_sweep_error(self):
        with pytest.raises(SweepError) as excinfo:
            run_sweep_pool(WORKLOAD, quick_designs(), fault="raise@1",
                           retries=1)
        failure = excinfo.value.failure
        assert isinstance(failure, FailedPoint)
        assert failure.attempts == 2

    def test_retry_recovers_transient_fault(self):
        metrics = SweepMetrics()
        results = run_sweep_pool(WORKLOAD, quick_designs(),
                                 fault="raise@0*1", retries=1,
                                 on_error="collect", metrics=metrics)
        ok, failed = partition_results(results)
        assert len(ok) == 3 and not failed
        assert metrics.retries == 1 and metrics.failures == 0

    def test_failures_never_cached(self, tmp_path):
        run_sweep_pool(WORKLOAD, quick_designs(), fault="raise@1",
                       on_error="collect", cache_dir=str(tmp_path))
        cache = sweeppool.SweepCache(str(tmp_path))
        assert len(cache) == 2  # only the two successes

    def test_ordering_preserved(self):
        designs = quick_designs()
        results = run_sweep_pool(WORKLOAD, designs, fault="raise@0,raise@2",
                                 on_error="collect")
        assert isinstance(results[0], FailedPoint)
        assert isinstance(results[2], FailedPoint)
        assert results[1].design.key() == designs[1].key()


class TestCollectPool:
    def test_worker_raises(self, serial_json):
        metrics = SweepMetrics()
        results = run_sweep_pool(WORKLOAD, quick_designs(), jobs=2,
                                 mp_context="fork", fault="raise@1",
                                 on_error="collect", metrics=metrics)
        assert isinstance(results[1], FailedPoint)
        assert results[1].kind == "error"
        assert metrics.failures == 1 and metrics.evaluated == 2
        ok, _failed = partition_results(results)
        assert as_json(ok) == [serial_json[0], serial_json[2]]

    def test_worker_hard_exit_is_worker_lost(self):
        metrics = SweepMetrics()
        results = run_sweep_pool(WORKLOAD, quick_designs(), jobs=2,
                                 mp_context="fork", fault="exit@0",
                                 on_error="collect", metrics=metrics)
        assert isinstance(results[0], FailedPoint)
        assert results[0].kind == "worker-lost"
        ok, _failed = partition_results(results)
        assert len(ok) == 2  # the pool survived the dead worker

    def test_worker_hard_exit_retried_then_succeeds(self, serial_json):
        metrics = SweepMetrics()
        results = run_sweep_pool(WORKLOAD, quick_designs(), jobs=2,
                                 mp_context="fork", fault="exit@0*1",
                                 retries=1, on_error="collect",
                                 metrics=metrics)
        ok, failed = partition_results(results)
        assert not failed and metrics.retries == 1
        assert as_json(results) == serial_json

    def test_timeout_expiry_kills_hung_point(self):
        metrics = SweepMetrics()
        start = time.monotonic()
        results = run_sweep_pool(WORKLOAD, quick_designs(), jobs=1,
                                 mp_context="fork", fault="hang@2",
                                 timeout=1.0, on_error="collect",
                                 metrics=metrics)
        elapsed = time.monotonic() - start
        assert isinstance(results[2], FailedPoint)
        assert results[2].kind == "timeout"
        assert metrics.timeouts == 1 and metrics.failures == 1
        assert elapsed < 30  # the hung worker was killed, not waited out

    def test_timeout_on_error_raise(self):
        with pytest.raises(SweepError, match="timeout"):
            run_sweep_pool(WORKLOAD, quick_designs(), jobs=1,
                           mp_context="fork", fault="hang@0", timeout=1.0)

    def test_pool_failure_falls_back_to_serial(self, monkeypatch,
                                               serial_json):
        def no_workers(ctx):
            raise OSError("cannot fork")
        monkeypatch.setattr(sweeppool, "_start_worker", no_workers)
        metrics = SweepMetrics()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results = run_sweep_pool(WORKLOAD, quick_designs(), jobs=2,
                                     mp_context="fork", on_error="collect",
                                     metrics=metrics)
        assert any("falling back to serial" in str(w.message)
                   for w in caught)
        assert as_json(results) == serial_json
        assert metrics.evaluated == 3


class TestInterruptAndResume:
    def test_keyboard_interrupt_flushes_then_resume(self, tmp_path,
                                                    serial_json):
        designs = quick_designs()

        def interrupt_after_first(done, total):
            if done == 1:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_sweep_pool(WORKLOAD, designs, cache_dir=str(tmp_path),
                           progress=interrupt_after_first)
        # The completed point was flushed before the interrupt ...
        doc = SweepManifest.peek(str(tmp_path), WORKLOAD, designs)
        assert doc["done"] == 1 and doc["pending"] == 2
        # ... and resume re-evaluates only the other two.
        metrics = SweepMetrics()
        results = run_sweep_pool(WORKLOAD, designs, cache_dir=str(tmp_path),
                                 metrics=metrics)
        assert metrics.cache_hits == 1 and metrics.evaluated == 2
        assert as_json(results) == serial_json

    def test_resume_after_partial_failure(self, tmp_path, serial_json):
        designs = quick_designs()
        run_sweep_pool(WORKLOAD, designs, cache_dir=str(tmp_path),
                       fault="raise@2", on_error="collect")
        doc = SweepManifest.peek(str(tmp_path), WORKLOAD, designs)
        assert doc["done"] == 2 and doc["failed"] == 1
        assert doc["entries"][2]["error"].startswith("RuntimeError")
        metrics = SweepMetrics()
        results = run_sweep_pool(WORKLOAD, designs, cache_dir=str(tmp_path),
                                 metrics=metrics)
        assert metrics.evaluated == 1  # exactly the failed point
        assert metrics.cache_hits == 2
        assert as_json(results) == serial_json
        doc = SweepManifest.peek(str(tmp_path), WORKLOAD, designs)
        assert doc["done"] == 3 and doc["failed"] == 0

    def test_bad_on_error_rejected(self):
        with pytest.raises(ValueError, match="on_error"):
            run_sweep_pool(WORKLOAD, quick_designs(1), on_error="ignore")


class TestManifest:
    def test_sweep_id_stable_and_sensitive(self):
        designs = quick_designs(2)
        assert sweep_id(WORKLOAD, designs) == sweep_id(WORKLOAD, designs)
        assert sweep_id(WORKLOAD, designs) != sweep_id("nw-nw", designs)
        assert sweep_id(WORKLOAD, designs) != \
            sweep_id(WORKLOAD, designs, SoCConfig(bus_width_bits=64))
        assert sweep_id(WORKLOAD, designs) != \
            sweep_id(WORKLOAD, quick_designs(3))

    def test_mark_and_peek_roundtrip(self, tmp_path):
        designs = quick_designs(2)
        manifest = SweepManifest(str(tmp_path), WORKLOAD, designs)
        manifest.mark(0, "done")
        manifest.mark(1, "failed", attempts=2, kind="timeout",
                      error="too slow")
        doc = SweepManifest.peek(str(tmp_path), WORKLOAD, designs)
        assert doc["done"] == 1 and doc["failed"] == 1
        assert doc["entries"][1]["kind"] == "timeout"

    def test_failed_entries_name_their_design(self, tmp_path, monkeypatch):
        # Regression: entries named the design by repr, which for a DMA
        # design omits the pipelining mode, so these two read the same.
        base = quick_designs(1)[0]
        designs = [base.replace(pipelining="off"),
                   base.replace(pipelining="modulo")]
        monkeypatch.setenv(ENV_FAULT, "raise@0,raise@1")
        run_sweep_pool(WORKLOAD, designs, cache_dir=str(tmp_path),
                       on_error="collect")
        entries = SweepManifest.peek(str(tmp_path), WORKLOAD,
                                     designs)["entries"]
        assert [e["status"] for e in entries] == ["failed", "failed"]
        assert entries[0]["design"] != entries[1]["design"]
        assert [e["design"] for e in entries] == \
            [d.to_record() for d in designs]

    def test_peek_missing_is_none(self, tmp_path):
        assert SweepManifest.peek(str(tmp_path), WORKLOAD,
                                  quick_designs(1)) is None

    def test_no_stray_tmp_files(self, tmp_path):
        manifest = SweepManifest(str(tmp_path), WORKLOAD, quick_designs(1))
        manifest.save()
        stray = [f for _d, _s, fs in os.walk(str(tmp_path))
                 for f in fs if f.endswith(".tmp")]
        assert stray == []


class TestFaultFreeParity:
    """The robustness layer must not perturb a fault-free sweep."""

    def test_inline_collect_bit_identical_to_serial(self, serial_json):
        results = run_sweep_pool(WORKLOAD, quick_designs(),
                                 on_error="collect", retries=2)
        assert as_json(results) == serial_json

    def test_pool_robust_bit_identical_to_serial(self, serial_json):
        metrics = SweepMetrics()
        results = run_sweep_pool(WORKLOAD, quick_designs(), jobs=2,
                                 mp_context="fork", on_error="collect",
                                 retries=2, timeout=600.0, metrics=metrics)
        assert as_json(results) == serial_json
        assert metrics.failures == 0 and metrics.retries == 0

    def test_run_sweep_threads_robust_knobs(self, serial_json):
        metrics = SweepMetrics()
        results = run_sweep(WORKLOAD, quick_designs(), on_error="collect",
                            retries=1, metrics=metrics)
        assert as_json(results) == serial_json
        assert metrics.evaluated == 3


class TestDiagnosticSweepRobustness:
    """Profiled, stats-dumping and checked sweeps run inline through
    their own ``evaluate`` task runner, so they share the robust layer."""

    def test_diagnostic_sweep_fills_metrics(self):
        from repro.sim.profiling import EventProfiler
        metrics = SweepMetrics()
        results = run_sweep(WORKLOAD, quick_designs(2), metrics=metrics,
                            profiler=EventProfiler())
        assert len(results) == 2
        assert metrics.points == 2 and metrics.evaluated == 2
        assert metrics.jobs == 1
        assert metrics.wall_seconds > 0
        assert len(metrics.point_seconds) == 2

    def test_diagnostic_sweep_collects_faults(self):
        from repro.sim.profiling import EventProfiler
        metrics = SweepMetrics()
        results = run_sweep(WORKLOAD, quick_designs(2), metrics=metrics,
                            profiler=EventProfiler(), on_error="collect",
                            fault="raise@0")
        assert isinstance(results[0], FailedPoint)
        assert metrics.failures == 1 and metrics.evaluated == 1

    def test_diagnostic_sweep_retries(self):
        from repro.sim.profiling import EventProfiler
        metrics = SweepMetrics()
        results = run_sweep(WORKLOAD, quick_designs(2), metrics=metrics,
                            profiler=EventProfiler(), on_error="collect",
                            retries=1, fault="raise@1*1")
        ok, failed = partition_results(results)
        assert len(ok) == 2 and not failed
        assert metrics.retries == 1

    def test_diagnostic_results_match_plain_and_pooled(self, tmp_path):
        from repro.check import Checker
        from repro.core.sweep import cache_design_space
        from repro.sim.profiling import EventProfiler
        designs = dma_design_space("quick") + cache_design_space("quick")
        plain = results_to_json(run_sweep(WORKLOAD, designs))
        pooled = results_to_json(run_sweep_pool(
            WORKLOAD, designs, jobs=2, mp_context="fork"))
        diagnostic = results_to_json(run_sweep(
            WORKLOAD, designs, profiler=EventProfiler(), check=Checker(),
            dump_stats=str(tmp_path)))
        assert plain == pooled == diagnostic
        assert len(list(tmp_path.iterdir())) == len(designs)


def _dump(directory, index=0):
    with open(os.path.join(directory, f"{WORKLOAD}-{index:04d}.json")) as f:
        return json.load(f)


class TestDumpStatsRetry:
    """A retried point dumps the stats of its successful attempt only."""

    def test_retry_after_registration_succeeds(self, tmp_path,
                                               monkeypatch):
        from repro.core.soc import SoC
        designs = quick_designs(1)
        clean = str(tmp_path / "clean")
        run_sweep(WORKLOAD, designs, dump_stats=clean)

        real_run = SoC.run
        calls = []

        def flaky_run(self):
            # run_design registers the SoC's stats before calling run(),
            # so this fails an attempt after registration.
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("transient failure after reg_stats")
            return real_run(self)

        monkeypatch.setattr(SoC, "run", flaky_run)
        retried = str(tmp_path / "retried")
        metrics = SweepMetrics()
        results = run_sweep(WORKLOAD, designs, dump_stats=retried,
                            retries=1, on_error="collect", metrics=metrics)
        ok, failed = partition_results(results)
        assert len(ok) == 1 and not failed
        assert metrics.retries == 1
        assert _dump(retried) == _dump(clean)

    def test_point_failing_every_attempt_writes_no_stats(self, tmp_path):
        dump = str(tmp_path / "stats")
        results = run_sweep(WORKLOAD, quick_designs(2), dump_stats=dump,
                            retries=1, on_error="collect", fault="raise@0")
        assert isinstance(results[0], FailedPoint)
        assert sorted(os.listdir(dump)) == [f"{WORKLOAD}-0001.json"]


class TestConsumers:
    def test_sweep_pareto_filters_failures(self):
        from repro.core.pareto import sweep_pareto
        frontier, optimum, results = sweep_pareto(
            WORKLOAD, quick_designs(), on_error="collect")
        # fault-free: everything succeeds, all three shapes populated
        assert len(results) == 3 and frontier and optimum
        frontier, optimum, results = sweep_pareto(
            WORKLOAD, quick_designs(), on_error="collect", retries=0,
            metrics=None, parallel=None, cache_dir=None)
        assert optimum.edp == min(r.edp for r in results)

    def test_sweep_pareto_with_failed_points(self, monkeypatch):
        from repro.core.pareto import sweep_pareto
        monkeypatch.setenv(ENV_FAULT, "raise@0")
        frontier, optimum, results = sweep_pareto(
            WORKLOAD, quick_designs(), on_error="collect")
        assert isinstance(results[0], FailedPoint)
        assert all(not getattr(r, "is_failure", False) for r in frontier)
        assert optimum.edp == min(
            r.edp for r in partition_results(results)[0])

    def test_sweep_pareto_without_successes_has_no_optimum(self):
        from repro.core.pareto import sweep_pareto
        frontier, optimum, results = sweep_pareto(
            WORKLOAD, quick_designs(2), on_error="collect",
            fault="raise@0,raise@1")
        assert frontier == [] and optimum is None
        assert all(isinstance(r, FailedPoint) for r in results)

    def test_scenario_optimum_with_failures(self, monkeypatch):
        from repro.core.scenarios import SCENARIOS, run_scenario_optimum
        monkeypatch.setenv(ENV_FAULT, "raise@0")
        optimum, results = run_scenario_optimum(
            WORKLOAD, SCENARIOS["dma32"], density="quick",
            on_error="collect")
        assert isinstance(results[0], FailedPoint)
        assert not getattr(optimum, "is_failure", False)

    def test_figures_drop_failures_under_collect(self, monkeypatch):
        from repro.core import figures
        monkeypatch.setenv(ENV_FAULT, "raise@0")
        figures.set_sweep_options(on_error="collect")
        try:
            results = figures._sweep(WORKLOAD, quick_designs())
        finally:
            figures.set_sweep_options()
        assert len(results) == 2
        assert all(not getattr(r, "is_failure", False) for r in results)

    def test_multi_solo_results_collect(self):
        from repro.core.config import DesignPoint
        from repro.core.multi import MultiAcceleratorSoC
        soc = MultiAcceleratorSoC([
            (WORKLOAD, DesignPoint(lanes=1, partitions=1)),
            ("nw-nw", DesignPoint(lanes=1, partitions=1)),
        ])
        soc.run()
        slowdowns = soc.contention_slowdowns(on_error="collect")
        assert len(slowdowns) == 2
        assert all(s is not None and s >= 0.99 for s in slowdowns)
