"""Multi-accelerator SoCs on a shared platform."""

import pytest

from repro.core.config import DesignPoint, SoCConfig
from repro.core.multi import MultiAcceleratorSoC, run_pair
from repro.core.soc import Platform, SoC


def small_dma(lanes=2):
    return DesignPoint(lanes=lanes, partitions=lanes)


class TestPlatformSharing:
    def test_disjoint_address_regions(self):
        plat = Platform()
        a = SoC("aes-aes", small_dma(), platform=plat)
        b = SoC("kmp", small_dma(), platform=plat)
        regions = []
        for soc in (a, b):
            for name, base in soc.phys_base.items():
                size = soc.trace.arrays[name].size_bytes
                regions.append((base, base + size))
        regions.sort()
        for (s1, e1), (s2, e2) in zip(regions, regions[1:]):
            assert e1 <= s2, "array regions overlap"

    def test_unique_accel_ids(self):
        plat = Platform()
        socs = [SoC("aes-aes", small_dma(), platform=plat) for _ in range(3)]
        assert len({s.accel_id for s in socs}) == 3

    def test_cfg_with_platform_rejected(self):
        from repro.errors import SimulationError
        with pytest.raises(SimulationError):
            SoC("aes-aes", small_dma(), cfg=SoCConfig(), platform=Platform())


class TestConcurrentOffloads:
    def test_both_complete(self):
        soc = run_pair("aes-aes", small_dma(), "kmp", small_dma())
        assert len(soc.results) == 2
        assert all(r.total_ticks > 0 for r in soc.results)
        assert soc.makespan_ticks() == max(r.total_ticks
                                           for r in soc.results)

    def test_functional_results_still_correct(self):
        from repro.workloads import cached_trace, get_workload
        run_pair("aes-aes", small_dma(), "sort-merge", small_dma())
        get_workload("aes-aes").verify(cached_trace("aes-aes"))
        get_workload("sort-merge").verify(cached_trace("sort-merge"))

    def test_contention_slows_both(self):
        soc = run_pair("md-knn", small_dma(4), "fft-transpose", small_dma(4))
        slowdowns = soc.contention_slowdowns()
        assert all(s >= 0.99 for s in slowdowns)
        assert any(s > 1.02 for s in slowdowns)

    def test_mixed_interfaces_coexist(self):
        soc = run_pair("md-knn", small_dma(4),
                       "spmv-crs", DesignPoint(lanes=4,
                                               mem_interface="cache"))
        assert soc.results[1].stats["cache_miss_rate"] > 0

    def test_three_accelerators(self):
        soc = MultiAcceleratorSoC([
            ("aes-aes", small_dma()),
            ("kmp", small_dma()),
            ("viterbi", small_dma()),
        ])
        results = soc.run()
        assert len(results) == 3

    def test_empty_jobs_rejected(self):
        with pytest.raises(ValueError):
            MultiAcceleratorSoC([])

    def test_shared_bus_more_utilized_than_solo(self):
        shared = run_pair("md-knn", small_dma(4),
                          "stencil-stencil3d", small_dma(4))
        solo = SoC("md-knn", small_dma(4))
        solo.run()
        solo_util = solo.bus.utilization(0, solo._end_tick)
        assert shared.bus_utilization() > solo_util

    def test_deterministic(self):
        a = run_pair("aes-aes", small_dma(), "kmp", small_dma())
        b = run_pair("aes-aes", small_dma(), "kmp", small_dma())
        assert [r.total_ticks for r in a.results] == \
            [r.total_ticks for r in b.results]


class TestSoloMemoization:
    def test_solo_results_computed_once(self, monkeypatch):
        """Regression: contention_slowdowns() re-simulated every solo run
        on each call; solo results are deterministic in (job, cfg) and
        must be memoized."""
        import repro.core.multi as multi_mod
        soc = run_pair("aes-aes", small_dma(), "kmp", small_dma())
        first = soc.solo_results()
        monkeypatch.setattr(
            multi_mod, "run_design",
            lambda *a, **k: pytest.fail("solo run re-simulated"))
        assert soc.solo_results() is first
        slowdowns_a = soc.contention_slowdowns()
        slowdowns_b = soc.contention_slowdowns()
        assert slowdowns_a == slowdowns_b

    def test_slowdowns_unchanged_by_memoization(self):
        a = run_pair("aes-aes", small_dma(), "kmp", small_dma())
        b = run_pair("aes-aes", small_dma(), "kmp", small_dma())
        assert a.contention_slowdowns() == b.contention_slowdowns()

    def test_memo_keyed_on_fault_policy(self, monkeypatch):
        """Regression: solo_results() memoized unconditionally on the
        first call, so a later call with different on_error/retries knobs
        silently got results computed under the *old* policy.  The memo
        must be keyed on the knobs."""
        import repro.core.sweep as sweep_mod
        soc = run_pair("aes-aes", small_dma(), "kmp", small_dma())
        calls = []
        real_run_sweep = sweep_mod.run_sweep

        def spying(workload, designs, cfg=None, **kwargs):
            calls.append((kwargs.get("on_error"), kwargs.get("retries")))
            return real_run_sweep(workload, designs, cfg, **kwargs)

        monkeypatch.setattr(sweep_mod, "run_sweep", spying)
        soc.solo_results(on_error="raise", retries=0)
        assert calls == [("raise", 0)] * 2
        # Different knobs: must re-run, not serve the stale memo.
        soc.solo_results(on_error="collect", retries=1)
        assert calls[2:] == [("collect", 1)] * 2
        # Same knobs again: memoized, no new sweep calls.
        soc.solo_results(on_error="collect", retries=1)
        assert len(calls) == 4

    def test_zero_tick_solo_yields_none_slot(self):
        """Regression: a zero-tick solo run (degenerate workload) crashed
        contention_slowdowns() with ZeroDivisionError; it must yield None
        for that slot and leave the other ratios intact."""
        from types import SimpleNamespace

        from repro.core.metrics import RunResult
        soc = run_pair("aes-aes", small_dma(), "kmp", small_dma())
        real = soc.solo_results()
        zero = RunResult("aes-aes", small_dma(), 0, 0,
                         {"flush_only": 0, "dma_flush": 0,
                          "compute_dma": 0, "compute_only": 0, "other": 0},
                         SimpleNamespace(total_pj=0.0))
        soc._solo_results = [zero, real[1]]
        slowdowns = soc.contention_slowdowns()
        assert slowdowns[0] is None
        assert slowdowns[1] is not None and slowdowns[1] > 0

    def test_run_pair_threads_check_through(self):
        """Regression: run_pair() dropped its caller's check= on the
        floor, so 'checked' pair runs were silently unchecked."""
        from repro.check import Checker
        checker = Checker()
        soc = run_pair("aes-aes", small_dma(), "kmp", small_dma(),
                       check=checker)
        assert soc.platform.checker is checker
        assert checker.audits == 1
        assert checker.last_audit["clean"]

    def test_checked_multi_soc_audits_clean(self):
        from repro.check import Checker
        checker = Checker()
        soc = MultiAcceleratorSoC([("aes-aes", small_dma()),
                                   ("kmp", small_dma())], check=checker)
        soc.run()
        assert checker.audits == 1
        assert checker.last_audit["clean"]
        # Both accelerators' components were walked by the audit.
        assert checker.last_audit["components_audited"] >= 14


class TestDoubleBuffering:
    def test_double_buffer_runs_and_completes(self):
        from repro.core.soc import run_design
        d = DesignPoint(lanes=4, partitions=4, pipelined_dma=True,
                        dma_triggered_compute=True, double_buffer=True)
        r = run_design("stencil-stencil2d", d)
        assert r.total_ticks > 0

    def test_double_buffer_comparable_to_line_bits(self):
        """Half-array granularity changes wakeup order (which can shift
        port-arbitration winners either way) but must stay in the same
        performance regime as line-granularity bits."""
        from repro.core.soc import run_design
        base = DesignPoint(lanes=4, partitions=4, pipelined_dma=True,
                           dma_triggered_compute=True)
        fine = run_design("gemm-ncubed", base)
        coarse = run_design("gemm-ncubed",
                            base.replace(double_buffer=True))
        assert 0.7 < coarse.total_ticks / fine.total_ticks < 1.3

    def test_key_distinguishes_double_buffer(self):
        a = DesignPoint(double_buffer=False)
        b = DesignPoint(double_buffer=True)
        assert a.key() != b.key()


class TestQueueWaitSampling:
    def test_every_attached_registry_keeps_sampling(self):
        """Attaching a second registry used to move the bus's queue-wait
        sampling to it, so the first one stopped growing."""
        from repro.obs.stats import StatRegistry

        multi = MultiAcceleratorSoC([("aes-aes", small_dma()),
                                     ("kmp", DesignPoint(
                                         lanes=2, partitions=2,
                                         mem_interface="cache"))])
        registries = [StatRegistry(), StatRegistry()]
        for registry in registries:
            for soc in multi.socs:
                soc.reg_stats(registry)
        multi.run()
        counts = [r["soc.bus.queue_wait"].summary()["count"]
                  for r in registries]
        requests = registries[0].value("soc.bus.requests")
        assert counts == [requests, requests]
        assert requests > 0
