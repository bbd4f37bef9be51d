"""End-of-run leak audits (repro.check.audit) and the Checker facade."""

import json

import pytest

from repro.check import Checker, audit_platform, enabled_from_env, \
    resolve_check
from repro.core.config import DesignPoint, SoCConfig
from repro.core.soc import Platform, SoC, run_design
from repro.errors import LeakError, SimulationError
from repro.memory.tlb import AcceleratorTLB


def small_dma(lanes=2):
    return DesignPoint(lanes=lanes, partitions=lanes)


class TestCleanRuns:
    def test_dma_run_audits_clean(self):
        checker = Checker()
        result = run_design("aes-aes", small_dma(), check=checker)
        assert result.total_ticks > 0
        assert checker.audits == 1
        assert checker.last_audit["clean"]
        assert checker.last_audit["components_audited"] >= 8
        assert checker.invariant_checks > 0
        assert checker.violations == 0

    def test_cache_run_audits_clean(self):
        checker = Checker()
        design = DesignPoint(lanes=2, mem_interface="cache",
                             cache_size_kb=4)
        run_design("aes-aes", design, check=checker)
        assert checker.last_audit["clean"]
        # Cache flow exercises the accelerator-side MSHR/TLB audits too.
        components = checker.last_audit["components_audited"]
        assert components >= 9

    def test_checker_accumulates_across_runs(self):
        checker = Checker()
        run_design("aes-aes", small_dma(), check=checker)
        first = checker.invariant_checks
        run_design("kmp", small_dma(), check=checker)
        assert checker.audits == 2
        assert checker.invariant_checks > first

    def test_audit_platform_shape(self):
        soc = SoC("aes-aes", small_dma(), check=True)
        soc.run()
        report = audit_platform(soc.platform)
        assert report["clean"]
        assert report["leaks"] == []
        assert report["tick"] == soc.platform.sim.now


class TestLeakDetection:
    def test_leaked_mshr_entry_raises(self):
        checker = Checker()
        soc = SoC("aes-aes", small_dma(), check=checker)
        soc.run()
        soc.platform.cpu_cache.mshrs.allocate(0x4000)
        with pytest.raises(LeakError, match="mshr_leak") as exc:
            checker.audit()
        leaks = exc.value.leaks
        assert leaks[0]["component"] == "soc.cpu_cache"
        assert "0x4000" in leaks[0]["detail"]

    def test_pending_ready_bit_waiter_raises(self):
        checker = Checker()
        soc = SoC("gemm-ncubed", small_dma(), check=checker)
        soc.run()
        bits = next(iter(soc.ready_bits.values()))
        bits._waiters[0] = [lambda: None]
        with pytest.raises(LeakError, match="pending_waiters"):
            checker.audit()

    def test_pending_domain_fetch_raises(self):
        checker = Checker()
        soc = SoC("aes-aes", small_dma(), check=checker)
        soc.run()
        soc.platform.domain._pending[0x100] = []
        with pytest.raises(LeakError, match="pending_fetches"):
            checker.audit()

    def test_blocked_count_without_tlb_hits_raises(self, monkeypatch):
        """A refused-access run counted into ``cache.blocked`` but not
        into ``tlb.hits`` breaks the TLB/cache conservation identity."""
        def rehit(tlb, pages, count):
            for vpn in pages:
                tlb._tlb.move_to_end(vpn)

        monkeypatch.setattr(AcceleratorTLB, "rehit", rehit)
        design = DesignPoint(lanes=4, partitions=4, mem_interface="cache",
                             cache_size_kb=2, cache_ports=4,
                             prefetcher="none", pipelining="off")
        soc = SoC("backprop", design, SoCConfig(mshrs=2), check=Checker())
        with pytest.raises(LeakError, match="tlb_cache_conservation"):
            soc.run()

    def test_issued_access_memory_never_saw_raises(self):
        """A store the datapath counts but neither the cache nor the
        scratchpad accepted breaks the access conservation identity."""
        design = DesignPoint(lanes=4, partitions=4, mem_interface="cache",
                             cache_size_kb=4)
        checker = Checker()
        soc = SoC("nw-nw", design, check=checker)
        soc.run()
        assert soc.spad.accesses > 0 and soc.accel_cache.reads > 0
        soc.scheduler.issued_stores += 1
        with pytest.raises(LeakError, match="datapath_access_conservation"):
            checker.audit()

    def test_perfect_memory_is_exempt_from_access_conservation(self):
        design = DesignPoint(mem_interface="cache", perfect_memory=True)
        checker = Checker()
        soc = SoC("gemm-ncubed", design, check=checker)
        soc.run()
        assert soc.scheduler.issued_loads > 0
        assert soc.accel_cache.reads == 0
        assert checker.last_audit["clean"]

    def test_unattached_checker_rejects_audit(self):
        with pytest.raises(LeakError, match="never attached"):
            Checker().audit()


class TestSchedulerQueueAudit:
    """The scheduler audit inspects the actual per-lane ready queues and
    the modulo gate state, not just the ``_num_ready`` counter."""

    def test_stranded_ready_node_is_a_leak(self):
        checker = Checker()
        soc = SoC("aes-aes", small_dma(), check=checker)
        soc.run()
        soc.scheduler._ready[0][0].append(0)
        soc.scheduler._num_ready += 1
        with pytest.raises(LeakError, match="nodes_ready_unissued"):
            checker.audit()

    def test_queue_leak_found_without_counter(self):
        """Regression: the audit used to read only ``_num_ready`` — a
        node stranded in a lane queue while the counter reads 0 (the
        wedged-pipelined-schedule shape) went unreported."""
        checker = Checker()
        soc = SoC("aes-aes", small_dma(), check=checker)
        soc.run()
        soc.scheduler._ready[0][0].append(0)  # counter left at 0
        with pytest.raises(LeakError) as exc:
            checker.audit()
        kinds = {leak["kind"] for leak in exc.value.leaks}
        assert "nodes_ready_unissued" in kinds
        assert "ready_counter_drift" in kinds

    def test_counter_drift_alone_is_a_leak(self):
        checker = Checker()
        soc = SoC("aes-aes", small_dma(), check=checker)
        soc.run()
        soc.scheduler._num_ready = 3  # queues are empty
        with pytest.raises(LeakError, match="ready_counter_drift"):
            checker.audit()

    def test_parked_node_is_a_leak(self):
        checker = Checker()
        soc = SoC("aes-aes", small_dma(), check=checker)
        soc.run()
        soc.scheduler._round_parked[1] = [0]
        with pytest.raises(LeakError, match="nodes_parked"):
            checker.audit()

    def test_unopened_ii_gate_is_a_leak(self):
        checker = Checker()
        design = small_dma(lanes=2).replace(pipelining="modulo")
        soc = SoC("aes-aes", design, check=checker)
        soc.run()
        sched = soc.scheduler
        if sched._round_started is None:
            pytest.skip("workload degenerated to a single round")
        sched.done = False  # forge a wedged run
        sched._round_started[-1] = False
        with pytest.raises(LeakError) as exc:
            checker.audit()
        kinds = {leak["kind"] for leak in exc.value.leaks}
        assert "ii_gates_unopened" in kinds

    def test_clean_modulo_run_audits_clean(self):
        checker = Checker()
        design = small_dma(lanes=2).replace(pipelining="modulo")
        result = run_design("aes-aes", design, check=checker)
        assert result.total_ticks > 0
        assert checker.last_audit["clean"]


class TestResolveAndEnv:
    def test_resolve_passthrough_and_bool(self):
        checker = Checker()
        assert resolve_check(checker) is checker
        assert isinstance(resolve_check(True), Checker)
        assert resolve_check(False) is None

    def test_resolve_none_honors_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECK", raising=False)
        assert resolve_check(None) is None
        monkeypatch.setenv("REPRO_CHECK", "1")
        assert isinstance(resolve_check(None), Checker)

    def test_env_falsy_spellings(self):
        for value in ("", "0", "false", "off", "no", "False", " OFF "):
            assert not enabled_from_env({"REPRO_CHECK": value})
        assert enabled_from_env({"REPRO_CHECK": "1"})
        assert enabled_from_env({"REPRO_CHECK": "yes"})
        assert not enabled_from_env({})

    def test_platform_rejects_per_soc_check(self):
        plat = Platform()
        with pytest.raises(SimulationError, match="shared Platform"):
            SoC("aes-aes", small_dma(), platform=plat, check=True)


class TestHealthReport:
    def test_report_fields(self):
        checker = Checker()
        run_design("aes-aes", small_dma(), check=checker)
        report = checker.health_report()
        assert report["enabled"]
        assert report["audits"] == 1
        assert report["violations"] == 0
        assert report["audit"]["clean"]

    def test_dump_json(self, tmp_path):
        checker = Checker()
        run_design("aes-aes", small_dma(), check=checker)
        path = tmp_path / "health.json"
        checker.dump_json(path)
        doc = json.loads(path.read_text())
        assert doc["enabled"] is True
        assert doc["invariant_checks"] > 0
        assert doc["audit"]["leaks"] == []

    def test_reg_stats_exposed(self):
        from repro.obs.stats import StatRegistry
        checker = Checker()
        registry = StatRegistry()
        run_design("aes-aes", small_dma(), check=checker,
                   registry=registry)
        doc = registry.to_json()
        assert doc["check.invariant_checks"] > 0
        assert doc["check.audits"] == 1
        assert doc["check.violations"] == 0


class TestHandoffLinkAudit:
    """Pipeline handoff buffers join the leak audit."""

    def _pipe(self, **kwargs):
        from repro.core.pipeline import AcceleratorPipeline
        kwargs.setdefault("buffer_bytes", 512)
        return AcceleratorPipeline(["aes-aes", "kmp"], check=False,
                                   **kwargs)

    def test_clean_pipeline_audits_clean(self):
        pipe = self._pipe()
        pipe.run()
        report = audit_platform(pipe.platform)
        assert report["clean"]
        # The link was walked as its own component.
        assert report["components_audited"] >= 15

    def test_unconsumed_chunk_is_a_leak(self):
        pipe = self._pipe()
        pipe.run()
        link = pipe.links[0]
        link.bits.set_range(0, link.chunk_bytes)  # forge leftover data
        report = audit_platform(pipe.platform)
        assert not report["clean"]
        kinds = {leak["kind"] for leak in report["leaks"]}
        assert "unconsumed_handoff_data" in kinds

    def test_parked_consumer_is_a_leak(self):
        pipe = self._pipe()
        pipe.run()
        link = pipe.links[0]
        link.bits.wait_range(0, link.chunk_bytes, lambda: None)
        report = audit_platform(pipe.platform)
        kinds = {leak["kind"] for leak in report["leaks"]}
        assert "consumer_parked" in kinds

    def test_stalled_producer_is_a_leak(self):
        pipe = self._pipe()
        pipe.run()
        link = pipe.links[0]
        link.bits.set_range(0, link.chunk_bytes)
        link.bits.wait_empty_range(0, link.chunk_bytes, lambda: None)
        report = audit_platform(pipe.platform)
        kinds = {leak["kind"] for leak in report["leaks"]}
        assert "producer_stalled" in kinds

    def test_open_stall_interval_is_a_leak(self):
        pipe = self._pipe()
        pipe.run()
        pipe.links[0].producer_stall.begin(pipe.platform.sim.now)
        report = audit_platform(pipe.platform)
        kinds = {leak["kind"] for leak in report["leaks"]}
        assert "open_busy_interval" in kinds

    def test_checker_raises_on_link_leak(self):
        """A consumer that never drains the handoff flags fails the
        checked run instead of reporting optimistic numbers.  Cache
        handoff: the drain is the consumer's consume_all at its fence."""
        from repro.check import Checker
        checker = Checker()
        pipe = self._pipe(handoff="cache")
        # Swap in a real checker post-construction so run() audits.
        pipe.platform.checker = checker
        pipe.links[0].consume_all = lambda: None  # "forgets" to drain
        with pytest.raises(LeakError):
            pipe.run()
