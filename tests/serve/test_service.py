"""SweepService: dedup lifecycle (hit / join / dispatch) and queries."""

import threading

import pytest

from repro.core.config import DesignPoint
from repro.core.export import result_record, results_to_json
from repro.core.sweep import dma_design_space, run_sweep
from repro.core.sweeppool import SweepMetrics, sweep_key
from repro.errors import CalibrationError
from repro.serve import ServiceMetrics, SweepService

WORKLOAD = "aes-aes"


def quick_designs(n=3):
    return dma_design_space("quick")[:n]


@pytest.fixture
def service(tmp_path):
    svc = SweepService(str(tmp_path))
    yield svc
    svc.close()


class TestSubmit:
    def test_cold_points_dispatch_once_each(self, service):
        designs = quick_designs(3)
        results, report = service.submit(WORKLOAD, designs)
        assert report["dispatches"] == 3
        assert report["hits"] == report["joins"] == 0
        serial = run_sweep(WORKLOAD, designs)
        assert results_to_json(results) == results_to_json(serial)

    def test_warm_points_hit(self, service):
        designs = quick_designs(2)
        first, _report = service.submit(WORKLOAD, designs)
        second, report = service.submit(WORKLOAD, designs)
        assert report == {"points": 2, "hits": 2, "joins": 0,
                          "dispatches": 0, "failures": 0, "tier": "exact"}
        assert results_to_json(first) == results_to_json(second)

    def test_prewarmed_store_hits_without_service_involvement(
            self, tmp_path):
        # Results cached by a plain run_sweep (another process, CI
        # warm-up) must be hits, not re-dispatches.
        designs = quick_designs(2)
        expected = run_sweep(WORKLOAD, designs, cache_dir=str(tmp_path))
        with SweepService(str(tmp_path)) as svc:
            results, report = svc.submit(WORKLOAD, designs)
            assert report["hits"] == 2
            assert report["dispatches"] == 0
        assert results_to_json(results) == results_to_json(expected)

    def test_duplicate_points_in_one_request_join(self, service):
        d = quick_designs(1)[0]
        results, report = service.submit(WORKLOAD, [d, d, d])
        assert report["dispatches"] == 1
        assert report["joins"] == 2
        assert len({results_to_json([r]) for r in results}) == 1

    def test_concurrent_overlapping_clients_dedup(self, tmp_path):
        # K clients, overlapping grids: every unique point simulated at
        # most once fleet-wide — the acceptance-criterion invariant.
        designs = quick_designs(4)
        grids = [designs[0:3], designs[1:4], designs[0:4], designs[2:4]]
        with SweepService(str(tmp_path)) as svc:
            outs = [None] * len(grids)
            barrier = threading.Barrier(len(grids))

            def client(i, grid):
                barrier.wait()
                outs[i] = svc.submit(WORKLOAD, grid)

            threads = [threading.Thread(target=client, args=(i, g))
                       for i, g in enumerate(grids)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            unique = {sweep_key(WORKLOAD, d) for g in grids for d in g}
            assert svc.metrics.dispatches == len(unique)
            assert svc.metrics.points == sum(len(g) for g in grids)
            assert (svc.metrics.hits + svc.metrics.joins
                    + svc.metrics.dispatches == svc.metrics.points)
        serial = {sweep_key(WORKLOAD, d): r
                  for d, r in zip(designs, run_sweep(WORKLOAD, designs))}
        for grid, (results, _report) in zip(grids, outs):
            expected = [serial[sweep_key(WORKLOAD, d)] for d in grid]
            assert results_to_json(results) == results_to_json(expected)

    def test_no_wakeup_lost_under_thread_churn(self, tmp_path,
                                               monkeypatch):
        # Eight clients hammer the queue while the dispatcher clears its
        # wakeup: a lost wakeup leaves a client waiting forever, a
        # misrouted result hands one client another's point.
        import random
        import sys
        import time
        import repro.serve.service as service_mod
        monkeypatch.setattr(service_mod, "run_sweep",
                            lambda workload, designs, cfg, **kw:
                            list(designs))
        pool = [DesignPoint(lanes=lanes, partitions=parts)
                for lanes in range(1, 9) for parts in range(1, 9)]
        outs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with SweepService(str(tmp_path)) as svc:
                def client(seed):
                    rng = random.Random(seed)
                    for _ in range(40):
                        grid = rng.sample(pool, rng.randint(1, 4))
                        results, _report = svc.submit(WORKLOAD, grid)
                        outs.append(results == grid)

                threads = [threading.Thread(target=client, args=(seed,))
                           for seed in range(8)]
                for t in threads:
                    t.start()
                deadline = time.monotonic() + 30
                for t in threads:
                    t.join(max(0.0, deadline - time.monotonic()))
                assert not any(t.is_alive() for t in threads)
                snap = svc.metrics.snapshot()
        finally:
            sys.setswitchinterval(interval)
        assert outs == [True] * 8 * 40
        assert snap["evaluated"] == snap["dispatches"] > 0
        assert (snap["hits"] + snap["joins"] + snap["dispatches"]
                == snap["points"])
        assert snap["queue_depth"] == 0

    def test_failed_point_is_collected_not_raised(self, service,
                                                  monkeypatch):
        import repro.core.sweeppool as sweeppool

        def explode(task):
            raise RuntimeError("injected")

        monkeypatch.setattr(sweeppool, "_evaluate_task", explode)
        results, report = service.submit(WORKLOAD, quick_designs(1))
        assert report["failures"] == 1
        assert getattr(results[0], "is_failure", False)
        assert "injected" in results[0].error

    def test_submit_after_close_raises(self, tmp_path):
        svc = SweepService(str(tmp_path))
        svc.close()
        with pytest.raises(RuntimeError, match="closed"):
            svc.submit(WORKLOAD, quick_designs(1))

    def test_unknown_fidelity_rejected(self, service):
        with pytest.raises(ValueError, match="fidelity"):
            service.submit(WORKLOAD, quick_designs(1), fidelity="bogus")

    def test_fast_tier_without_calibration_rejected(self, service):
        with pytest.raises(CalibrationError, match="no calibration"):
            service.submit(WORKLOAD, quick_designs(1), fidelity="fast")


class TestMetricsAttribution:
    def test_service_metrics_partition(self, service):
        designs = quick_designs(2)
        service.submit(WORKLOAD, designs)
        service.submit(WORKLOAD, designs)
        snap = service.metrics.snapshot()
        assert snap["points"] == 4
        assert snap["hits"] == 2
        assert snap["dispatches"] == 2
        assert (snap["hits"] + snap["joins"] + snap["dispatches"]
                == snap["points"])
        assert snap["latency_p50"] > 0
        assert snap["latency_p95"] >= snap["latency_p50"]

    def test_registry_names_and_descriptions_pinned(self, service):
        from repro.obs.stats import StatRegistry
        registry = StatRegistry()
        service.reg_stats(registry)
        engine = StatRegistry()
        SweepMetrics().reg_stats(engine, prefix="serve.engine")
        assert [(n, registry[n].desc) for n in registry.names()] == [
            ("serve.requests", "client requests served"),
            ("serve.points", "design points requested"),
            ("serve.hits", "points answered from the result store"),
            ("serve.store_reads", "store entries decoded from disk"),
            ("serve.joins",
             "points deduplicated onto an in-flight evaluation"),
            ("serve.dispatches",
             "points evaluated fresh (at most one per unique point)"),
            ("serve.evaluated", "dispatched points that completed"),
            ("serve.failures", "dispatched points that failed"),
            ("serve.batches", "coalesced engine batches"),
            ("serve.queue_wait_s", "summed wait from each batch's oldest "
             "queued point to the batch start (s)"),
            ("serve.queue_depth", "points queued awaiting dispatch"),
            ("serve.latency_p50", "median request latency (s)"),
            ("serve.latency_p95", "95th-percentile request latency (s)"),
        ] + [(n, engine[n].desc) for n in engine.names()]

    def test_cold_submit_never_sleeps(self, service, monkeypatch):
        # The dispatcher takes the queue the moment it wakes: no
        # coalescing sleep delays a cold point.
        import time
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        _results, report = service.submit(WORKLOAD, quick_designs(1))
        assert report["dispatches"] == 1
        assert sleeps == []

    def test_queue_wait_sums_over_batches(self, service):
        service.submit(WORKLOAD, quick_designs(1))
        first = service.metrics.snapshot()
        service.submit(WORKLOAD, quick_designs(3)[1:])
        second = service.metrics.snapshot()
        assert (first["batches"], second["batches"]) == (1, 2)
        assert 0 < first["queue_wait_s"] < second["queue_wait_s"]

    def test_reg_stats_wiring(self, service):
        from repro.obs.stats import StatRegistry
        service.submit(WORKLOAD, quick_designs(1))
        registry = StatRegistry()
        service.reg_stats(registry)
        assert registry.value("serve.dispatches") == 1
        assert registry.value("serve.queue_depth") == 0
        assert registry.value("serve.engine.evaluated") == 1

    def test_no_manifests_for_service_batches(self, service, tmp_path):
        from repro.core.sweeppool import MANIFEST_DIR
        import os
        service.submit(WORKLOAD, quick_designs(2))
        assert not os.path.exists(os.path.join(str(tmp_path),
                                               MANIFEST_DIR))


class TestServiceMetricsUnit:
    def test_bump_and_snapshot(self):
        m = ServiceMetrics()
        m.bump(requests=1, points=5, hits=2, joins=1, dispatches=2)
        m.observe_latency(0.1)
        m.observe_latency(0.3)
        snap = m.snapshot()
        assert snap["points"] == 5
        assert snap["latency_p50"] == pytest.approx(0.2)

    def test_snapshot_keys_pinned(self):
        assert list(ServiceMetrics().snapshot()) == [
            "requests", "points", "hits", "store_reads", "joins",
            "dispatches", "evaluated", "failures", "batches", "queue_wait_s",
            "queue_depth", "latency_p50", "latency_p95"]

    def test_percentiles_empty_window(self):
        m = ServiceMetrics()
        assert m.latency_p50 == 0.0
        assert m.latency_p95 == 0.0


class TestQuery:
    def test_sweep_query_evaluates_cold_points(self, service):
        designs = quick_designs(2)
        response = service.query("sweep", WORKLOAD, designs=designs)
        assert response["points"] == 2
        assert response["service"]["dispatches"] == 2
        assert len(response["results"]) == 2
        assert all(r["fidelity"] == "exact" for r in response["results"])

    def test_warm_only_query_never_simulates(self, service):
        designs = quick_designs(3)
        service.submit(WORKLOAD, designs[:2])
        before = service.metrics.dispatches
        response = service.query("sweep", WORKLOAD, designs=designs,
                                 evaluate=False)
        assert service.metrics.dispatches == before
        assert response["missing"] == 1
        assert len(response["results"]) == 2

    def test_warm_lookups_canonicalize_each_design_once(self, service,
                                                        monkeypatch):
        import repro.core.sweeppool as sweeppool
        calls = []
        real = sweeppool.canonical_design_fields

        def counting(design):
            calls.append(design)
            return real(design)

        monkeypatch.setattr(sweeppool, "canonical_design_fields", counting)
        monkeypatch.setattr(sweeppool, "_KEYS",
                            sweeppool._Memo(sweeppool.KEY_MEMO_ENTRIES))
        designs = quick_designs(3)
        service.submit(WORKLOAD, designs)
        assert calls == designs
        calls.clear()
        service.submit(WORKLOAD, designs)
        assert calls == []
        service.query("sweep", WORKLOAD, designs=designs, evaluate=False)
        assert calls == []

    def test_repeated_warm_query_decodes_and_canonicalizes_nothing(
            self, tmp_path, monkeypatch):
        import repro.core.sweeppool as sweeppool
        designs = dma_design_space("quick")
        run_sweep(WORKLOAD, designs, cache_dir=str(tmp_path))
        counts = {"canon": 0}
        real_canon = sweeppool.canonical_design_fields

        def counting_canon(design):
            counts["canon"] += 1
            return real_canon(design)

        monkeypatch.setattr(sweeppool, "canonical_design_fields",
                            counting_canon)
        with SweepService(str(tmp_path)) as svc:
            first = svc.query("pareto", WORKLOAD, space="dma",
                              density="quick")
            assert svc.cache.reads == svc.metrics.store_reads == \
                len(designs)
            counts.update(canon=0)
            second = svc.query("pareto", WORKLOAD, space="dma",
                               density="quick")
            assert svc.cache.reads == len(designs)
            assert counts == {"canon": 0}
            assert svc.metrics.store_reads == len(designs)
        assert second["service"]["hits"] == len(designs)
        assert second["frontier"] == first["frontier"]

    def test_repeated_warm_query_hashes_no_config(self, tmp_path,
                                                  monkeypatch):
        import repro.core.calibrate as calibrate
        run_sweep(WORKLOAD, dma_design_space("quick"),
                  cache_dir=str(tmp_path))
        calls = []
        real = calibrate.config_hash

        def counting(cfg=None):
            calls.append(cfg)
            return real(cfg)

        monkeypatch.setattr(calibrate, "config_hash", counting)
        with SweepService(str(tmp_path)) as svc:
            first = svc.query("pareto", WORKLOAD, space="dma",
                              density="quick")
            calls.clear()
            for _ in range(3):
                again = svc.query("pareto", WORKLOAD, space="dma",
                                  density="quick")
                assert again["frontier"] == first["frontier"]
            assert calls == []

    def test_pareto_and_edp_match_direct_reduction(self, service):
        from repro.core.pareto import edp_optimal, pareto_frontier
        designs = quick_designs(4)
        response = service.query("pareto", WORKLOAD, designs=designs)
        serial = run_sweep(WORKLOAD, designs)
        frontier = pareto_frontier(serial)
        assert len(response["frontier"]) == len(frontier)
        assert (response["edp_optimal"]["edp_js"]
                == pytest.approx(edp_optimal(serial).edp))
        edp = service.query("edp", WORKLOAD, designs=designs)
        assert edp["service"]["hits"] == 4  # second query fully warm
        assert (edp["edp_optimal"]["edp_js"]
                == response["edp_optimal"]["edp_js"])

    def test_figure_query_splits_interfaces(self, service):
        designs = (quick_designs(2)
                   + [DesignPoint(lanes=1, mem_interface="cache"),
                      DesignPoint(lanes=4, mem_interface="cache")])
        response = service.query("figure", WORKLOAD, designs=designs)
        assert set(response["interfaces"]) == {"dma", "cache"}
        for data in response["interfaces"].values():
            assert data["frontier"]
            assert data["edp_optimal"] is not None

    def test_default_space_builds_grid(self, service):
        response = service.query("edp", WORKLOAD, space="dma",
                                 density="quick", evaluate=False)
        assert response["points"] == len(dma_design_space("quick"))
        assert response["missing"] == response["points"]
        assert response["edp_optimal"] is None

    def test_bad_kind_rejected(self, service):
        with pytest.raises(ValueError, match="kind"):
            service.query("histogram", WORKLOAD)

    def test_bad_space_rejected(self, service):
        with pytest.raises(ValueError, match="space"):
            service.query("sweep", WORKLOAD, space="npu")

    def test_response_is_json_able(self, service):
        import json
        response = service.query("pareto", WORKLOAD,
                                 designs=quick_designs(2))
        assert json.loads(json.dumps(response)) == response


class TestQueryReduction:
    def test_fast_frontier_keeps_predictions_beside_store_hits(
            self, tmp_path):
        # What happens to be cached must not change what the frontier
        # pools: two exact store hits beside seven fast predictions are
        # reduced by the same rule `repro sweep` uses, so the
        # predictions stay in.
        from repro.core.calibrate import calibrate_workload
        from repro.core.pareto import pareto_frontier, reducible
        designs = dma_design_space("quick")
        calibrate_workload(WORKLOAD, density="quick").save(str(tmp_path))
        run_sweep(WORKLOAD, designs[:2], cache_dir=str(tmp_path))
        with SweepService(str(tmp_path)) as svc:
            response = svc.query("pareto", WORKLOAD, designs=designs,
                                 fidelity="fast")
            assert response["service"]["hits"] == 2
            assert response["service"]["dispatches"] == 7
            results, _report = svc.submit(WORKLOAD, designs,
                                          fidelity="fast")
        assert any(r["fidelity"] == "fast" for r in response["frontier"])
        expected = pareto_frontier(reducible(results, "fast"))
        assert response["frontier"] == [result_record(r) for r in expected]


class TestTieredService:
    def test_auto_tier_picked_up_from_calibration(self, tmp_path):
        # With a persisted calibration the service defaults to triage;
        # the EDP optimum must still match the exact engine's.
        from repro.core.calibrate import calibrate_workload
        from repro.core.pareto import edp_optimal
        designs = dma_design_space("quick")
        calibrate_workload(WORKLOAD, density="quick",
                           cache_dir=str(tmp_path))
        with SweepService(str(tmp_path)) as svc:
            results, report = svc.submit(WORKLOAD, designs)
            assert report["tier"] == "auto"
            exact = [r for r in results
                     if getattr(r, "fidelity", "exact") == "exact"]
            assert exact  # triage confirmed at least the frontier
        serial = run_sweep(WORKLOAD, designs)
        assert (edp_optimal(exact).edp
                == pytest.approx(edp_optimal(serial).edp))

    def test_changed_config_loads_its_own_calibration(self, tmp_path):
        from repro.core.calibrate import calibrate_workload
        from repro.core.config import SoCConfig
        calibrate_workload(WORKLOAD, density="quick",
                           cache_dir=str(tmp_path))
        d = quick_designs(1)
        with SweepService(str(tmp_path)) as svc:
            _r, calibrated = svc.submit(WORKLOAD, d)
            other = SoCConfig(bus_width_bits=64)
            _r, uncalibrated = svc.submit(WORKLOAD, d, cfg=other)
            _r, again = svc.submit(WORKLOAD, d)
        assert calibrated["tier"] == again["tier"] == "auto"
        assert uncalibrated["tier"] == "exact"

    def test_exact_request_never_joins_auto_entry(self, tmp_path):
        # An in-flight auto evaluation may resolve to a fast-model
        # prediction; an exact client must dispatch its own evaluation
        # rather than risk receiving one.
        from repro.core.calibrate import calibrate_workload
        calibrate_workload(WORKLOAD, density="quick",
                           cache_dir=str(tmp_path))
        d = DesignPoint(lanes=2, partitions=2)  # off the sampled grid
        with SweepService(str(tmp_path)) as svc:
            key = sweep_key(WORKLOAD, d)
            assert svc.cache.get(key) is None  # genuinely cold
            reports = {}
            barrier = threading.Barrier(2)

            def ask(tier):
                barrier.wait()
                _r, reports[tier] = svc.submit(WORKLOAD, [d],
                                               fidelity=tier)

            threads = [threading.Thread(target=ask, args=(t,))
                       for t in ("auto", "exact")]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            # The exact client either dispatched its own entry or hit
            # the cache after the auto batch confirmed it exactly —
            # never a join onto the auto tier.
            assert reports["exact"]["joins"] == 0
            exact_results, _ = svc.submit(WORKLOAD, [d],
                                          fidelity="exact")
            assert getattr(exact_results[0], "fidelity",
                           "exact") == "exact"

    def test_auto_request_joins_exact_entry(self, tmp_path):
        from repro.core.calibrate import calibrate_workload
        calibrate_workload(WORKLOAD, density="quick",
                           cache_dir=str(tmp_path))
        from repro.serve.service import _Inflight
        d = DesignPoint(lanes=2, partitions=2)
        with SweepService(str(tmp_path)) as svc:
            key = sweep_key(WORKLOAD, d)
            entry = _Inflight(key, WORKLOAD, d, svc.default_cfg, "exact")
            with svc._lock:
                svc._inflight[key] = {"exact": entry}
            done = {}

            def ask():
                done["out"] = svc.submit(WORKLOAD, [d], fidelity="auto")

            t = threading.Thread(target=ask)
            t.start()
            sentinel = run_sweep(WORKLOAD, [d])[0]
            entry.fulfill(sentinel)
            t.join(30)
            assert not t.is_alive()
            results, report = done["out"]
            assert report["joins"] == 1
            assert results[0] is sentinel
            with svc._lock:
                svc._inflight.clear()
