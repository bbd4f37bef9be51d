"""Parallel, memoized sweep engine."""

import os
import pickle
import subprocess
import sys

import pytest

from repro.core.config import DesignPoint, SoCConfig
from repro.core.export import results_to_json
from repro.core.sweep import dma_design_space, run_sweep
from repro.core.sweeppool import (
    SweepCache,
    SweepMetrics,
    key_payload,
    keyed_payloads,
    resolve_jobs,
    run_sweep_pool,
    sweep_key,
)

WORKLOAD = "aes-aes"


def quick_designs(n=3):
    return dma_design_space("quick")[:n]


class TestSweepKey:
    def test_stable_across_calls(self):
        d = DesignPoint(lanes=2, partitions=2)
        assert sweep_key(WORKLOAD, d) == sweep_key(WORKLOAD, d)
        assert sweep_key(WORKLOAD, d) == sweep_key(
            WORKLOAD, DesignPoint(lanes=2, partitions=2))

    def test_differs_by_workload_design_and_config(self):
        d = DesignPoint(lanes=2, partitions=2)
        base = sweep_key(WORKLOAD, d)
        assert sweep_key("nw-nw", d) != base
        assert sweep_key(WORKLOAD, d.replace(lanes=4)) != base
        assert sweep_key(WORKLOAD, d, SoCConfig(bus_width_bits=64)) != base

    def test_every_design_field_is_a_hash_input(self):
        """Fields off the sweep grid (e.g. perfect_memory) still invalidate."""
        d = DesignPoint(mem_interface="cache")
        assert sweep_key(WORKLOAD, d) != sweep_key(
            WORKLOAD, d.replace(perfect_memory=True))

    def test_default_config_matches_explicit_default(self):
        d = DesignPoint()
        assert sweep_key(WORKLOAD, d) == sweep_key(WORKLOAD, d, SoCConfig())

    def test_payload_is_json_roundtrippable(self):
        import json
        payload = key_payload(WORKLOAD, DesignPoint(), SoCConfig())
        assert json.loads(json.dumps(payload)) == payload

    def test_keys_are_pinned(self):
        # A changed digest orphans every stored result: that needs a
        # CACHE_FORMAT_VERSION bump, not a silent change.
        assert sweep_key(WORKLOAD, DesignPoint()) == (
            "da5e31252d65aecc6bb1fe671591d96bd646b43c117cd40119c2b7a51e5eb941")
        assert sweep_key(
            WORKLOAD, DesignPoint(mem_interface="cache", cache_size_kb=8.0),
            SoCConfig(bus_width_bits=64)) == (
            "2afd1d532bc6840b47f9c91400a86f13d00ba3d9416b7c82861537b6522d0389")

    def test_keyed_payloads_match_key_and_payload(self):
        designs = quick_designs() + [DesignPoint(mem_interface="cache")]
        cfg = SoCConfig(bus_width_bits=64)
        assert keyed_payloads(WORKLOAD, designs, cfg) == [
            (sweep_key(WORKLOAD, d, cfg), key_payload(WORKLOAD, d, cfg))
            for d in designs]

    def test_cached_sweep_canonicalizes_each_design_once(self, tmp_path,
                                                          monkeypatch):
        import repro.core.sweeppool as sweeppool
        calls = []
        real = sweeppool.canonical_design_fields

        def counting(design):
            calls.append(design)
            return real(design)

        monkeypatch.setattr(sweeppool, "canonical_design_fields", counting)
        designs = quick_designs()
        run_sweep_pool(WORKLOAD, designs, cache_dir=str(tmp_path),
                       write_manifest=False)
        assert calls == designs


class TestSweepCache:
    def test_roundtrip(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        cache.put("ab" + "0" * 62, {"x": 1}, payload={"p": 1})
        assert cache.get("ab" + "0" * 62, payload={"p": 1}) == {"x": 1}
        assert len(cache) == 1

    def test_missing_key_is_none(self, tmp_path):
        assert SweepCache(str(tmp_path)).get("ff" + "0" * 62) is None

    def test_payload_mismatch_is_a_miss(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        key = "ab" + "0" * 62
        cache.put(key, 42, payload={"p": 1})
        assert cache.get(key, payload={"p": 2}) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        key = "ab" + "0" * 62
        cache.put(key, 42, payload=None)
        path = cache._path(key)
        with open(path, "wb") as f:
            f.write(b"not a pickle")
        assert cache.get(key) is None

    def test_clear(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        cache.put("ab" + "0" * 62, 1)
        cache.put("cd" + "0" * 62, 2)
        cache.clear()
        assert len(cache) == 0
        assert cache.get("ab" + "0" * 62) is None

    def test_no_stray_tmp_files_after_put(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        cache.put("ab" + "0" * 62, 1)
        stray = [f for _d, _s, fs in os.walk(str(tmp_path))
                 for f in fs if f.endswith(".tmp")]
        assert stray == []

    def test_payloadless_put_hits_verifying_get(self, tmp_path):
        # Regression: put(key, result) without payload used to store
        # {"key": None}; a later get(key, payload=...) read that None as
        # a payload mismatch, so the entry could never hit again.
        cache = SweepCache(str(tmp_path))
        key = "ab" + "0" * 62
        cache.put(key, 42)
        assert cache.get(key, payload={"p": 1}) == 42
        assert cache.get(key, payload={"p": 1}) == 42  # stays a hit
        assert cache.get(key) == 42


class TestMemoization:
    def test_cold_then_warm(self, tmp_path):
        designs = quick_designs()
        cold = SweepMetrics()
        first = run_sweep_pool(WORKLOAD, designs, cache_dir=str(tmp_path),
                               metrics=cold)
        assert cold.points == len(designs)
        assert cold.evaluated == len(designs)
        assert cold.cache_hits == 0

        warm = SweepMetrics()
        second = run_sweep_pool(WORKLOAD, designs, cache_dir=str(tmp_path),
                                metrics=warm)
        assert warm.evaluated == 0
        assert warm.cache_hits == len(designs)
        assert results_to_json(first) == results_to_json(second)

    def test_config_change_invalidates(self, tmp_path):
        designs = quick_designs(2)
        run_sweep_pool(WORKLOAD, designs, cache_dir=str(tmp_path))
        metrics = SweepMetrics()
        run_sweep_pool(WORKLOAD, designs, SoCConfig(bus_width_bits=64),
                       cache_dir=str(tmp_path), metrics=metrics)
        assert metrics.cache_hits == 0
        assert metrics.evaluated == len(designs)

    def test_cached_results_preserve_order(self, tmp_path):
        designs = quick_designs()
        run_sweep_pool(WORKLOAD, designs, cache_dir=str(tmp_path))
        results = run_sweep_pool(WORKLOAD, designs,
                                 cache_dir=str(tmp_path))
        assert [r.design.key() for r in results] == \
            [d.key() for d in designs]


class TestParallel:
    def test_parallel_matches_serial(self, tmp_path):
        designs = quick_designs()
        serial = run_sweep(WORKLOAD, designs)
        parallel = run_sweep_pool(WORKLOAD, designs, jobs=2)
        assert results_to_json(serial) == results_to_json(parallel)
        assert [r.design.key() for r in parallel] == \
            [d.key() for d in designs]

    def test_parallel_fills_cache(self, tmp_path):
        designs = quick_designs(2)
        run_sweep_pool(WORKLOAD, designs, jobs=2, cache_dir=str(tmp_path))
        warm = SweepMetrics()
        run_sweep_pool(WORKLOAD, designs, jobs=2, cache_dir=str(tmp_path),
                       metrics=warm)
        assert warm.evaluated == 0
        assert warm.cache_hits == len(designs)

    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) >= 1
        with pytest.raises(ValueError):
            resolve_jobs(-1)


class TestRunSweepIntegration:
    def test_run_sweep_default_path_returns_every_point(self):
        designs = quick_designs(2)
        results = run_sweep(WORKLOAD, designs)
        assert len(results) == 2

    def test_run_sweep_threads_engine_options(self, tmp_path):
        designs = quick_designs(2)
        metrics = SweepMetrics()
        results = run_sweep(WORKLOAD, designs, cache_dir=str(tmp_path),
                            metrics=metrics)
        assert len(results) == 2
        assert metrics.evaluated == 2

    def test_progress_counts_hits_and_evaluations(self, tmp_path):
        designs = quick_designs(2)
        run_sweep(WORKLOAD, designs, cache_dir=str(tmp_path))
        calls = []
        run_sweep(WORKLOAD, designs, cache_dir=str(tmp_path),
                  progress=lambda i, n: calls.append((i, n)))
        assert calls == [(1, 2), (2, 2)]


class TestSpawnSafety:
    def test_stdin_main_falls_back_to_inline(self, tmp_path):
        # A spawn worker re-imports __main__; when the parent runs from
        # stdin (python -, REPL) there is no file to re-import and the
        # pool would respawn crashing workers forever.  The engine must
        # detect that and evaluate inline instead of hanging.
        script = "\n".join([
            "from repro.core.sweep import dma_design_space, run_sweep",
            "from repro.core.sweeppool import SweepMetrics",
            "metrics = SweepMetrics()",
            "results = run_sweep('aes-aes', dma_design_space('quick')[:2],",
            "                    parallel=2, metrics=metrics)",
            "assert len(results) == 2 and metrics.evaluated == 2",
            "print('sweep-ok')",
        ])
        import repro
        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in [src_dir, env.get("PYTHONPATH")] if p)
        proc = subprocess.run(
            [sys.executable, "-"], input=script, text=True,
            capture_output=True, env=env, cwd=str(tmp_path), timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert "sweep-ok" in proc.stdout

    def test_reimportable_main_uses_pool(self):
        # Under pytest, __main__ is the pytest entry point with a real
        # __spec__/__file__, so the guard must NOT disable the pool path.
        from repro.core.sweeppool import _spawn_can_reimport_main
        assert _spawn_can_reimport_main()

    def test_metrics_jobs_reflect_spawn_downgrade(self, monkeypatch):
        # Regression: metrics.jobs was recorded before the spawn-safety
        # fallback downgraded the run to inline, reporting parallelism
        # that never happened.
        import repro.core.sweeppool as sweeppool
        monkeypatch.setattr(sweeppool, "_spawn_can_reimport_main",
                            lambda: False)
        metrics = SweepMetrics()
        results = run_sweep_pool(WORKLOAD, quick_designs(2), jobs=4,
                                 mp_context="spawn", metrics=metrics)
        assert len(results) == 2
        assert metrics.jobs == 1  # effective, not requested
        assert metrics.evaluated == 2


class TestMetrics:
    def test_report_and_dict(self, tmp_path):
        metrics = SweepMetrics()
        run_sweep_pool(WORKLOAD, quick_designs(2), cache_dir=str(tmp_path),
                       metrics=metrics)
        d = metrics.as_dict()
        assert d["points"] == 2
        assert d["evaluated"] == 2
        assert d["wall_seconds"] > 0
        assert 0 < d["worker_utilization"] <= 1.0
        text = metrics.report()
        assert "cache hits" in text
        assert "worker util" in text

    def test_merge(self):
        a, b = SweepMetrics(), SweepMetrics()
        a.points, a.evaluated, a.point_seconds = 3, 3, [0.1, 0.2, 0.3]
        b.points, b.cache_hits = 2, 2
        a.merge(b)
        assert a.points == 5
        assert a.cache_hits == 2
        assert a.evaluated == 3


class TestCanonicalKeys:
    """Two clients describing the same point must hash identically."""

    def test_integral_floats_normalize(self):
        # JSON clients send 8.0 where Python code sends 8; the point
        # simulated is the same, so the key must be too.
        a = DesignPoint(lanes=8, partitions=4)
        b = DesignPoint(lanes=8.0, partitions=4.0)
        assert sweep_key(WORKLOAD, a) == sweep_key(WORKLOAD, b)

    def test_dma_ignores_cache_side_fields(self):
        # A DMA design never builds the cache, so cache-side knobs are
        # simulation-irrelevant (verified empirically against
        # run_design) and must not fragment the store.
        a = DesignPoint(lanes=4, partitions=4, mem_interface="dma")
        b = a.replace(cache_size_kb=32, cache_ports=4, cache_assoc=8,
                      cache_line=32, prefetcher="none")
        assert sweep_key(WORKLOAD, a) == sweep_key(WORKLOAD, b)

    def test_cache_ignores_dma_side_fields(self):
        a = DesignPoint(lanes=4, mem_interface="cache")
        b = a.replace(pipelined_dma=False, dma_triggered_compute=False,
                      double_buffer=True)
        assert sweep_key(WORKLOAD, a) == sweep_key(WORKLOAD, b)

    def test_cache_keeps_spad_ports(self):
        # DesignPoint.key() omits spad_ports for cache designs, but the
        # scratchpad still serves the compute side there — spad_ports
        # changes cache-design results, so it must stay a hash input.
        a = DesignPoint(lanes=4, mem_interface="cache")
        assert sweep_key(WORKLOAD, a) != sweep_key(
            WORKLOAD, a.replace(spad_ports=2))

    def test_relevant_fields_still_fragment(self):
        a = DesignPoint(lanes=4, partitions=4, mem_interface="dma")
        assert sweep_key(WORKLOAD, a) != sweep_key(
            WORKLOAD, a.replace(pipelined_dma=False))
        c = DesignPoint(mem_interface="cache")
        assert sweep_key(WORKLOAD, c) != sweep_key(
            WORKLOAD, c.replace(cache_line=32))

    def test_payload_insensitive_to_dict_order(self):
        import json
        payload = key_payload(WORKLOAD, DesignPoint(), SoCConfig())
        scrambled = json.loads(json.dumps(
            {k: payload[k] for k in reversed(list(payload))}))
        assert (json.dumps(payload, sort_keys=True)
                == json.dumps(scrambled, sort_keys=True))

    def test_equivalent_specs_share_cache_entries(self, tmp_path):
        # End to end: the non-canonical spelling must hit the canonical
        # spelling's cache entry, not re-simulate.
        canonical = [DesignPoint(lanes=4, partitions=4)]
        spelled = [DesignPoint(lanes=4.0, partitions=4,
                               cache_size_kb=64, cache_ports=4)]
        first = run_sweep_pool(WORKLOAD, canonical,
                               cache_dir=str(tmp_path))
        metrics = SweepMetrics()
        second = run_sweep_pool(WORKLOAD, spelled, cache_dir=str(tmp_path),
                                metrics=metrics)
        assert metrics.cache_hits == 1
        assert metrics.evaluated == 0
        assert results_to_json(first) == results_to_json(second)

    def test_sweep_id_uses_canonical_fields(self):
        from repro.core.sweeppool import sweep_id
        a = [DesignPoint(lanes=4, partitions=4)]
        b = [DesignPoint(lanes=4.0, partitions=4, cache_size_kb=64)]
        assert sweep_id(WORKLOAD, a) == sweep_id(WORKLOAD, b)
        assert sweep_id(WORKLOAD, a) != sweep_id(
            WORKLOAD, [DesignPoint(lanes=8, partitions=4)])


class TestCacheIndex:
    def _key(self, i):
        return f"{i:02x}" + "0" * 62

    def test_index_scans_existing_entries(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        for i in range(5):
            cache.put(self._key(i), i)
        fresh = SweepCache(str(tmp_path))  # index built lazily from disk
        assert fresh.index() == {self._key(i) for i in range(5)}

    def test_get_many_skips_unindexed_keys(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        cache.put(self._key(1), "one")
        got = cache.get_many([self._key(1), self._key(2)])
        assert got == {self._key(1): "one"}

    def test_get_many_respects_payload_guard(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        cache.put(self._key(1), "one", payload={"p": 1})
        got = cache.get_many([self._key(1)],
                             payloads={self._key(1): {"p": 2}})
        assert got == {}

    def test_put_updates_built_index(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        assert cache.index() == set()
        cache.put(self._key(7), 7)
        assert self._key(7) in cache.index()
        assert cache.get_many([self._key(7)]) == {self._key(7): 7}

    def test_refresh_picks_up_other_writers(self, tmp_path):
        reader = SweepCache(str(tmp_path))
        assert reader.index() == set()
        writer = SweepCache(str(tmp_path))
        writer.put(self._key(3), 3)
        assert reader.get_many([self._key(3)]) == {}  # stale index: miss
        reader.refresh_index()
        assert reader.get_many([self._key(3)]) == {self._key(3): 3}

    def test_unreadable_indexed_entry_drops_from_index(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        cache.put(self._key(1), 1)
        with open(cache._path(self._key(1)), "wb") as f:
            f.write(b"garbage")
        assert cache.get_many([self._key(1)]) == {}
        assert self._key(1) not in cache.index()

    def test_clear_resets_index(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        cache.put(self._key(1), 1)
        cache.clear()
        assert cache.index() == set()


class TestConcurrentWriters:
    def test_racing_writers_never_corrupt_the_store(self, tmp_path):
        # The service dispatcher and external sweeps share one store:
        # many processes hammering the same key must always leave a
        # readable entry (atomic temp-file + os.replace), never a torn
        # one.  fork context so the children inherit this test module.
        import multiprocessing

        key = "ab" + "0" * 62
        payload = {"p": 1}
        ctx = multiprocessing.get_context("fork")
        procs = [ctx.Process(target=_hammer_cache,
                             args=(str(tmp_path), key, payload, n))
                 for n in range(4)]
        for p in procs:
            p.start()
        cache = SweepCache(str(tmp_path))
        observed = set()
        for _ in range(200):
            value = cache.get(key, payload)
            if value is not None:
                observed.add(value)
        for p in procs:
            p.join(60)
            assert p.exitcode == 0
        final = cache.get(key, payload)
        assert final is not None and final.startswith("writer-")
        assert all(v.startswith("writer-") for v in observed)
        stray = [f for _d, _s, fs in os.walk(str(tmp_path))
                 for f in fs if f.endswith(".tmp")]
        assert stray == []

    def test_pool_and_direct_writer_same_point(self, tmp_path):
        # A worker-pool sweep and a direct put racing on the same point:
        # whoever lands last must leave the canonical, readable result.
        designs = quick_designs(1)
        key = sweep_key(WORKLOAD, designs[0])
        payload = key_payload(WORKLOAD, designs[0])
        results = run_sweep_pool(WORKLOAD, designs,
                                 cache_dir=str(tmp_path))
        cache = SweepCache(str(tmp_path))
        cache.put(key, results[0], payload)  # idempotent overwrite
        again = run_sweep_pool(WORKLOAD, designs, cache_dir=str(tmp_path))
        assert results_to_json(again) == results_to_json(results)


def _hammer_cache(root, key, payload, n):
    cache = SweepCache(root)
    for i in range(50):
        cache.put(key, f"writer-{n}-{i}", payload)


class TestServicePlumbing:
    def test_write_manifest_false_skips_manifest(self, tmp_path):
        from repro.core.sweeppool import MANIFEST_DIR
        run_sweep_pool(WORKLOAD, quick_designs(2), cache_dir=str(tmp_path),
                       write_manifest=False)
        assert not os.path.exists(os.path.join(str(tmp_path),
                                               MANIFEST_DIR))
        # results still flushed through the cache
        metrics = SweepMetrics()
        run_sweep_pool(WORKLOAD, quick_designs(2), cache_dir=str(tmp_path),
                       metrics=metrics)
        assert metrics.cache_hits == 2

    def test_joins_counter_in_dict_report_and_merge(self):
        metrics = SweepMetrics()
        metrics.points, metrics.joins = 3, 3
        assert metrics.as_dict()["joins"] == 3
        assert "joins" in metrics.report()
        other = SweepMetrics()
        other.joins = 2
        assert metrics.merge(other).joins == 5

    def test_joins_mirrored_into_stats_registry(self):
        from repro.obs.stats import StatRegistry
        metrics = SweepMetrics()
        metrics.joins = 4
        registry = StatRegistry()
        metrics.reg_stats(registry)
        assert registry.value("sweep.joins") == 4


class TestBatchProbe:
    def test_large_sweep_uses_index_probe(self, tmp_path, monkeypatch):
        # Above the threshold the cache probe must go through get_many
        # (one directory scan), not per-point get.
        import repro.core.sweeppool as sweeppool
        monkeypatch.setattr(sweeppool, "_BATCH_PROBE_MIN", 2)
        designs = quick_designs(3)
        run_sweep_pool(WORKLOAD, designs, cache_dir=str(tmp_path))
        calls = []
        original = SweepCache.get_many

        def spy(self, keys, payloads=None):
            calls.append(len(list(keys)))
            return original(self, keys, payloads)

        monkeypatch.setattr(SweepCache, "get_many", spy)
        metrics = SweepMetrics()
        results = run_sweep_pool(WORKLOAD, designs, cache_dir=str(tmp_path),
                                 metrics=metrics)
        assert calls == [3]
        assert metrics.cache_hits == 3
        serial = run_sweep(WORKLOAD, designs)
        assert results_to_json(results) == results_to_json(serial)
