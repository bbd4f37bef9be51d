"""Parallel, memoized sweep engine."""

import json
import os
import subprocess
import sys

import pytest

from repro.core.config import DesignPoint, SoCConfig
from repro.core.export import results_to_json
from repro.core.metrics import RunResult
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


def stored(n):
    """A minimal storable RunResult, told apart by its ``total_ticks``."""
    return RunResult(WORKLOAD, DesignPoint(), n, n, {}, None, energy_pj=1.0)


def ticks(result):
    """The ``total_ticks`` of a result from the store (None on a miss)."""
    return None if result is None else result.total_ticks


def ticks_of(hits):
    """``{key: total_ticks}`` of a :meth:`SweepCache.get_many` answer."""
    return {key: result.total_ticks for key, result in hits.items()}


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
        monkeypatch.setattr(sweeppool, "_KEYS",
                            sweeppool._Memo(sweeppool.KEY_MEMO_ENTRIES))
        designs = quick_designs()
        run_sweep_pool(WORKLOAD, designs, cache_dir=str(tmp_path),
                       write_manifest=False)
        assert calls == designs
        calls.clear()
        run_sweep_pool(WORKLOAD, designs, cache_dir=str(tmp_path),
                       write_manifest=False)
        assert calls == []


class TestSweepCache:
    def test_roundtrip(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        cache.put("ab" + "0" * 62, stored(1), payload={"p": 1})
        assert ticks(cache.get("ab" + "0" * 62, payload={"p": 1})) == 1
        assert len(cache) == 1

    def test_missing_key_is_none(self, tmp_path):
        assert SweepCache(str(tmp_path)).get("ff" + "0" * 62) is None

    def test_payload_mismatch_is_a_miss(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        key = "ab" + "0" * 62
        cache.put(key, stored(42), payload={"p": 1})
        assert cache.get(key, payload={"p": 2}) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        key = "ab" + "0" * 62
        cache.put(key, stored(42), payload=None)
        path = cache._path(key)
        with open(path, "wb") as f:
            f.write(b"not json")
        assert cache.get(key) is None

    def test_entry_is_plain_json(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        key = "ab" + "0" * 62
        cache.put(key, stored(7), payload={"p": 1})
        assert cache._path(key) == os.path.join(str(tmp_path), "ab",
                                                key + ".json")
        with open(cache._path(key)) as f:
            doc = json.load(f)
        assert doc == {"key": {"p": 1}, "result": stored(7).to_record()}

    @pytest.mark.parametrize("damage", ["invalid", "unknown-field",
                                        "truncated"])
    def test_bad_entry_is_a_miss(self, tmp_path, damage):
        cache = SweepCache(str(tmp_path))
        key = "ab" + "0" * 62
        cache.put(key, stored(7), payload={"p": 1})
        with open(cache._path(key)) as f:
            text = f.read()
        if damage == "invalid":
            text = "{not json"
        elif damage == "unknown-field":
            doc = json.loads(text)
            doc["result"]["warp_speed"] = 9
            text = json.dumps(doc)
        else:
            text = text[:len(text) // 2]
        with open(cache._path(key), "w") as f:
            f.write(text)
        fresh = SweepCache(str(tmp_path))
        assert fresh.get(key, payload={"p": 1}) is None
        assert fresh.get_many([key]) == {}
        assert fresh.reads == 0

    def test_only_shard_entries_count(self, tmp_path):
        # Manifests and calibrations share the root; a store entry is a
        # ``<key[:2]>/<key>.json`` file and nothing else.
        cache = SweepCache(str(tmp_path))
        key = "ab" + "0" * 62
        cache.put(key, stored(1))
        for name in ("manifests", "calibration"):
            os.makedirs(tmp_path / name)
            (tmp_path / name / ("cd" + "0" * 62 + ".json")).write_text("{}")
        (tmp_path / "ab" / ("ef" + "0" * 62 + ".pkl")).write_bytes(b"old")
        assert len(cache) == 1
        assert SweepCache(str(tmp_path)).index() == {key}
        cache.clear()
        assert len(cache) == 0
        assert (tmp_path / "manifests" / ("cd" + "0" * 62 + ".json")).exists()

    def test_clear(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        cache.put("ab" + "0" * 62, stored(1))
        cache.put("cd" + "0" * 62, stored(2))
        cache.clear()
        assert len(cache) == 0
        assert cache.get("ab" + "0" * 62) is None

    def test_no_stray_tmp_files_after_put(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        cache.put("ab" + "0" * 62, stored(1))
        stray = [f for _d, _s, fs in os.walk(str(tmp_path))
                 for f in fs if f.endswith(".tmp")]
        assert stray == []

    def test_payloadless_put_hits_verifying_get(self, tmp_path):
        # Regression: put(key, result) without payload used to store
        # {"key": None}; a later get(key, payload=...) read that None as
        # a payload mismatch, so the entry could never hit again.
        cache = SweepCache(str(tmp_path))
        key = "ab" + "0" * 62
        cache.put(key, stored(42))
        assert ticks(cache.get(key, payload={"p": 1})) == 42
        assert ticks(cache.get(key, payload={"p": 1})) == 42  # stays a hit
        assert ticks(cache.get(key)) == 42


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

    def test_dict_keys_pinned(self):
        assert list(SweepMetrics().as_dict()) == [
            "points", "evaluated", "cache_hits", "failures", "retries",
            "timeouts", "workers_spawned", "worker_peak_rss_mb", "jobs",
            "wall_seconds", "seconds_per_point", "worker_utilization",
            "fast_points", "pruned", "confirmed", "fast_time_error_max",
            "fast_time_error_mean", "fast_power_error_max",
            "fast_power_error_mean"]

    def test_registry_names_and_descriptions_pinned(self):
        from repro.obs.stats import StatRegistry
        registry = StatRegistry()
        SweepMetrics().reg_stats(registry)
        assert [(n, registry[n].desc) for n in registry.names()] == [
            ("sweep.points", "design points requested"),
            ("sweep.evaluated", "points evaluated exactly"),
            ("sweep.cache_hits", "points served from cache"),
            ("sweep.failures", "points that exhausted retries"),
            ("sweep.retries", "re-issued attempts"),
            ("sweep.timeouts", "attempts killed by the per-point timeout"),
            ("sweep.workers_spawned", "pool worker processes started"),
            ("sweep.worker_peak_rss_mb",
             "largest pool worker peak RSS (MB)"),
            ("sweep.fast_points", "analytic fast-model predictions"),
            ("sweep.pruned", "points pruned by fast-model triage"),
            ("sweep.confirmed", "triaged points confirmed exactly"),
            ("sweep.fast_time_error_max", "max fast-vs-exact time error"),
            ("sweep.fast_power_error_max",
             "max fast-vs-exact power error")]

    def test_registry_reads_live_values(self):
        from repro.obs.stats import StatRegistry
        metrics = SweepMetrics()
        registry = StatRegistry()
        metrics.reg_stats(registry)
        metrics.points, metrics.fast_time_errors = 4, [0.5, float("nan")]
        assert registry.value("sweep.points") == 4
        assert registry.value("sweep.fast_time_error_max") == 0.5

    def test_fast_errors_skip_non_finite(self):
        metrics = SweepMetrics()
        metrics.fast_time_errors = [0.1, float("nan"), 0.3, float("inf")]
        assert metrics.fast_time_error_max == 0.3
        assert metrics.fast_time_error_mean == pytest.approx(0.2)
        metrics.fast_power_errors = [float("nan")]
        assert metrics.fast_power_error_max == 0.0
        assert metrics.fast_power_error_mean == 0.0


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
            cache.put(self._key(i), stored(i))
        fresh = SweepCache(str(tmp_path))  # index built lazily from disk
        assert fresh.index() == {self._key(i) for i in range(5)}

    def test_get_many_skips_unindexed_keys(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        cache.put(self._key(1), stored(1))
        got = cache.get_many([self._key(1), self._key(2)])
        assert ticks_of(got) == {self._key(1): 1}

    def test_get_many_respects_payload_guard(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        cache.put(self._key(1), stored(1), payload={"p": 1})
        got = cache.get_many([self._key(1)],
                             payloads={self._key(1): {"p": 2}})
        assert got == {}

    def test_put_updates_built_index(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        assert cache.index() == set()
        cache.put(self._key(7), stored(7))
        assert self._key(7) in cache.index()
        assert ticks_of(cache.get_many([self._key(7)])) == {self._key(7): 7}

    def test_refresh_picks_up_other_writers(self, tmp_path):
        reader = SweepCache(str(tmp_path))
        assert reader.index() == set()
        writer = SweepCache(str(tmp_path))
        writer.put(self._key(3), stored(3))
        assert reader.get_many([self._key(3)]) == {}  # stale index: miss
        reader.refresh_index()
        assert ticks_of(reader.get_many([self._key(3)])) == {self._key(3): 3}

    def test_unreadable_indexed_entry_drops_from_index(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        cache.put(self._key(1), stored(1))
        with open(cache._path(self._key(1)), "wb") as f:
            f.write(b"garbage")
        assert cache.get_many([self._key(1)]) == {}
        assert self._key(1) not in cache.index()

    def test_clear_resets_index(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        cache.put(self._key(1), stored(1))
        cache.clear()
        assert cache.index() == set()


class TestStoreMemo:
    """Reads are memoized in process: a repeat read decodes nothing."""

    def _key(self, i):
        return f"{i:02x}" + "1" * 62

    def test_repeat_get_decodes_once(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        cache.put(self._key(1), stored(41), payload={"p": 1})
        assert cache.reads == 0  # put never fills the memo
        assert ticks(cache.get(self._key(1), payload={"p": 1})) == 41
        assert ticks(cache.get(self._key(1), payload={"p": 1})) == 41
        assert ticks_of(cache.get_many([self._key(1)])) == {self._key(1): 41}
        assert cache.reads == 1

    def test_memo_hit_applies_collision_guard(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        cache.put(self._key(1), stored(41), payload={"p": 1})
        assert ticks(cache.get(self._key(1), payload={"p": 1})) == 41
        assert cache.get(self._key(1), payload={"p": 2}) is None
        assert cache.reads == 1

    def test_put_drops_the_memoized_entry(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        cache.put(self._key(1), stored(41))
        assert ticks(cache.get(self._key(1))) == 41
        cache.put(self._key(1), stored(42))
        assert ticks(cache.get(self._key(1))) == 42
        assert cache.reads == 2

    def test_deleted_entry_answers_until_clear(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        cache.put(self._key(1), stored(41))
        assert ticks(cache.get(self._key(1))) == 41
        os.unlink(cache._path(self._key(1)))
        assert ticks(cache.get(self._key(1))) == 41
        cache.clear()
        assert cache.get(self._key(1)) is None

    def test_memo_is_bounded(self, tmp_path, monkeypatch):
        import repro.core.sweeppool as sweeppool
        monkeypatch.setattr(sweeppool, "STORE_MEMO_ENTRIES", 2)
        cache = SweepCache(str(tmp_path))
        for i in range(3):
            cache.put(self._key(i), stored(i))
            assert ticks(cache.get(self._key(i))) == i
        assert ticks(cache.get(self._key(2))) == 2  # still held
        assert ticks(cache.get(self._key(0))) == 0  # evicted: decoded again
        assert cache.reads == 4

    def test_racing_threads_return_only_stored_values(self, tmp_path,
                                                      monkeypatch):
        import random
        import threading

        import repro.core.sweeppool as sweeppool
        monkeypatch.setattr(sweeppool, "STORE_MEMO_ENTRIES", 3)
        cache = SweepCache(str(tmp_path))
        keys = [self._key(i) for i in range(12)]
        value = {key: i for i, key in enumerate(keys)}
        payload = {key: {"i": i} for i, key in enumerate(keys)}
        for key in keys[::2]:
            cache.put(key, stored(value[key]), payload[key])
        decoded = []
        real_decode = RunResult.from_record.__func__

        def counting_decode(cls, doc):
            result = real_decode(cls, doc)
            decoded.append(1)
            return result

        monkeypatch.setattr(RunResult, "from_record",
                            classmethod(counting_decode))
        errors = []

        def hammer(seed):
            rng = random.Random(seed)
            try:
                for _ in range(300):
                    key = rng.choice(keys)
                    op = rng.random()
                    if op < 0.4:
                        got = cache.get(key, payload[key])
                        assert got is None or ticks(got) == value[key]
                    elif op < 0.7:
                        some = rng.sample(keys, 4)
                        for k, got in cache.get_many(some, payload).items():
                            assert k in some and ticks(got) == value[k]
                    elif op < 0.97:
                        cache.put(key, stored(value[key]), payload[key])
                    else:
                        cache.clear()
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(seed,))
                   for seed in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert cache.reads == len(decoded)  # no lost count
        assert len(cache._memo._table) <= 3


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
                observed.add(ticks(value))
        for p in procs:
            p.join(60)
            assert p.exitcode == 0
        final = cache.get(key, payload)
        written = {_hammer_ticks(n, i) for n in range(4) for i in range(50)}
        assert final is not None and ticks(final) in written
        assert observed <= written
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


def _hammer_ticks(n, i):
    """The ticks writer ``n`` stores on its ``i``-th put."""
    return 1000 * (n + 1) + i


def _hammer_cache(root, key, payload, n):
    cache = SweepCache(root)
    for i in range(50):
        cache.put(key, stored(_hammer_ticks(n, i)), payload)


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
