"""Perf guard for the sweep service (``repro.serve``).

Three claims back the service layer:

* **Dedup invariant** (deterministic, always enforced): K concurrent
  clients submitting overlapping grids cause exactly one dispatch per
  unique point fleet-wide — ``service.metrics.dispatches`` equals the
  number of unique sweep keys — and every client's results are
  bit-identical to a serial :func:`run_sweep` over its grid.

* **Warm queries never simulate** (deterministic + timed): against a
  store pre-warmed with the 820-point enriched Figure-8 grid, a
  Pareto/EDP query answers entirely from cache (zero dispatches, zero
  engine evaluations) and must be at least ``MIN_QUERY_SPEEDUP`` faster
  than the sweep that produced the store.  The reductions must equal
  the ones computed directly from the warming sweep's results.

* **Batch probes beat per-key gets** (satellite: ``SweepCache.get_many``):
  on a large, mostly-cold probe the indexed batch path skips absent
  keys without touching the disk, beating a per-key ``get`` loop by
  ``MIN_GETMANY_SPEEDUP``.

Deterministic assertions always run; the wall-clock floors only fail
the suite under ``REPRO_PERF_ENFORCE=1`` (CI's perf-smoke job).
Numbers land in ``BENCH_serve.json`` (override with
``REPRO_BENCH_SERVE_OUT``).

Run directly with ``python -m pytest benchmarks/test_perf_serve.py -s``.
"""

import hashlib
import json
import os
import threading
import time

from repro.core.config import PARAMETER_TABLE, DesignPoint
from repro.core.export import result_record, results_to_json
from repro.core.metrics import RunResult
from repro.core.pareto import edp_optimal, pareto_frontier
from repro.core.sweep import cache_design_space, dma_design_space, run_sweep
from repro.core.sweeppool import SweepCache, sweep_key
from repro.serve import SweepService

WORKLOAD = "aes-aes"
OUT_PATH = os.environ.get("REPRO_BENCH_SERVE_OUT", "BENCH_serve.json")
ENFORCE = os.environ.get("REPRO_PERF_ENFORCE") == "1"
MIN_QUERY_SPEEDUP = 10.0
MIN_GETMANY_SPEEDUP = 2.0
QUERY_REPS = max(1, int(os.environ.get("REPRO_BENCH_REPS", "3")))

_numbers = {}


def enriched_grid():
    """The full Figure-8 space crossed with the paper's co-design knobs."""
    grid = [d
            for pipelined in (False, True)
            for triggered in (False, True)
            for d in dma_design_space("full", pipelined=pipelined,
                                      triggered=triggered)]
    for line in PARAMETER_TABLE["cache_line_bytes"]:
        grid += [d.replace(cache_line=line)
                 for d in cache_design_space("full")]
    return grid


def _frontier_keys(results):
    return [r.design.key() for r in pareto_frontier(results)]


def test_concurrent_clients_dedup_to_unique_points(tmp_path):
    designs = dma_design_space("quick")
    # Six clients, heavily overlapping windows onto the same grid.
    grids = [designs[i % 3:][:6] for i in range(6)]
    with SweepService(str(tmp_path / "dedup"), batch_window=0.02) as svc:
        outs = [None] * len(grids)
        barrier = threading.Barrier(len(grids))

        def client(i, grid):
            barrier.wait()
            outs[i] = svc.submit(WORKLOAD, grid)

        threads = [threading.Thread(target=client, args=(i, g))
                   for i, g in enumerate(grids)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - t0

        unique = {sweep_key(WORKLOAD, d) for g in grids for d in g}
        requested = sum(len(g) for g in grids)
        assert svc.metrics.dispatches == len(unique), (
            f"{svc.metrics.dispatches} dispatches for {len(unique)} "
            f"unique points — the fleet-wide dedup invariant is broken")
        assert svc.metrics.points == requested
        assert (svc.metrics.hits + svc.metrics.joins
                + svc.metrics.dispatches == requested)
        snapshot = svc.metrics.snapshot()

    serial = {sweep_key(WORKLOAD, d): r
              for d, r in zip(designs, run_sweep(WORKLOAD, designs))}
    for grid, (results, _report) in zip(grids, outs):
        expected = [serial[sweep_key(WORKLOAD, d)] for d in grid]
        assert results_to_json(results) == results_to_json(expected), \
            "service results diverged from a serial run_sweep"

    _numbers["dedup"] = {
        "clients": len(grids),
        "requested_points": requested,
        "unique_points": len(unique),
        "dispatches": snapshot["dispatches"],
        "joins": snapshot["joins"],
        "hits": snapshot["hits"],
        "seconds": elapsed,
    }
    print(f"\ndedup [{WORKLOAD}]: {len(grids)} clients, {requested} "
          f"requested -> {snapshot['dispatches']} dispatches "
          f"({len(unique)} unique), {snapshot['joins']} joins, "
          f"{snapshot['hits']} hits in {elapsed:.2f}s")


def test_warm_query_answers_without_simulation(tmp_path):
    grid = enriched_grid()
    store = str(tmp_path / "store")

    t0 = time.perf_counter()
    exact = run_sweep(WORKLOAD, grid, cache_dir=store)
    warm_s = time.perf_counter() - t0

    with SweepService(store, batch_window=0.0) as svc:
        query_s = float("inf")
        for _ in range(QUERY_REPS):
            t0 = time.perf_counter()
            pareto = svc.query("pareto", WORKLOAD, designs=grid)
            edp = svc.query("edp", WORKLOAD, designs=grid)
            query_s = min(query_s, time.perf_counter() - t0)

        # Zero simulations: every point was a store hit, nothing was
        # dispatched, the engine never evaluated a design.
        assert svc.metrics.dispatches == 0, \
            "warm query dispatched simulations"
        assert svc.sweep_metrics.evaluated == 0, \
            "warm query reached the sweep engine"
        assert pareto["service"]["hits"] == len(grid)
        assert pareto["missing"] == 0

    # The reductions must be the ones the warming sweep implies, record
    # for record.
    assert pareto["frontier"] == \
        [result_record(f) for f in pareto_frontier(exact)], \
        "queried frontier diverged from the exact sweep's"
    assert edp["edp_optimal"] == result_record(edp_optimal(exact)), \
        "queried EDP optimum diverged from the exact sweep's"

    speedup = warm_s / query_s
    _numbers["warm_query"] = {
        "points": len(grid),
        "warm_sweep_seconds": warm_s,
        "query_seconds": query_s,
        "speedup": speedup,
        "min_speedup": MIN_QUERY_SPEEDUP,
    }
    print(f"\nwarm query [{WORKLOAD}, {len(grid)} points]: sweep "
          f"{warm_s:.1f}s, pareto+edp query {query_s:.3f}s -> "
          f"{speedup:.0f}x (floor {MIN_QUERY_SPEEDUP}x, "
          f"enforce={ENFORCE})")

    if ENFORCE:
        assert speedup >= MIN_QUERY_SPEEDUP, (
            f"warm query is only {speedup:.1f}x faster than the warming "
            f"sweep (floor {MIN_QUERY_SPEEDUP}x)")


def test_get_many_beats_per_key_gets(tmp_path):
    # A mostly-cold probe: 400 cached entries, 8000 probed keys.  The
    # per-key loop pays a failed open per absent key; the batch path
    # pays one directory scan and then skips them in memory.
    cached, probed = 400, 8000
    root = str(tmp_path / "cache")
    writer = SweepCache(root)

    def fake_key(i):
        return hashlib.sha256(f"point-{i}".encode()).hexdigest()

    keys = [fake_key(i) for i in range(probed)]
    for i, key in enumerate(keys[:cached]):
        writer.put(key, RunResult(WORKLOAD, DesignPoint(), i + 1, i + 1,
                                  {}, None, energy_pj=1.0))

    t0 = time.perf_counter()
    loop_hits = {}
    for key in keys:
        result = writer.get(key)
        if result is not None:
            loop_hits[key] = result
    loop_s = time.perf_counter() - t0

    # Fresh instance so the timed region includes the index scan.
    reader = SweepCache(root)
    t0 = time.perf_counter()
    batch_hits = reader.get_many(keys)
    batch_s = time.perf_counter() - t0

    def ticks(hits):
        return {key: result.total_ticks for key, result in hits.items()}

    assert ticks(batch_hits) == ticks(loop_hits), \
        "get_many returned different results than per-key gets"
    assert len(batch_hits) == cached

    speedup = loop_s / batch_s
    _numbers["get_many"] = {
        "cached_entries": cached,
        "probed_keys": probed,
        "per_key_seconds": loop_s,
        "batch_seconds": batch_s,
        "speedup": speedup,
        "min_speedup": MIN_GETMANY_SPEEDUP,
    }
    print(f"\nget_many [{cached}/{probed} warm]: per-key {loop_s:.3f}s, "
          f"batch {batch_s:.3f}s -> {speedup:.1f}x "
          f"(floor {MIN_GETMANY_SPEEDUP}x, enforce={ENFORCE})")

    if ENFORCE:
        assert speedup >= MIN_GETMANY_SPEEDUP, (
            f"get_many is only {speedup:.1f}x faster than per-key gets "
            f"(floor {MIN_GETMANY_SPEEDUP}x)")


def test_zzz_write_bench_report():
    # Runs last (pytest collects in file order): persist whatever the
    # earlier benchmarks measured, even on a partial run.
    doc = {"workload": WORKLOAD, "enforced": ENFORCE, **_numbers}
    with open(OUT_PATH, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
    print(f"\nwrote {OUT_PATH}")
