"""The sweep service core: coalescing, dedup, and store-backed queries.

:class:`SweepService` sits between any number of concurrent clients and
one sweep engine.  Every requested design point resolves exactly one
way:

* **hit** — the content-addressed cache already holds the result;
* **join** — an identical point (same ``sweep_key``) is already being
  evaluated for another client, so this request attaches to that
  in-flight evaluation instead of starting a second one;
* **dispatch** — the point is genuinely cold and is queued for
  evaluation (at most once fleet-wide).

A dispatcher thread takes the whole queue as soon as it wakes (points
that arrive while a batch runs form the next one; identical points meet
in the in-flight table, so no wait for stragglers would dedup more),
splits it into per-``(workload, config, fidelity)`` batches and runs
each through
:func:`repro.core.sweep.run_sweep` — so they share trace capture, the
worker pool, and (under ``fidelity="auto"``) one triage round — with
``on_error="collect"``: a failing point becomes a
:class:`~repro.core.sweeppool.FailedPoint` for its waiters, never a
dead dispatcher.

Joins are tier-aware: a client that asked for ``"exact"`` results only
joins exact-tier in-flight points (an ``"auto"`` evaluation may resolve
a pruned point with a fast-model prediction, which an exact client must
never receive), while ``"auto"``/``"fast"`` clients happily join an
exact evaluation — it is strictly better than what they asked for.
"""

import hashlib
import os
import re
import threading
import time
import traceback
from collections import deque

from repro.core.config import SoCConfig
from repro.core.export import result_record
from repro.core.pareto import edp_optimal, pareto_frontier, reducible
from repro.core.sweep import (
    FIDELITIES,
    cache_design_space,
    dma_design_space,
    run_sweep,
)
from repro.core.sweeppool import (
    _BATCH_PROBE_MIN,
    FailedPoint,
    SweepCache,
    SweepMetrics,
    _raw_identity,
    keyed_payloads,
)
from repro.errors import CalibrationError
from repro.obs.stats import percentile

#: Sliding window of per-request latencies kept for the percentiles.
LATENCY_WINDOW = 1024

#: Which in-flight tiers a requester of a given tier may join, in
#: preference order.  ``exact`` only joins exact (an auto/fast entry
#: may resolve to a prediction); ``auto``/``fast`` join anything at
#: least as precise as what they asked for.
_JOIN_TIERS = {
    "exact": ("exact",),
    "auto": ("exact", "auto"),
    "fast": ("exact", "auto", "fast"),
}


class ServiceMetrics:
    """Fleet-level counters for one :class:`SweepService`.

    ``points`` partitions into ``hits`` + ``joins`` + ``dispatches``;
    ``evaluated``/``failures`` partition the dispatched points by
    outcome.  ``store_reads`` counts the store entries the service
    decoded from disk rather than answered from the store's memo.
    ``queue_depth`` is a gauge (points queued, not yet handed to the
    engine); per-request latencies feed a bounded sliding window
    summarized as p50/p95.  All mutation goes through :meth:`bump` /
    :meth:`observe_latency`, which take the internal lock — safe from
    any number of client threads plus the dispatcher.
    """

    #: Every reported value, declared once in :meth:`snapshot` order:
    #: ``(name, initial value, registry description)``.  An initial value
    #: of ``None`` marks a value derived on read: the store's decode
    #: count or a latency percentile of the window.
    FIELDS = (
        ("requests", 0, "client requests served"),
        ("points", 0, "design points requested"),
        ("hits", 0, "points answered from the result store"),
        ("store_reads", None, "store entries decoded from disk"),
        ("joins", 0, "points deduplicated onto an in-flight evaluation"),
        ("dispatches", 0, "points evaluated fresh (at most one per "
         "unique point)"),
        ("evaluated", 0, "dispatched points that completed"),
        ("failures", 0, "dispatched points that failed"),
        ("batches", 0, "coalesced engine batches"),
        ("queue_wait_s", 0.0, "summed wait from each batch's oldest "
         "queued point to the batch start (s)"),
        ("queue_depth", 0, "points queued awaiting dispatch"),
        ("latency_p50", None, "median request latency (s)"),
        ("latency_p95", None, "95th-percentile request latency (s)"),
    )

    def __init__(self, store=None):
        # Re-entrant so snapshot() can read the percentile properties,
        # which lock on their own, inside one consistent view.
        self._lock = threading.RLock()
        self.store = store  # the SweepCache whose reads are reported
        for name, initial, _desc in self.FIELDS:
            if initial is not None:
                setattr(self, name, initial)
        self.latencies = deque(maxlen=LATENCY_WINDOW)

    def bump(self, **counts):
        with self._lock:
            for name, n in counts.items():
                setattr(self, name, getattr(self, name) + n)

    def set_queue_depth(self, depth):
        with self._lock:
            self.queue_depth = depth

    def observe_latency(self, seconds):
        with self._lock:
            self.latencies.append(seconds)

    @property
    def store_reads(self):
        return self.store.reads if self.store is not None else 0

    @property
    def latency_p50(self):
        with self._lock:
            return percentile(self.latencies, 50)

    @property
    def latency_p95(self):
        with self._lock:
            return percentile(self.latencies, 95)

    def snapshot(self):
        """One consistent JSON-able view of every counter."""
        with self._lock:
            return {name: getattr(self, name) for name, _i, _d in self.FIELDS}

    def reg_stats(self, registry, prefix="serve"):
        """Mirror the counters into an :mod:`repro.obs` stats registry."""
        for name, _initial, desc in self.FIELDS:
            registry.scalar(f"{prefix}.{name}", desc=desc,
                            getter=lambda name=name: getattr(self, name))


class _Inflight:
    """One design point being evaluated for whoever cares to wait."""

    __slots__ = ("key", "workload", "design", "cfg", "tier", "event",
                 "result", "enqueued")

    def __init__(self, key, workload, design, cfg, tier):
        self.enqueued = time.perf_counter()  # queued as soon as it exists
        self.key = key
        self.workload = workload
        self.design = design
        self.cfg = cfg
        self.tier = tier
        self.event = threading.Event()
        self.result = None

    def fulfill(self, result):
        self.result = result
        self.event.set()


class SweepService:
    """Shared sweep front door: submit design points, query the store.

    One service owns one cache directory (the content-addressed result
    store) and one dispatcher thread.  Any number of threads may call
    :meth:`submit` / :meth:`query` concurrently; identical points are
    simulated at most once across all of them.

    ``fidelity=None`` (the default) picks per workload: ``"auto"``
    triage when a persisted calibration exists under ``cache_dir``
    (``repro calibrate``), ``"exact"`` otherwise.  ``jobs`` is the
    worker count of the engine the dispatcher hands batches to.
    """

    def __init__(self, cache_dir, jobs=None, cfg=None, fidelity=None):
        if fidelity is not None and fidelity not in FIDELITIES:
            raise ValueError(
                f"fidelity must be one of {FIDELITIES} or None, "
                f"got {fidelity!r}")
        self.cache_dir = cache_dir
        self.cache = SweepCache(cache_dir)
        self.jobs = jobs
        self.default_cfg = cfg or SoCConfig()
        self.fidelity = fidelity
        self.metrics = ServiceMetrics(self.cache)
        self.sweep_metrics = SweepMetrics()  # engine-side aggregate
        self._lock = threading.Lock()
        self._inflight = {}   # key -> {tier: _Inflight}
        self._queue = deque()
        self._wakeup = threading.Event()
        self._closed = False
        # (workload, raw config identity or hash) -> Calibration|None
        self._calibrations = {}
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatcher",
            daemon=True)
        self._dispatcher.start()

    # -- lifecycle -----------------------------------------------------------

    def close(self, timeout=10.0):
        """Stop the dispatcher; queued-but-undispatched points fail."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            leftover = list(self._queue)
            self._queue.clear()
            self.metrics.set_queue_depth(0)
        self._wakeup.set()
        for entry in leftover:
            self._settle(entry, FailedPoint(
                entry.workload, entry.design,
                "RuntimeError('service closed before dispatch')"))
        self._dispatcher.join(timeout)

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.close()

    # -- kernel registration -------------------------------------------------

    def register_kernel(self, source, filename=None):
        """Register the ``@kernel`` functions in ``source`` (Python text).

        The body of ``POST /kernels``: the source is persisted under
        ``<cache_dir>/kernels/`` (content-addressed, so re-submitting
        identical source is idempotent), loaded, and its kernels
        registered — from then on the store sweeps them by name exactly
        like builtin workloads, including through the worker pool
        (loaded kernel files are advertised to spawned workers via
        ``$REPRO_KERNEL_PATHS``).

        Returns ``[{"name", "description", "source"}, ...]`` for the
        registered kernels.  Raises :class:`~repro.errors.FrontendError`
        or :class:`~repro.errors.WorkloadError` on unloadable source or
        a name collision with a builtin — mapped to HTTP 400 upstream.

        **Trust note**: registering a kernel executes the submitted
        Python.  ``repro serve`` binds loopback by default; anyone who
        can POST here can already run code as the service user.
        """
        from repro.frontend import load_kernel_file
        if not source or not isinstance(source, str):
            raise ValueError("kernel source must be a non-empty string")
        digest = hashlib.sha256(source.encode("utf-8")).hexdigest()[:16]
        stem = "kernel"
        if filename:
            safe = re.sub(r"[^A-Za-z0-9_.-]", "_", os.path.basename(filename))
            stem = safe[:-3] if safe.endswith(".py") else safe
        kernels_dir = os.path.join(self.cache_dir, "kernels")
        path = os.path.join(kernels_dir, f"{stem}-{digest}.py")
        with self._lock:
            if not os.path.exists(path):
                os.makedirs(kernels_dir, exist_ok=True)
                tmp = path + ".tmp"
                with open(tmp, "w") as fh:
                    fh.write(source)
                os.replace(tmp, path)
        loaded = load_kernel_file(path, replace=True)
        return [{"name": wl.name, "description": wl.description,
                 "source": "frontend"} for wl in loaded]

    # -- tier / calibration resolution ---------------------------------------

    def _calibration(self, workload, cfg):
        from repro.core.calibrate import Calibration, config_hash
        # Keyed by the config's raw fields, so a repeated lookup hashes
        # nothing; configs with non-scalar fields fall back to the hash.
        cache_key = (workload,
                     _raw_identity(cfg, cfg.__dict__) or config_hash(cfg))
        if cache_key not in self._calibrations:
            self._calibrations[cache_key] = Calibration.load(
                self.cache_dir, workload, cfg)
        return self._calibrations[cache_key]

    def _tier_for(self, workload, cfg, fidelity):
        tier = fidelity if fidelity is not None else self.fidelity
        if tier is None:
            tier = ("auto" if self._calibration(workload, cfg) is not None
                    else "exact")
        elif tier not in FIDELITIES:
            raise ValueError(
                f"fidelity must be one of {FIDELITIES}, got {tier!r}")
        if tier != "exact" and self._calibration(workload, cfg) is None:
            raise CalibrationError(
                f"no calibration for {workload!r} under {self.cache_dir!r} "
                f"(fidelity={tier!r}); run `repro calibrate {workload} "
                f"--cache-dir {self.cache_dir}` first")
        return tier

    # -- the front door ------------------------------------------------------

    def submit(self, workload, designs, cfg=None, fidelity=None):
        """Evaluate ``designs`` with fleet-wide dedup.

        Blocks until every point resolves and returns ``(results,
        report)``: results in input order (``FailedPoint`` in the slot
        of anything that failed — the service never raises for a bad
        point) and a report dict with the per-request provenance counts
        (``hits`` / ``joins`` / ``dispatches`` / ``failures``).
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("SweepService is closed")
        cfg = cfg or self.default_cfg
        tier = self._tier_for(workload, cfg, fidelity)
        start = time.perf_counter()
        keyed = keyed_payloads(workload, designs, cfg)
        keys = [key for key, _payload in keyed]
        payloads = dict(keyed)
        # Cheap pre-lock snapshot: the index answers big warm queries
        # without holding the service lock across disk reads.
        snapshot = (self.cache.get_many(keys, payloads)
                    if len(designs) >= _BATCH_PROBE_MIN else {})
        slots = [None] * len(designs)
        report = {"points": len(designs), "hits": 0, "joins": 0,
                  "dispatches": 0, "failures": 0, "tier": tier}
        fresh = []
        with self._lock:
            for i, key in enumerate(keys):
                result = snapshot.get(key)
                if result is not None:
                    slots[i] = ("hit", result)
                    continue
                entry = self._join_target(key, tier)
                if entry is not None:
                    slots[i] = ("join", entry)
                    continue
                # Authoritative re-probe under the lock: catches points
                # cached after the snapshot (including the window where
                # a batch has written the cache but not yet retired its
                # in-flight entry) — without it a point could dispatch
                # twice.
                result = self.cache.get(key, payloads[key])
                if result is not None:
                    self.cache.index().add(key)
                    slots[i] = ("hit", result)
                    continue
                entry = _Inflight(key, workload, designs[i], cfg, tier)
                self._inflight.setdefault(key, {})[tier] = entry
                fresh.append(entry)
                slots[i] = ("dispatch", entry)
            if fresh:
                self._queue.extend(fresh)
                self.metrics.set_queue_depth(len(self._queue))
        if fresh:
            self._wakeup.set()

        results = [None] * len(designs)
        for i, (kind, obj) in enumerate(slots):
            if kind == "hit":
                results[i] = obj
                report["hits"] += 1
            else:
                obj.event.wait()
                results[i] = obj.result
                report["joins" if kind == "join" else "dispatches"] += 1
            if getattr(results[i], "is_failure", False):
                report["failures"] += 1

        self.metrics.bump(requests=1, points=len(designs),
                          hits=report["hits"], joins=report["joins"],
                          dispatches=report["dispatches"])
        self.metrics.observe_latency(time.perf_counter() - start)
        return results, report

    def _join_target(self, key, tier):
        """The joinable in-flight entry for ``key``, or None (lock held)."""
        entries = self._inflight.get(key)
        if not entries:
            return None
        for candidate in _JOIN_TIERS[tier]:
            entry = entries.get(candidate)
            if entry is not None:
                return entry
        return None

    # -- the dispatcher ------------------------------------------------------

    def _dispatch_loop(self):
        while True:
            self._wakeup.wait()
            with self._lock:
                # Cleared under the lock: a submit that queues after this
                # point sets the event again, so no wakeup is lost.
                self._wakeup.clear()
                batch = list(self._queue)
                self._queue.clear()
                self.metrics.set_queue_depth(0)
                closed = self._closed
            if not batch:
                if closed:
                    return
                continue
            groups = {}
            for entry in batch:
                group_key = (entry.workload, id(entry.cfg), entry.tier)
                groups.setdefault(group_key, []).append(entry)
            for entries in groups.values():
                self._run_batch(entries)

    def _run_batch(self, entries):
        """Evaluate one coalesced (workload, cfg, tier) batch.

        Never raises: an engine-level explosion fails every entry's
        waiters with a :class:`FailedPoint` instead of killing the
        dispatcher thread.
        """
        workload = entries[0].workload
        cfg = entries[0].cfg
        tier = entries[0].tier
        designs = [entry.design for entry in entries]
        self.metrics.bump(batches=1, queue_wait_s=(time.perf_counter()
                                                   - entries[0].enqueued))
        try:
            kwargs = {}
            if tier != "exact":
                kwargs["fidelity"] = tier
                kwargs["calibration"] = self._calibration(workload, cfg)
            results = run_sweep(workload, designs, cfg, parallel=self.jobs,
                                cache_dir=self.cache_dir,
                                metrics=self.sweep_metrics,
                                on_error="collect", write_manifest=False,
                                **kwargs)
        except Exception as exc:
            tb = traceback.format_exc()
            results = [FailedPoint(workload, design, repr(exc), tb)
                       for design in designs]
        nfailed = 0
        for entry, result in zip(entries, results):
            nfailed += bool(getattr(result, "is_failure", False))
            self._settle(entry, result)
        self.metrics.bump(evaluated=len(entries) - nfailed,
                          failures=nfailed)

    def _settle(self, entry, result):
        """Retire one in-flight entry and wake its waiters.

        The engine cached the result *before* this runs (run_sweep
        flushes per point), so a concurrent submit in the gap either
        still joins the entry or re-probes the cache under the lock —
        both correct, never a double dispatch.
        """
        with self._lock:
            tiers = self._inflight.get(entry.key)
            if tiers is not None and tiers.get(entry.tier) is entry:
                del tiers[entry.tier]
                if not tiers:
                    del self._inflight[entry.key]
            if (not getattr(result, "is_failure", False)
                    and getattr(result, "fidelity", "exact") == "exact"):
                # Teach the service-side index about the engine's write
                # (the engine used its own SweepCache instance).
                self.cache.index().add(entry.key)
        entry.fulfill(result)

    # -- queries over the store ----------------------------------------------

    def query(self, kind, workload, designs=None, cfg=None, space="both",
              density="standard", fidelity=None, evaluate=True):
        """Answer a ``sweep`` / ``pareto`` / ``edp`` / ``figure`` query.

        ``designs`` defaults to the Figure-8 design space named by
        ``space`` (``"dma"`` / ``"cache"`` / ``"both"``) at ``density``.
        Cold points are evaluated through :meth:`submit` (tiered triage
        by default); ``evaluate=False`` makes the query warm-only — it
        answers from the store in O(cache lookup) and reports how many
        points were ``missing`` instead of simulating them.

        Returns a JSON-able dict: the reduction (records via
        :func:`repro.core.export.result_record`, each carrying its
        ``fidelity``) plus the provenance report.
        """
        if kind not in ("sweep", "pareto", "edp", "figure"):
            raise ValueError(
                f'kind must be "sweep", "pareto", "edp" or "figure", '
                f'got {kind!r}')
        cfg = cfg or self.default_cfg
        if designs is None:
            designs = self._space(space, density)
        missing = 0
        if evaluate:
            results, report = self.submit(workload, designs, cfg,
                                          fidelity=fidelity)
        else:
            keyed = keyed_payloads(workload, designs, cfg)
            keys = [key for key, _payload in keyed]
            payloads = dict(keyed)
            hits = self.cache.get_many(keys, payloads)
            results = [hits.get(k) for k in keys]
            missing = sum(1 for r in results if r is None)
            report = {"points": len(designs), "hits": len(designs) - missing,
                      "joins": 0, "dispatches": 0, "failures": 0,
                      "tier": "warm"}
            self.metrics.bump(requests=1, points=len(designs),
                              hits=report["hits"])
        # One rule with `repro sweep`, sweep_pareto and the figures:
        # failures drop out, and so, under "auto", do the unconfirmed
        # predictions the triage guarantees are dominated.  Under "fast"
        # store hits and predictions pool together.
        pool = reducible([r for r in results if r is not None],
                         report["tier"])
        response = {
            "kind": kind,
            "workload": workload,
            "points": len(designs),
            "missing": missing,
            "service": report,
        }
        if kind == "sweep":
            response["results"] = [result_record(r) for r in pool]
            return response
        if kind == "pareto":
            response["frontier"] = [result_record(r)
                                    for r in pareto_frontier(pool)]
            response["edp_optimal"] = (result_record(edp_optimal(pool))
                                       if pool else None)
        elif kind == "edp":
            response["edp_optimal"] = (result_record(edp_optimal(pool))
                                       if pool else None)
        else:  # figure: Fig-8 shape, one frontier per memory interface
            response["interfaces"] = {}
            for interface in ("dma", "cache"):
                sub = [r for r in pool
                       if r.design.mem_interface == interface]
                response["interfaces"][interface] = {
                    "frontier": [result_record(r)
                                 for r in pareto_frontier(sub)],
                    "edp_optimal": (result_record(edp_optimal(sub))
                                    if sub else None),
                }
        return response

    @staticmethod
    def _space(space, density):
        if space == "dma":
            return dma_design_space(density)
        if space == "cache":
            return cache_design_space(density)
        if space == "both":
            return dma_design_space(density) + cache_design_space(density)
        raise ValueError(
            f'space must be "dma", "cache" or "both", got {space!r}')

    def reg_stats(self, registry, prefix="serve"):
        """Mirror service + engine counters into an obs stats registry."""
        self.metrics.reg_stats(registry, prefix=prefix)
        self.sweep_metrics.reg_stats(registry, prefix=f"{prefix}.engine")
