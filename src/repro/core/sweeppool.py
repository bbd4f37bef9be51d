"""Parallel, memoized design-space sweep execution.

Every figure of the paper is a cross-product of ``run_design`` calls
(:mod:`repro.core.sweep`); this module is the engine that makes those
sweeps run as fast as the hardware allows:

* **Parallelism** — design points are independent simulations, so they fan
  out over a ``multiprocessing`` pool.  Workers are spawn-safe (the worker
  function is a module-level callable taking only picklable arguments) and
  results are returned in the exact order of the input design list, so a
  parallel sweep is a drop-in replacement for the serial one.

* **Memoization** — an on-disk :class:`SweepCache` keyed by a stable
  SHA-256 hash of ``(workload, DesignPoint, SoCConfig)`` stores every
  evaluated :class:`~repro.core.metrics.RunResult` (as JSON).  Repeated
  figure or benchmark runs pay each design point exactly once; a warm
  cache evaluates zero new points.  Both the cache's reads and the keys
  (:func:`keyed_payloads`) are also memoized in process, within fixed
  bounds, so a repeated warm query neither decodes nor hashes again.

* **Metrics** — a :class:`SweepMetrics` record (in the spirit of
  :mod:`repro.sim.stats` counters) reports points evaluated vs. cache
  hits, wall time per point, and worker utilization, so sweep time is
  observable rather than guessed at.

* **Robustness** — long sweeps treat per-point failure as routine, not
  fatal (in the tradition of gem5 batch infrastructure): a raising design
  point becomes a structured :class:`FailedPoint` under
  ``on_error="collect"``, transient failures retry, a
  per-point wall-clock ``timeout`` and dead-worker detection keep the pool
  from ever hanging, evaluated results flush incrementally through the
  cache plus a sweep-level :class:`SweepManifest` so interrupted sweeps
  resume where they left off, and repeated pool-level failure degrades
  gracefully to serial evaluation.

* **Warm workers** — pool workers outlive the sweep that started them.
  A sweep borrows idle workers from one process-wide warm set, spawns
  only the shortfall, and returns the live idle ones at the end, so
  back-to-back sweeps skip interpreter start-up and reuse each worker's
  trace/DDG caches.  The set retires every idle worker when the start
  method, the ``REPRO_*`` environment or the workload registry changes
  (see :func:`_pool_key`), and drains at exit or on
  :func:`shutdown_pool`.

Cache format (see :data:`CACHE_FORMAT_VERSION`):

``<cache_dir>/<key[:2]>/<key>.json`` where ``key`` is the hex SHA-256 of
the canonical JSON ``{"version", "workload", "design", "config"}``
payload; ``design`` and ``config`` are the *canonicalized* fields of the
:class:`DesignPoint` (its ``to_record()``) and :class:`SoCConfig` (see
:func:`canonical_design_fields`), so any parameter change that can
influence the simulation — including ones not on the sweep grid —
invalidates the entry, while two clients describing the same point
differently (``8`` vs ``8.0``, a DMA design dragging along unused cache
geometry) hash identically.  Each file is the JSON object ``{"key":
payload, "result": RunResult.to_record()}``; the embedded payload guards
against hash collisions and lets tooling inspect entries without
re-deriving keys (entries written without a payload skip the guard).
Corrupt or unreadable entries, and entries
:meth:`~repro.core.metrics.RunResult.from_record` refuses, are treated
as misses and rewritten.  Failed points are never cached, so a resumed
sweep re-evaluates exactly the missing and failed points.

Where the pending points *run* follows one dispatch rule (see
:func:`run_sweep_pool`): the warm worker pool when the sweep asks for
more than one worker or a killable ``timeout`` and the parent can spawn
workers, inline otherwise.  Both paths settle points through the same
callbacks, so they are bit-identical.
"""

import atexit
import glob
import hashlib
import json
import math
import os
import pickle
import sys
import tempfile
import threading
import time
import traceback as _traceback
import warnings
from collections import OrderedDict, deque
from numbers import Integral, Real
from types import SimpleNamespace

try:
    import resource
except ImportError:  # pragma: no cover - not on this platform
    resource = None

from repro.core.config import DesignPoint, SoCConfig
from repro.core.metrics import RunResult
from repro.core.soc import run_design
from repro.errors import ConfigError, SweepError

#: Bump when the simulator's timing/energy models change in ways that make
#: previously cached RunResults stale.  v2: canonicalized key payloads
#: (numeric normalization + interface-irrelevant field masking).
#: v3: the boolean loop-pipelining flag replaced by the
#: ``pipelining``/``ii`` fields.  Dropping the boolean's constructor
#: spelling later needed no bump: keys hash every ``DesignPoint`` field,
#: which have held only ``pipelining`` and ``ii`` since v3, so warm result
#: stores stay valid.
CACHE_FORMAT_VERSION = 3

#: Conventional cache location (the CLI default; gitignored).
DEFAULT_CACHE_DIR = ".sweep-cache"


# -- cache keys ---------------------------------------------------------------

#: DesignPoint fields with no influence on a DMA-interface simulation
#: (verified by the regression suite: varying any of them leaves every
#: measured metric bit-identical).  Masked to their defaults in the key
#: payload so two clients describing the same DMA design — one dragging
#: along cache geometry, one not — hash to the same cache entry.
DMA_IRRELEVANT_FIELDS = ("cache_size_kb", "cache_line", "cache_ports",
                         "cache_assoc", "prefetcher", "perfect_memory")

#: DesignPoint fields with no influence on a cache-interface simulation.
#: Note ``spad_ports`` is *not* here: cache designs still exercise the
#: scratchpad port arbitration, so it stays a hash input.
CACHE_IRRELEVANT_FIELDS = ("pipelined_dma", "dma_triggered_compute",
                           "double_buffer")

_DESIGN_DEFAULTS = DesignPoint().to_record()


def _canon_value(value):
    """JSON-stable scalar: integral floats collapse to ints (8.0 -> 8)."""
    if (isinstance(value, float) and not isinstance(value, bool)
            and value.is_integer()):
        return int(value)
    return value


def canonical_design_fields(design):
    """The hashed identity of a DesignPoint: complete, canonical fields.

    Starts from the full record (:meth:`DesignPoint.to_record`, so fields
    off the sweep grid still invalidate), then (1) normalizes numerics so
    ``8`` and ``8.0`` serialize identically and (2) masks the fields the
    selected memory interface provably ignores to their defaults — two
    non-canonical descriptions of the same design point must hash
    identically, or concurrent clients pay double evaluation for nothing.
    """
    fields = {name: _canon_value(value)
              for name, value in design.to_record().items()}
    masked = (DMA_IRRELEVANT_FIELDS if design.is_dma
              else CACHE_IRRELEVANT_FIELDS)
    for name in masked:
        fields[name] = _canon_value(_DESIGN_DEFAULTS[name])
    return fields


def canonical_config_fields(cfg):
    """The hashed identity of an SoCConfig (numeric-normalized)."""
    return {name: _canon_value(value)
            for name, value in cfg.__dict__.items()}


def key_payload(workload, design, cfg=None):
    """The canonical, JSON-able identity of one design-point evaluation."""
    cfg = cfg or SoCConfig()
    return {
        "version": CACHE_FORMAT_VERSION,
        "workload": workload,
        "design": canonical_design_fields(design),
        "config": canonical_config_fields(cfg),
    }


def _payload_key(payload):
    """The hex SHA-256 of one :func:`key_payload` (the cache key)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sweep_key(workload, design, cfg=None):
    """Stable hex digest identifying one ``(workload, design, cfg)`` run."""
    return _payload_key(key_payload(workload, design, cfg))


class _Memo:
    """A bounded, lock-guarded LRU map; ``fills`` counts insertions."""

    def __init__(self, bound):
        self.bound = bound
        self.fills = 0
        self._lock = threading.Lock()
        self._table = OrderedDict()

    def get(self, key):
        with self._lock:
            value = self._table.get(key)
            if value is not None:
                self._table.move_to_end(key)
            return value

    def put(self, key, value):
        with self._lock:
            self._table[key] = value
            self._table.move_to_end(key)
            self.fills += 1
            if len(self._table) > self.bound:
                self._table.popitem(last=False)

    def discard(self, key):
        with self._lock:
            self._table.pop(key, None)

    def clear(self):
        with self._lock:
            self._table.clear()


#: Bound of the design-key memo behind :func:`keyed_payloads`.  An entry
#: (raw identity, key and payload, the canonical config shared) costs
#: about 1.5 KB, so a full memo holds about 3 MB.
KEY_MEMO_ENTRIES = 2048

#: Field value types the key memo accepts; any other value (a list set
#: after construction, a ``str`` subclass) is canonicalized afresh.
_MEMO_SCALARS = frozenset((bool, int, float, str, type(None)))

_KEYS = _Memo(KEY_MEMO_ENTRIES)     # (workload, design id, cfg id) -> keyed
_CONFIGS = _Memo(KEY_MEMO_ENTRIES)  # cfg id -> canonical config fields


def _raw_identity(obj, fields):
    """Hashable identity of ``obj``'s raw ``fields``, or None.

    Each value travels with its exact type, so values that compare equal
    but canonicalize differently (``True`` vs ``1``) stay apart.  Only
    plain scalars qualify: a container could hide such a pair inside
    (``(1,) == (True,)``), so an object holding one is not memoized.
    """
    types = tuple(map(type, fields.values()))
    if not _MEMO_SCALARS.issuperset(types):
        return None
    return type(obj), tuple(fields), tuple(fields.values()), types


def _shared_config(cfg, cfg_id):
    """``cfg``'s canonical fields, one dict per raw config identity."""
    config = _CONFIGS.get(cfg_id)
    if config is None:
        config = canonical_config_fields(cfg)
        if cfg_id is not None:
            _CONFIGS.put(cfg_id, config)
    return config


def keyed_payloads(workload, designs, cfg=None):
    """``[(sweep_key, key_payload)]`` per design.

    Memoized per raw ``(workload, design fields, config fields)``
    identity (bounded by :data:`KEY_MEMO_ENTRIES`), so a design seen
    before is neither canonicalized nor hashed again; the first sight
    canonicalizes it once.  Payloads under one config share one
    canonical config dict.  The returned payloads are shared with the
    memo: callers must not mutate them.
    """
    cfg = cfg or SoCConfig()
    cfg_id = _raw_identity(cfg, cfg.__dict__)
    out = []
    for design in designs:
        design_id = _raw_identity(design, design.to_record())
        memo_key = (workload, design_id, cfg_id)
        keyed = _KEYS.get(memo_key)
        if keyed is None:
            payload = {
                "version": CACHE_FORMAT_VERSION,
                "workload": workload,
                "design": canonical_design_fields(design),
                "config": _shared_config(cfg, cfg_id),
            }
            keyed = (_payload_key(payload), payload)
            if design_id is not None and cfg_id is not None:
                _KEYS.put(memo_key, keyed)
        out.append(keyed)
    return out


# -- the on-disk cache --------------------------------------------------------

def write_atomic(path, text):
    """Write ``text`` to ``path`` through a temp file and ``os.replace``,
    so a concurrent reader sees the old file or the new one, never a torn
    one."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


#: Sweep size from which the cache probe switches to the batch path
#: (one directory scan via the key index) instead of per-point probes.
_BATCH_PROBE_MIN = 64


#: Bound of each :class:`SweepCache`'s in-process memo.  A decoded
#: entry (``RunResult`` plus stored payload) costs about 7.5 KB against
#: 2.1 KB of JSON on disk (``aes-aes`` quick grid, 21 entries), so a
#: full memo holds about 8 MB.
STORE_MEMO_ENTRIES = 1024


class SweepCache:
    """JSON-per-point result cache under one root directory.

    Writes are atomic (temp file + ``os.replace``) so concurrent sweeps
    sharing a cache directory never observe torn entries; unreadable or
    mismatched entries read as misses.

    Reads are memoized: each instance keeps a bounded, lock-guarded
    in-process memo of ``key -> (stored payload, RunResult)`` holding
    the :data:`STORE_MEMO_ENTRIES` most recently read entries.  Only a
    successful disk read fills it (never :meth:`put`, which drops the
    key), so a corrupt or unreadable entry still reads as a miss, and a
    memo hit applies the same payload collision guard as a disk read.
    :attr:`reads` counts the entries decoded from disk.  An entry that
    another process deletes keeps answering from memory until it is
    evicted or :meth:`clear` runs; results are deterministic per key,
    so the answer is still the right one.

    Batch reads go through :meth:`get_many`, backed by a lazily built
    in-memory key index (one directory scan): probing a large, mostly
    warm query then costs one ``os.walk`` plus a read per *present*
    entry not yet in the memo instead of a failed ``open`` per point.
    The index is a fast-path hint, not a source of truth — a key another
    process adds after the scan reads as a miss until
    :meth:`refresh_index` (or a local :meth:`put`, which updates the
    index) catches up, which only ever costs a redundant re-evaluation,
    never a wrong answer.
    """

    def __init__(self, root):
        self.root = root
        self._index = None  # lazy set of known-present keys
        self._memo = _Memo(STORE_MEMO_ENTRIES)
        os.makedirs(root, exist_ok=True)

    def _path(self, key):
        return os.path.join(self.root, key[:2], key + ".json")

    def _entries(self):
        """Every entry's path (manifests and calibrations share the root)."""
        return glob.glob(os.path.join(glob.escape(self.root), "??", "*.json"))

    @property
    def reads(self):
        """Store entries decoded from disk (each read fills the memo)."""
        return self._memo.fills

    # -- in-memory key index (batch fast path) -------------------------------

    def index(self):
        """The set of cached keys, scanned lazily from the directory."""
        index = self._index
        if index is None:
            index = {os.path.basename(path)[:-len(".json")]
                     for path in self._entries()}
            self._index = index
        return index

    def refresh_index(self):
        """Drop and rebuild the key index (pick up other writers)."""
        self._index = None
        return self.index()

    def get_many(self, keys, payloads=None):
        """Batch lookup: ``{key: RunResult}`` for the cached subset.

        ``payloads`` optionally maps keys to their expected payload for
        the hash-collision guard (same semantics as :meth:`get`).  Keys
        absent from the index are skipped without touching the disk —
        the point of this method; an indexed key whose entry turns out
        unreadable is dropped from the index and reported as a miss.
        """
        index = self.index()
        out = {}
        for key in keys:
            if key not in index:
                continue
            result = self.get(
                key, payloads.get(key) if payloads is not None else None)
            if result is None:
                index.discard(key)
            else:
                out[key] = result
        return out

    def get(self, key, payload=None):
        """The cached RunResult for ``key``, or None on a miss.

        When both the caller and the stored entry carry a payload, they
        must match (hash-collision guard).  An entry stored *without* a
        payload cannot be verified, so it is accepted on the key alone —
        a ``put(key, result)`` followed by a payload-verifying ``get``
        must round-trip, not read as a permanent collision miss.
        """
        entry = self._memo.get(key)
        if entry is None:
            try:
                with open(self._path(key), "rb") as f:
                    doc = json.load(f)
                entry = (doc["key"], RunResult.from_record(doc["result"]))
            except (OSError, ValueError, TypeError, KeyError, ConfigError):
                return None
            self._memo.put(key, entry)
        stored, result = entry
        if payload is not None and stored is not None and stored != payload:
            return None  # hash collision or stale format: treat as miss
        return result

    def put(self, key, result, payload=None):
        """Atomically store ``result`` under ``key``."""
        write_atomic(self._path(key), json.dumps(
            {"key": payload, "result": result.to_record()}))
        self._memo.discard(key)
        index = self._index
        if index is not None:
            index.add(key)

    def __len__(self):
        return len(self._entries())

    def clear(self):
        """Drop every cached entry and the memo (keeps the directory)."""
        for path in self._entries():
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass  # another clear got there first
        self._memo.clear()
        self._index = None


# -- sweep metrics ------------------------------------------------------------

def _mean(values):
    return sum(values) / len(values)


def _finite(values, reduce):
    """``reduce`` over the finite entries of ``values`` (0.0 if none)."""
    finite = [v for v in values if v == v and v != float("inf")]
    return reduce(finite) if finite else 0.0


class SweepMetrics:
    """Counters describing where one sweep's time went.

    ``points`` partitions into ``cache_hits`` + ``evaluated`` +
    ``failures``; per-point wall times accumulate in ``point_seconds``
    (successfully evaluated points only).  ``worker_utilization`` is total
    simulation time over total pool capacity (jobs x wall-clock span) —
    near 1.0 means the pool stayed busy, near 1/jobs means the sweep was
    effectively serial.  ``jobs`` records the worker count the engine
    *actually* used (after any spawn-safety fallback to inline
    evaluation), not merely the one requested.

    Robustness counters (see the robust engine knobs on
    :func:`run_sweep_pool`): ``failures`` points that exhausted their
    retry budget, ``retries`` re-issued attempts, ``timeouts`` the subset
    of failed attempts killed by the per-point wall-clock limit.

    Tiered-fidelity counters (see :mod:`repro.core.calibrate`):
    ``fast_points`` analytic predictions made, ``pruned`` points the
    triage skipped exactly, ``confirmed`` points re-evaluated exactly
    after triage; ``fast_time_errors`` / ``fast_power_errors`` collect the
    measured fast-vs-exact relative error for every confirmed pair.

    Pool-cost counters: ``workers_spawned`` worker processes started for
    this sweep (0 when every worker was borrowed warm; replacements for
    dead or timed-out workers count too), ``worker_peak_rss_mb`` the
    largest peak resident set any of its workers reported.  Warm workers
    outlive the sweep, so this is where their memory stays visible.

    Points the service front door satisfies by joining another client's
    in-flight evaluation never reach the engine, so they appear in no
    counter here; the service counts them per request (``report["joins"]``
    of :meth:`repro.serve.service.SweepService.submit`) and fleet-wide
    (:class:`repro.serve.service.ServiceMetrics`).
    """

    #: Every reported value, declared once in :meth:`as_dict` order:
    #: ``(name, initial value, registry description)``.  An initial value
    #: of ``None`` marks a property derived from the raw counters; a
    #: description of ``None`` keeps the value out of :meth:`reg_stats`.
    FIELDS = (
        ("points", 0, "design points requested"),
        ("evaluated", 0, "points evaluated exactly"),
        ("cache_hits", 0, "points served from cache"),
        ("failures", 0, "points that exhausted retries"),
        ("retries", 0, "re-issued attempts"),
        ("timeouts", 0, "attempts killed by the per-point timeout"),
        ("workers_spawned", 0, "pool worker processes started"),
        ("worker_peak_rss_mb", 0.0, "largest pool worker peak RSS (MB)"),
        ("jobs", 1, None),
        ("wall_seconds", 0.0, None),
        ("seconds_per_point", None, None),
        ("worker_utilization", None, None),
        ("fast_points", 0, "analytic fast-model predictions"),
        ("pruned", 0, "points pruned by fast-model triage"),
        ("confirmed", 0, "triaged points confirmed exactly"),
        ("fast_time_error_max", None, "max fast-vs-exact time error"),
        ("fast_time_error_mean", None, None),
        ("fast_power_error_max", None, "max fast-vs-exact power error"),
        ("fast_power_error_mean", None, None),
    )

    def __init__(self):
        for name, initial, _desc in self.FIELDS:
            if initial is not None:
                setattr(self, name, initial)
        self.point_seconds = []
        self.fast_time_errors = []
        self.fast_power_errors = []

    @property
    def seconds_per_point(self):
        return _mean(self.point_seconds) if self.point_seconds else 0.0

    @property
    def worker_utilization(self):
        if self.wall_seconds <= 0.0 or self.jobs <= 0:
            return 0.0
        return min(sum(self.point_seconds)
                   / (self.wall_seconds * self.jobs), 1.0)

    fast_time_error_max = property(
        lambda self: _finite(self.fast_time_errors, max))
    fast_time_error_mean = property(
        lambda self: _finite(self.fast_time_errors, _mean))
    fast_power_error_max = property(
        lambda self: _finite(self.fast_power_errors, max))
    fast_power_error_mean = property(
        lambda self: _finite(self.fast_power_errors, _mean))

    def as_dict(self):
        return {name: getattr(self, name) for name, _init, _d in self.FIELDS}

    def reg_stats(self, registry, prefix="sweep"):
        """Mirror these counters into an :mod:`repro.obs` stats registry."""
        for name, _initial, desc in self.FIELDS:
            if desc is not None:
                registry.scalar(f"{prefix}.{name}", desc=desc,
                                getter=lambda name=name: getattr(self, name))

    def report(self):
        """Human-readable multi-line summary."""
        lines = [
            "sweep metrics:",
            f"  points       : {self.points}",
            f"  evaluated    : {self.evaluated}",
            f"  cache hits   : {self.cache_hits}",
        ]
        if self.failures or self.retries or self.timeouts:
            lines.append(f"  failures     : {self.failures} "
                         f"({self.timeouts} timed out, "
                         f"{self.retries} retries)")
        if self.fast_points:
            lines.append(f"  fast points  : {self.fast_points} "
                         f"({self.pruned} pruned, "
                         f"{self.confirmed} confirmed exactly)")
        if self.fast_time_errors or self.fast_power_errors:
            lines.append(
                f"  fast error   : time max {self.fast_time_error_max:.1%} "
                f"mean {self.fast_time_error_mean:.1%}; "
                f"power max {self.fast_power_error_max:.1%} "
                f"mean {self.fast_power_error_mean:.1%}")
        lines.extend([
            f"  wall time    : {self.wall_seconds:.2f} s "
            f"({self.seconds_per_point:.3f} s/point evaluated)",
            f"  worker util  : {self.worker_utilization:.2f} "
            f"(jobs={self.jobs})",
        ])
        if self.workers_spawned or self.worker_peak_rss_mb:
            lines.append(f"  pool workers : {self.workers_spawned} spawned, "
                         f"peak RSS {self.worker_peak_rss_mb:.1f} MB")
        return "\n".join(lines)


# -- structured failures ------------------------------------------------------

class FailedPoint:
    """Structured record of one design point that could not be evaluated.

    Takes a :class:`~repro.core.metrics.RunResult` slot in the results
    list under ``on_error="collect"`` so ordering is preserved; filter
    with :func:`partition_results` before Pareto/EDP analyses.  ``kind``
    is ``"error"`` (the evaluation raised), ``"timeout"`` (killed by the
    per-point wall-clock limit) or ``"worker-lost"`` (the worker process
    died — crashed or OOM-killed).
    """

    is_failure = True

    def __init__(self, workload, design, error, traceback="", attempts=1,
                 kind="error"):
        self.workload = workload
        self.design = design
        self.error = error            # repr() of the exception
        self.traceback = traceback    # formatted text ("" if unavailable)
        self.attempts = attempts
        self.kind = kind

    def as_dict(self):
        return {
            "workload": self.workload,
            "design": self.design.to_record(),
            "error": self.error,
            "attempts": self.attempts,
            "kind": self.kind,
        }

    def __repr__(self):
        return (f"FailedPoint({self.workload!r}, {self.design!r}, "
                f"kind={self.kind!r}, attempts={self.attempts}, "
                f"error={self.error!r})")


def partition_results(results):
    """Split a sweep's results into ``(successes, failures)``.

    ``on_error="collect"`` sweeps interleave :class:`FailedPoint` entries
    with RunResults (in input order); every numeric consumer (Pareto
    frontiers, EDP optima, export) wants only the successes.
    """
    ok = [r for r in results if not getattr(r, "is_failure", False)]
    failed = [r for r in results if getattr(r, "is_failure", False)]
    return ok, failed


# -- deterministic fault injection (testing hook) -----------------------------

#: Fault-injection spec consulted by every sweep when no explicit
#: ``fault=`` argument is given; see :func:`parse_fault_spec`.
ENV_FAULT = "REPRO_SWEEP_FAULT"


def parse_fault_spec(spec):
    """Parse ``"raise@2,exit@0,hang@1*2"`` into ``{index: (kind, n)}``.

    Each comma-separated entry is ``kind@index`` or ``kind@index*n``:
    design point ``index`` misbehaves on its first ``n`` attempts
    (default: every attempt).  Kinds: ``raise`` (the evaluation raises),
    ``exit`` (the worker process hard-exits, as an OOM kill would),
    ``hang`` (the evaluation blocks until the per-point timeout fires).
    """
    faults = {}
    if not spec:
        return faults
    for part in str(spec).split(","):
        part = part.strip()
        if not part:
            continue
        kind, sep, rest = part.partition("@")
        kind = kind.strip()
        if not sep or kind not in ("raise", "exit", "hang"):
            raise ValueError(
                f"bad fault entry {part!r}: want raise@i, exit@i or "
                f"hang@i (optionally *n)")
        index_text, _sep, count = rest.partition("*")
        faults[int(index_text)] = (kind, int(count) if count else sys.maxsize)
    return faults


def inject_fault(faults, index, attempt):
    """Misbehave per the parsed fault spec (no-op for unlisted points)."""
    kind, failing_attempts = faults.get(index, (None, 0))
    if kind is None or attempt > failing_attempts:
        return
    if kind == "raise":
        raise RuntimeError(
            f"injected fault: point {index} attempt {attempt}")
    if kind == "exit":
        os._exit(17)
    if kind == "hang":
        time.sleep(3600.0)


# -- sweep manifest (checkpoint / resume) -------------------------------------

#: Subdirectory of the cache root holding sweep-level manifests.
MANIFEST_DIR = "manifests"
MANIFEST_VERSION = 2  # v2: canonical design/config fields in the id


def sweep_id(workload, designs, cfg=None):
    """Stable hex digest identifying one (workload, design list, cfg) sweep.

    Built from the same canonical field dicts as the per-point cache key
    (:func:`canonical_design_fields` / :func:`canonical_config_fields`),
    so two clients describing the same sweep with differently-spelled
    but simulation-equivalent specs (``8.0`` vs ``8``, irrelevant
    cross-interface knobs left at odd values) share one manifest.
    """
    cfg = cfg or SoCConfig()
    payload = {
        "version": MANIFEST_VERSION,
        "workload": workload,
        "config": canonical_config_fields(cfg),
        "designs": [canonical_design_fields(d) for d in designs],
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class SweepManifest:
    """Sweep-level checkpoint: per-point done/failed/pending status.

    Lives at ``<cache_dir>/manifests/<sweep_id>.json`` next to the result
    cache; rewritten atomically on every status change, so a crashed or
    interrupted sweep leaves an accurate record behind and
    ``repro sweep --resume`` can report (and re-evaluate) exactly the
    missing and failed points.
    """

    def __init__(self, cache_dir, workload, designs, cfg=None, keys=None):
        self.id = sweep_id(workload, designs, cfg)
        self.path = os.path.join(cache_dir, MANIFEST_DIR, self.id + ".json")
        self.workload = workload
        self.entries = [
            {
                "index": i,
                "key": keys[i] if keys else None,
                "design": design.to_record(),
                "status": "pending",
                "attempts": 0,
                "kind": None,
                "error": None,
            }
            for i, design in enumerate(designs)
        ]

    def mark(self, index, status, attempts=0, kind=None, error=None,
             save=True):
        entry = self.entries[index]
        entry["status"] = status
        entry["attempts"] = attempts
        entry["kind"] = kind
        entry["error"] = error
        if save:
            self.save()

    def counts(self):
        out = {"done": 0, "failed": 0, "pending": 0}
        for entry in self.entries:
            out[entry["status"]] = out.get(entry["status"], 0) + 1
        return out

    def as_dict(self):
        counts = self.counts()
        return {
            "version": MANIFEST_VERSION,
            "sweep_id": self.id,
            "workload": self.workload,
            "points": len(self.entries),
            "done": counts["done"],
            "failed": counts["failed"],
            "pending": counts["pending"],
            "entries": self.entries,
        }

    def save(self):
        """Atomically write the manifest."""
        write_atomic(self.path, json.dumps(self.as_dict(), indent=2,
                                           sort_keys=True) + "\n")

    @classmethod
    def peek(cls, cache_dir, workload, designs, cfg=None):
        """The previously saved manifest dict for this sweep, or None."""
        path = os.path.join(cache_dir, MANIFEST_DIR,
                            sweep_id(workload, designs, cfg) + ".json")
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, ValueError):
            return None
        return doc if doc.get("version") == MANIFEST_VERSION else None


# -- execution ----------------------------------------------------------------

def _evaluate_task(task, **run_options):
    """Evaluate one design point (module-level => spawn-safe).

    ``run_options`` (``profiler``/``registry``/``check``) pass through to
    :func:`~repro.core.soc.run_design`; only in-process callers set them.
    """
    index, workload, design, cfg, attempt, faults = task
    if faults:
        inject_fault(faults, index, attempt)
    start = time.perf_counter()
    result = run_design(workload, design, cfg, **run_options)
    return index, result, time.perf_counter() - start


def _spawn_can_reimport_main():
    """Whether a ``spawn``-context worker can re-import ``__main__``.

    Spawn workers re-run the parent's main module during bootstrap.  When
    the parent is interactive (REPL, ``python -`` / stdin, notebooks
    without a file) there is nothing to re-import; the pool would respawn
    crashing workers forever.  Those parents must run inline instead.
    """
    main = sys.modules.get("__main__")
    if main is None:
        return False
    if getattr(main, "__spec__", None) is not None:  # python -m ...
        return True
    path = getattr(main, "__file__", None)
    return bool(path) and os.path.exists(path)


def resolve_jobs(jobs):
    """Normalize a worker count: None/0 means one worker per CPU."""
    if not jobs:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


def _peak_rss_mb():
    """This process's peak resident set size in MB (0.0 if unknown)."""
    if resource is None:
        return 0.0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)


def _pickled_exception(exc):
    """``exc`` pickled for the parent, or None when it cannot be."""
    try:
        return pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return None


def _unpickled_exception(blob):
    """The exception a worker pickled, or None if it does not load."""
    if blob is None:
        return None
    try:
        exc = pickle.loads(blob)
    except Exception:
        return None
    return exc if isinstance(exc, BaseException) else None


def _worker_main(conn):
    """Pool worker: one task per message over a private pipe.

    Replies ``("ok", index, (result, elapsed), rss_mb)`` or ``("err",
    index, (error_repr, traceback_text, pickled_exception), rss_mb)``,
    where ``rss_mb`` is the worker's peak RSS so far and the pickled
    exception is None when it cannot be pickled.  Exits on ``None`` or a
    closed pipe.  Module-level and argument-picklable, so it is
    spawn-safe like :func:`_evaluate_task`.
    """
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        index = task[0]
        try:
            _idx, result, elapsed = _evaluate_task(task)
            msg = ("ok", index, (result, elapsed))
        except Exception as exc:
            msg = ("err", index, (repr(exc), _traceback.format_exc(),
                                  _pickled_exception(exc)))
        try:
            conn.send(msg + (_peak_rss_mb(),))
        except Exception as exc:  # e.g. unpicklable result
            try:
                conn.send(("err", index, (repr(exc), _traceback.format_exc(),
                                          None), _peak_rss_mb()))
            except Exception:
                return


class _WorkerHandle:
    """One pool worker process plus its duplex pipe and task slot."""

    __slots__ = ("proc", "conn", "task", "deadline")

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn
        self.task = None        # (index, attempt) while busy
        self.deadline = None    # monotonic deadline while busy (or None)

    def close(self, kill=False):
        if kill and self.proc.is_alive():
            self.proc.terminate()
        else:
            try:
                self.conn.send(None)
            except (OSError, BrokenPipeError, ValueError):
                pass
        try:
            self.conn.close()
        except OSError:
            pass
        self.proc.join(timeout=5.0)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join(timeout=5.0)


def _start_worker(ctx):
    """Spawn one pool worker (module-level so tests can stub it)."""
    parent_conn, child_conn = ctx.Pipe()
    proc = ctx.Process(target=_worker_main, args=(child_conn,),
                       daemon=True)
    proc.start()
    child_conn.close()
    return _WorkerHandle(proc, parent_conn)


#: Consecutive dead workers (with no completion in between) before the
#: pool gives up and falls back to serial evaluation.
_POOL_FAILURE_LIMIT = 4


# -- the warm worker set ------------------------------------------------------

#: Environment prefix whose variables a worker captures at start-up
#: (``REPRO_CHECK``, ``REPRO_DEBUG_FLAGS``, ``REPRO_KERNEL_PATHS``, ...).
_ENV_PREFIX = "REPRO_"

_warm_lock = threading.Lock()
_warm_key = None    # _pool_key() the idle workers were started under
_warm_idle = []     # idle, live _WorkerHandles owned by no sweep


def _pool_key(ctx):
    """What an idle worker must match to be reused.

    A worker fixes its start method, a copy of the environment and the
    workload registry as it was when it started, so a change to any of
    them makes it unfit to serve a sweep bit-identically to a fresh one.
    """
    from repro.workloads.registry import registry_generation
    env = tuple(sorted((name, value) for name, value in os.environ.items()
                       if name.startswith(_ENV_PREFIX)))
    return ctx.get_start_method(), env, registry_generation()


def _borrow_workers(key, count):
    """Take up to ``count`` live idle workers started under ``key``.

    A key mismatch retires every idle worker; idle workers that died
    since they were returned are discarded.
    """
    global _warm_key
    with _warm_lock:
        if key == _warm_key:
            retired = []
        else:
            retired = _warm_idle[:]
            _warm_idle.clear()
            _warm_key = key
        borrowed = []
        while _warm_idle and len(borrowed) < count:
            worker = _warm_idle.pop()
            (borrowed if worker.proc.is_alive() else retired).append(worker)
    for worker in retired:
        worker.close()
    return borrowed


def _return_workers(key, workers):
    """End of a sweep: keep the live idle workers warm, close the rest.

    Busy workers (the sweep raised or collapsed mid-task) are killed;
    workers borrowed under a key that has since been retired close.
    """
    keep = [w for w in workers if w.task is None and w.proc.is_alive()]
    with _warm_lock:
        if key != _warm_key:
            keep = []
        _warm_idle.extend(keep)
    for worker in workers:
        if worker not in keep:
            worker.close(kill=worker.task is not None)


def shutdown_pool():
    """Close every idle warm worker (also run at interpreter exit).

    Sweeps in flight keep their workers and close them when they end.
    """
    global _warm_key
    with _warm_lock:
        idle = _warm_idle[:]
        _warm_idle.clear()
        _warm_key = None
    for worker in idle:
        worker.close()


atexit.register(shutdown_pool)


def run_sweep_pool(workload, designs, cfg=None, jobs=1, cache_dir=None,
                   progress=None, metrics=None, mp_context="spawn",
                   on_error="raise", retries=0, timeout=None, fault=None,
                   evaluate=None, write_manifest=True):
    """Evaluate every design point, in parallel and/or memoized.

    This signature is the one declaration of the sweep engine's options:
    ``run_sweep`` and every layer above it forward them here unchanged.
    Returns the :class:`RunResult` list in the order of ``designs``
    regardless of worker scheduling.  ``jobs=None`` or ``0`` uses every
    CPU; ``jobs=1`` evaluates inline (no pool).  ``cache_dir`` enables
    the on-disk memo cache — a re-run of an interrupted cached sweep
    evaluates only its missing and failed points; ``metrics`` (a
    :class:`SweepMetrics`) is filled in place; ``progress(done, total)``
    is called as each point settles.

    Dispatch rule: the pending points run on the warm worker pool when
    the sweep asks for more than one worker (or a ``timeout``, which
    needs a worker to kill) and the parent can start workers — a
    ``spawn`` worker must be able to re-import ``__main__``; otherwise
    they run inline, in this process.  ``evaluate`` replaces the task
    runner (the signature of :func:`_evaluate_task`: a task tuple in,
    ``(index, result, elapsed)`` out) and forces inline evaluation;
    profiled, stats-dumping and checked sweeps use it to bind their
    in-process accumulators (see :func:`repro.core.sweep.run_sweep`).
    ``write_manifest=False`` skips the per-sweep checkpoint manifest —
    results still flush through the cache, but no
    ``manifests/<sweep_id>.json`` is written.  The service front door
    uses this for its coalesced ad-hoc batches, which are not resumable
    sweeps and would otherwise litter the manifest directory with
    one-off entries.

    Robustness knobs (all default to today's fail-fast behaviour):

    * ``on_error`` — ``"raise"`` propagates the first point failure (after
      retries) as a :class:`~repro.errors.SweepError`; ``"collect"``
      records a :class:`FailedPoint` in that point's result slot and keeps
      sweeping.
    * ``retries`` — an int >= 0: re-issue a failing point up to this many
      extra attempts, immediately.
    * ``timeout`` — ``None`` or finite per-point wall-clock seconds > 0;
      an overdue point's worker is killed and the point retried or failed
      (``kind="timeout"``).  Enforced via worker processes, so
      ``timeout`` with ``jobs=1`` still runs one worker; inline paths
      cannot enforce it and say so with a RuntimeWarning.
    * ``fault`` — deterministic fault-injection spec (see
      :func:`parse_fault_spec`); defaults to ``$REPRO_SWEEP_FAULT``.

    A bad ``on_error``, ``retries`` or ``timeout`` raises ValueError
    before any point runs.  Evaluated results flush through the cache
    (and a :class:`SweepManifest` when caching) as they complete, so a
    ``KeyboardInterrupt`` or crash loses nothing already evaluated.  A
    worker that *dies* (crash, OOM kill) is detected, replaced, and its
    point retried or failed (``kind="worker-lost"``) — a dead worker
    never hangs the sweep.  If workers die repeatedly with no progress,
    the sweep falls back to serial in-process evaluation with a warning.
    """
    if on_error not in ("raise", "collect"):
        raise ValueError(
            f'on_error must be "raise" or "collect", got {on_error!r}')
    if (isinstance(retries, bool) or not isinstance(retries, Integral)
            or retries < 0):
        raise ValueError(f"retries must be an int >= 0, got {retries!r}")
    if timeout is not None and not (
            isinstance(timeout, Real) and 0 < timeout < math.inf):
        raise ValueError(f"timeout must be None or finite seconds > 0, "
                         f"got {timeout!r}")
    jobs = resolve_jobs(jobs)
    metrics = metrics if metrics is not None else SweepMetrics()
    metrics.points += len(designs)
    sweep_start = time.perf_counter()
    cache = SweepCache(cache_dir) if cache_dir else None
    faults = parse_fault_spec(
        fault if fault is not None else os.environ.get(ENV_FAULT, ""))
    robust = on_error == "collect" or retries > 0 or timeout is not None

    results = [None] * len(designs)
    completed = 0
    pending = []
    payloads = {}
    if cache is not None:
        payloads = dict(enumerate(keyed_payloads(workload, designs, cfg)))
        if len(designs) >= _BATCH_PROBE_MIN:
            # Batch probe: one index scan answers every miss for free;
            # only present entries pay a read (SweepCache.get_many).
            hits = cache.get_many([kp[0] for kp in payloads.values()],
                                  payloads=dict(payloads.values()))
        else:
            # Small sweeps: per-point probes beat walking a cache
            # directory that may hold orders of magnitude more entries.
            hits = {}
            for key, payload in payloads.values():
                result = cache.get(key, payload)
                if result is not None:
                    hits[key] = result
        for i in range(len(designs)):
            hit = hits.get(payloads[i][0])
            if hit is not None:
                results[i] = hit
                metrics.cache_hits += 1
                completed += 1
                if progress is not None:
                    progress(completed, len(designs))
            else:
                pending.append(i)
    else:
        pending = list(range(len(designs)))

    manifest = None
    if cache is not None and write_manifest:
        manifest = SweepManifest(cache_dir, workload, designs, cfg,
                                 keys={i: kp[0]
                                       for i, kp in payloads.items()})
        for i in range(len(designs)):
            if results[i] is not None:
                manifest.mark(i, "done", save=False)
        manifest.save()

    def finish(index, result, elapsed):
        nonlocal completed
        results[index] = result
        metrics.evaluated += 1
        metrics.point_seconds.append(elapsed)
        if cache is not None:
            key, payload = payloads[index]
            cache.put(key, result, payload)
        if manifest is not None:
            manifest.mark(index, "done")
        completed += 1
        if progress is not None:
            progress(completed, len(designs))

    def fail(index, attempts, kind, error, tb):
        """Record one exhausted point; raises under ``on_error="raise"``."""
        nonlocal completed
        metrics.failures += 1
        if kind == "timeout":
            metrics.timeouts += 1
        if manifest is not None:
            manifest.mark(index, "failed", attempts=attempts, kind=kind,
                          error=error)
        failure = FailedPoint(workload, designs[index], error, tb,
                              attempts, kind)
        if on_error == "raise":
            raise SweepError(
                f"design point {index} ({designs[index]!r}) failed after "
                f"{attempts} attempt(s) [{kind}]: {error}",
                failure=failure)
        results[index] = failure
        completed += 1
        if progress is not None:
            progress(completed, len(designs))

    pooled = (evaluate is None and bool(pending)
              and (jobs > 1 or timeout is not None)
              and (mp_context != "spawn" or _spawn_can_reimport_main()))
    # Record the worker count actually used, after the spawn-safety
    # fallback: a sweep run inline must not report a parallel job count
    # (and a bogus utilization).
    nworkers = min(jobs, len(pending)) if pooled else 1
    metrics.jobs = max(metrics.jobs, nworkers)

    plan = SimpleNamespace(
        pending=[(i, 1) for i in pending], retries=retries,
        timeout=timeout, robust=robust, metrics=metrics, finish=finish,
        fail=fail,
        task=lambda index, attempt: (index, workload, designs[index], cfg,
                                     attempt, faults))
    try:
        if pooled:
            from multiprocessing import get_context
            plan.pending = _run_pool(get_context(mp_context), nworkers, plan)
            if plan.pending:
                warnings.warn(
                    "sweep worker pool failed repeatedly; falling back to "
                    "serial evaluation for the remaining "
                    f"{len(plan.pending)} point(s)", RuntimeWarning,
                    stacklevel=2)
        if plan.pending:
            _run_inline(plan, evaluate or _evaluate_task)
    finally:
        if manifest is not None:
            manifest.save()
        metrics.wall_seconds += time.perf_counter() - sweep_start
    return results


def _run_inline(plan, evaluate):
    """Settle ``plan``'s pending points serially, in this process.

    The reference engine: the pool must be bit-identical to it.  Honours
    ``retries``/``on_error`` but cannot enforce a per-point ``timeout``
    (there is no worker process to kill), so a plan that asks for one
    gets a RuntimeWarning and runs unbounded.  Each ``(index, attempt)``
    pair starts at its attempt, so points handed back by a collapsed
    pool keep their retry budget.  A non-robust plan lets the first
    evaluation error propagate raw.
    """
    if plan.timeout is not None:
        warnings.warn(
            "per-point sweep timeout needs worker processes; "
            "evaluating inline without timeout enforcement",
            RuntimeWarning, stacklevel=3)
    for index, attempt in plan.pending:
        while True:
            try:
                _idx, result, elapsed = evaluate(plan.task(index, attempt))
            except Exception as exc:
                if not plan.robust:
                    raise
                if attempt <= plan.retries:
                    plan.metrics.retries += 1
                    attempt += 1
                    continue
                plan.fail(index, attempt, "error", repr(exc),
                          _traceback.format_exc())
                break
            plan.finish(index, result, elapsed)
            break


def _run_pool(ctx, nworkers, plan):
    """Settle ``plan`` on up to ``nworkers`` warm or new worker processes.

    ``plan`` is the one :func:`run_sweep_pool` builds: the pending
    ``(index, attempt)`` pairs, the ``task`` builder, the robustness
    knobs and the ``finish``/``fail`` callbacks that settle each point.
    Apply-async-style dispatch over private per-worker pipes, one
    in-flight task per worker, so a dead worker (crashed / OOM-killed
    process) identifies exactly the point it was evaluating: the worker
    is reaped and replaced, the point retried or failed with
    ``kind="worker-lost"``.  A per-point ``timeout`` kills the overdue
    worker the same way (``kind="timeout"``).  A non-robust plan raises
    the first evaluation error as the worker's original exception (a
    :class:`SweepError` via ``plan.fail`` when it cannot be pickled).

    Workers are borrowed from the warm set and the live idle ones go
    back to it when the sweep ends, however it ends.  Returns the list
    of ``(index, attempt)`` pairs still outstanding if the pool collapsed
    (repeated worker deaths with no completions, or no spawnable
    workers) — the caller falls back to inline evaluation.
    """
    from multiprocessing.connection import wait as conn_wait
    from multiprocessing.pool import RemoteTraceback

    metrics, retries, timeout = plan.metrics, plan.retries, plan.timeout
    queue = deque(plan.pending)  # (index, attempt)
    key = _pool_key(ctx)
    workers = _borrow_workers(key, nworkers)
    consecutive_losses = 0

    def spawn():
        try:
            worker = _start_worker(ctx)
        except (OSError, RuntimeError, ValueError):
            return None
        metrics.workers_spawned += 1
        return worker

    def reap(worker, kill):
        workers.remove(worker)
        worker.close(kill=kill)
        replacement = spawn()
        if replacement is not None:
            workers.append(replacement)

    def requeue_or_fail(index, attempt, kind, error, tb):
        if attempt <= retries:
            metrics.retries += 1
            queue.append((index, attempt + 1))
        else:
            plan.fail(index, attempt, kind, error, tb)

    def abandoned():
        """Tasks still queued or in flight when the pool collapses."""
        out = list(queue)
        for worker in workers:
            if worker.task is not None:
                out.append(worker.task)
        out.sort()
        return out

    try:
        for _ in range(nworkers - len(workers)):
            worker = spawn()
            if worker is not None:
                workers.append(worker)
        if not workers:
            return abandoned()

        while queue or any(w.task is not None for w in workers):
            now = time.monotonic()
            # Replace idle workers that died between tasks.
            for worker in list(workers):
                if worker.task is None and not worker.proc.is_alive():
                    reap(worker, kill=True)
            if not workers:
                return abandoned()
            # Dispatch to idle workers.
            for worker in list(workers):
                if worker.task is not None:
                    continue
                if not queue:
                    break
                index, attempt = queue.popleft()
                try:
                    worker.conn.send(plan.task(index, attempt))
                except (OSError, BrokenPipeError, ValueError):
                    queue.appendleft((index, attempt))
                    consecutive_losses += 1
                    reap(worker, kill=True)
                    if consecutive_losses >= _POOL_FAILURE_LIMIT:
                        return abandoned()
                    continue
                worker.task = (index, attempt)
                worker.deadline = (now + timeout
                                   if timeout is not None else None)
            busy = [w for w in workers if w.task is not None]
            if not busy:
                # Every send failed: re-dispatch to the replacements (or
                # collapse at the loop top); with an empty queue, done.
                continue
            # Wait for a reply or the nearest deadline.
            poll = 0.05
            deadlines = [w.deadline for w in busy if w.deadline is not None]
            if deadlines:
                poll = max(0.0, min(min(deadlines) - now, poll))
            ready = conn_wait([w.conn for w in busy], timeout=poll)
            ready_set = set(ready)
            for worker in busy:
                if worker.conn not in ready_set:
                    continue
                index, attempt = worker.task
                try:
                    msg = worker.conn.recv()
                except (EOFError, OSError):
                    # Worker died mid-task: replace it, blame its point.
                    worker.task = worker.deadline = None
                    consecutive_losses += 1
                    reap(worker, kill=True)
                    requeue_or_fail(index, attempt, "worker-lost",
                                    "worker process died "
                                    "(crashed or killed)", "")
                    if consecutive_losses >= _POOL_FAILURE_LIMIT:
                        return abandoned()
                    continue
                worker.task = worker.deadline = None
                consecutive_losses = 0
                tag, idx, payload, rss_mb = msg
                metrics.worker_peak_rss_mb = max(metrics.worker_peak_rss_mb,
                                                 rss_mb)
                if tag == "ok":
                    plan.finish(idx, *payload)
                    continue
                error, tb, blob = payload
                exc = None if plan.robust else _unpickled_exception(blob)
                if exc is not None:
                    raise exc from RemoteTraceback(tb)
                requeue_or_fail(idx, attempt, "error", error, tb)
            # Enforce per-point deadlines on workers that stayed silent.
            now = time.monotonic()
            for worker in list(workers):
                if (worker.task is None or worker.deadline is None
                        or now < worker.deadline):
                    continue
                index, attempt = worker.task
                worker.task = worker.deadline = None
                reap(worker, kill=True)
                requeue_or_fail(
                    index, attempt, "timeout",
                    f"design point exceeded the per-point timeout "
                    f"({timeout:g} s)", "")
        return []
    finally:
        _return_workers(key, workers)
