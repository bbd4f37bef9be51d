"""Tiered-fidelity sweep backend: a calibrated analytic fast model.

The gem5 ecosystem wins order-of-magnitude sweep throughput from a
fidelity hierarchy (Atomic vs Timing vs O3 CPU models); gem5-Aladdin
itself validates a closed-form phase model against hardware at ~5-6%
error (Section III-F).  This module cashes that in for our sweeps:

* **Calibration** (:func:`calibrate_workload`): run a small sample of
  exact simulations per workload and design class, tabulate the isolated
  compute schedule over the sweep's (lanes, partitions, spad_ports)
  combinations, and least-squares-fit per-class correction coefficients
  over analytic phase features — flush/invalidate and DMA streaming terms
  for DMA designs (:mod:`repro.core.analytic`), functional cache-miss
  counts for cache designs.  The fitted factors persist as JSON in the
  sweep cache directory together with an in-sample error bound (computed
  with :func:`repro.core.validation.relative_error`).

* **Fast evaluation** (:meth:`Calibration.predict`): one design point
  becomes a table lookup plus a dot product — no event simulation — and
  returns a :class:`FastResult` (a :class:`~repro.core.metrics.RunResult`
  with ``fidelity == "fast"``).

* **Triage** (:func:`run_sweep_tiered` with ``fidelity="auto"``): sweep
  the whole space with the fast model, then run confirm-and-prune rounds:
  evaluate the predicted Pareto frontier exactly, prune every candidate
  whose *optimistic* prediction (``pred / (1 + b)``, with ``b`` the
  calibrated per-axis error bound) is dominated by a confirmed exact
  point, and
  repeat until no candidates remain.  Pruning only ever compares an
  exact measurement against an optimistic bound, so — as long as ``b``
  truly bounds the fast model's relative error — every true-frontier
  point gets confirmed and the exact-confirmed frontier equals the full
  exact sweep's frontier; dominance implies strictly better EDP, so the
  EDP optimum is preserved too.  Measured fast-vs-exact errors and
  pruned/confirmed counts are reported through
  :class:`~repro.core.sweeppool.SweepMetrics`.
"""

import hashlib
import json
import os
import time

from repro.aladdin.accelerator import Accelerator, make_scratchpad
from repro.aladdin.activity import (
    Activity,
    CacheActivity,
    SpadActivity,
    TlbActivity,
)
from repro.aladdin.area import AreaModel
from repro.aladdin.ir import Op
from repro.aladdin.power import PowerModel
from repro.core.analytic import phase_terms
from repro.core.config import SoCConfig
from repro.core.metrics import RunResult
from repro.core.sweeppool import write_atomic
from repro.core.validation import relative_error
from repro.errors import CalibrationError
from repro.units import (
    freq_mhz_to_period_ticks,
    ns_to_ticks,
    ticks_to_seconds,
)
from repro.workloads import cached_trace

#: Bump when fit features or the persisted schema change.  v4: class
#: names and compute-table keys always carry the pipelining mode.  v5:
#: compute-table entries hold schedule ``ticks`` only.
CALIBRATION_VERSION = 5

#: Subdirectory of the sweep cache root holding calibration files.
CALIBRATION_DIR = "calibrations"

#: The persisted error bound is the in-sample maximum times this margin.
SAFETY_FACTOR = 1.5

#: Floor / ceiling on the persisted relative error bound.
MIN_ERROR_BOUND = 0.02
MAX_ERROR_BOUND = 0.95

#: Classes whose in-sample error exceeds this are rejected outright:
#: the analytic features demonstrably cannot express the class's
#: behaviour (fft-transpose's cache runtime, for one), so no guard band
#: derived from the fit can be trusted.  Rejected classes predict
#: ``None`` and the auto triage evaluates them exactly — correctness is
#: preserved, only the speedup is lost for that slice of the space.
MAX_FIT_ERROR = 0.5

_PAGE = 4096


def config_hash(cfg=None):
    """Short stable digest of a platform configuration.

    Calibrations are per (workload, SoCConfig): any platform parameter
    change (bus width, DRAM timing, driver constants) invalidates them.
    """
    cfg = cfg or SoCConfig()
    text = json.dumps(dict(cfg.__dict__), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def design_class(design):
    """The correction-factor bucket a design point falls into.

    DMA designs with different transfer optimizations have genuinely
    different phase composition (serial vs overlapped), so each
    (pipelined, triggered, double_buffer) combination is fitted
    separately.  Cache designs split by line size: the line sets both the
    miss penalty shape and the per-access energy, and one pooled fit
    across lines roughly doubles the in-sample error (measured on
    bfs-bulk: pooled 0.19, split 0.08).
    """
    # The pipelining mode changes the compute-phase shape wholesale
    # (barrier-synchronized vs II-overlapped rounds), so each mode gets
    # its own buckets.
    if design.is_dma:
        return (f"dma:p{int(design.pipelined_dma)}"
                f"t{int(design.dma_triggered_compute)}"
                f"b{int(design.double_buffer)}:{design.pipelining}")
    return f"cache:l{design.cache_line}:{design.pipelining}"


# -- trace profiles (design-independent, memoized on the trace) ---------------

def _trace_profile(trace):
    """Memory-node counts of one trace: per array, and over shared arrays.

    Memoized on the trace object, like the scheduler's construction
    tables: a kernel re-registered under the same name gets a new trace,
    so it can never be answered from its predecessor's counts.
    """
    profile = getattr(trace, "_fast_profile_memo", None)
    if profile is not None:
        return profile
    accesses = {}
    for array in trace.node_array:
        if array is not None:
            accesses[array] = accesses.get(array, 0) + 1
    internal = {name for name, decl in trace.arrays.items()
                if decl.kind == "internal"}
    profile = trace._fast_profile_memo = {
        "accesses": accesses,
        "shared_pages": sum(-(-decl.size_bytes // _PAGE)
                            for name, decl in trace.arrays.items()
                            if name not in internal),
        "shared_accesses": sum(count for name, count in accesses.items()
                               if name not in internal),
    }
    return profile


# -- functional cache model ---------------------------------------------------

def functional_cache_profile(workload, size_bytes, line, assoc,
                             prefetcher="none", prefetch_degree=2):
    """One-pass LRU set-associative simulation of the shared access stream.

    Replays the trace's static memory stream (shared arrays only, laid out
    page-aligned in declaration order exactly like
    :meth:`repro.core.soc.Platform.alloc_region`) against an idealized
    cache — including the strided prefetcher when the design enables it,
    since prefetch fills shift both the demand-miss count and pollution
    writebacks — yielding hit/miss/writeback *counts*: the structural
    inputs of the cache-design time and energy fits.  Memoized per
    geometry on the trace object.
    """
    trace = cached_trace(workload)
    memo = getattr(trace, "_functional_cache_memo", None)
    if memo is None:
        memo = trace._functional_cache_memo = {}
    key = (size_bytes, line, assoc, prefetcher, prefetch_degree)
    cached = memo.get(key)
    if cached is not None:
        return cached
    from repro.memory.prefetch import NullPrefetcher, StridePrefetcher
    base = {}
    word_bytes = {}
    offset = 0
    for name, decl in trace.arrays.items():
        if decl.kind == "internal":
            continue
        base[name] = offset
        word_bytes[name] = decl.word_bytes
        offset += -(-decl.size_bytes // _PAGE) * _PAGE
    if prefetcher == "stride":
        pf = StridePrefetcher(degree=prefetch_degree)
    else:
        pf = NullPrefetcher()
    num_sets = max(size_bytes // (line * assoc), 1)
    sets = [dict() for _ in range(num_sets)]  # tag -> dirty, LRU by order
    hits = misses = writebacks = prefetch_fills = reads = writes = 0

    def install(lineno, dirty):
        nonlocal writebacks
        s = sets[lineno % num_sets]
        tag = lineno // num_sets
        if len(s) >= assoc:
            victim = next(iter(s))
            if s.pop(victim):
                writebacks += 1
        s[tag] = dirty

    node_array = trace.node_array
    node_index = trace.node_index
    node_op = trace.node_op
    for node in range(len(node_array)):
        array = node_array[node]
        if array is None:
            continue
        b = base.get(array)
        if b is None:  # internal array: served by the scratchpad
            continue
        addr = b + node_index[node] * word_bytes[array]
        is_write = node_op[node] == Op.STORE
        if is_write:
            writes += 1
        else:
            reads += 1
        lineno = addr // line
        s = sets[lineno % num_sets]
        tag = lineno // num_sets
        if tag in s:
            hits += 1
            s[tag] = s.pop(tag) or is_write  # refresh LRU position
        else:
            misses += 1
            install(lineno, is_write)
        for target in pf.observe(array, addr, line):
            t_lineno = target // line
            t_set = sets[t_lineno % num_sets]
            if t_lineno // num_sets not in t_set:
                prefetch_fills += 1
                install(t_lineno, False)
    counts = {"hits": hits, "misses": misses, "writebacks": writebacks,
              "prefetch_fills": prefetch_fills,
              "reads": reads, "writes": writes}
    memo[key] = counts
    return counts


# -- isolated-compute tabulation ----------------------------------------------

def _cache_counts(workload, design):
    """(time, energy) functional count pairs for one cache design.

    Time features use the pure demand stream (``prefetcher="none"``): the
    fitted coefficients absorb average prefetch benefit, and emulated
    prefetch misses overstate serial cost because MSHRs overlap them.
    Energy counts emulate the design's actual prefetcher — every fill and
    pollution writeback costs a line transfer regardless of overlap.
    """
    size = design.cache_size_kb * 1024
    return (functional_cache_profile(workload, size, design.cache_line,
                                     design.cache_assoc),
            functional_cache_profile(workload, size, design.cache_line,
                                     design.cache_assoc,
                                     prefetcher=design.prefetcher))


def _combo_key(lanes, partitions, spad_ports, pipelining, ii):
    """Compute-table key, e.g. ``"4x4x1:barriers:auto"``."""
    return f"{lanes}x{partitions}x{spad_ports}:{pipelining}:{ii}"


def tabulate_compute(workload, combos, progress=None):
    """Isolated-run schedule table over the distinct datapath combinations.

    A combination is (lanes, partitions, spad_ports, pipelining, ii),
    ``ii`` spelled as a string; each entry holds the isolated run's
    ``ticks``.  The fast tier's compute phase is a lookup into this
    table — an isolated run costs a sizable fraction of an exact
    co-simulation, so paying it once per combination at calibration time
    (instead of per design point per sweep) is what makes fast
    predictions cheap.  Spad energy and area are not tabulated: they do
    not depend on the schedule, so the fast tier prices them exactly from
    its activity record.
    """
    trace = cached_trace(workload)
    table = {}
    combos = sorted(set(combos))
    for i, combo in enumerate(combos):
        lanes, partitions, spad_ports, pipelining, ii = combo
        ii_val = ii if ii == "auto" else int(ii)
        res = Accelerator(trace, lanes, partitions, spad_ports,
                          pipelining=pipelining, ii=ii_val).run_isolated()
        table[_combo_key(*combo)] = {"ticks": res.ticks}
        if progress is not None:
            progress(i + 1, len(combos))
    return table


# -- pure-python least squares ------------------------------------------------

def _solve(A, b):
    """Gaussian elimination with partial pivoting (small dense systems)."""
    n = len(A)
    M = [row[:] + [b[i]] for i, row in enumerate(A)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(M[r][col]))
        if abs(M[pivot][col]) < 1e-300:
            raise CalibrationError("singular normal equations in fit")
        M[col], M[pivot] = M[pivot], M[col]
        inv = 1.0 / M[col][col]
        for r in range(n):
            if r == col:
                continue
            f = M[r][col] * inv
            if f:
                for c in range(col, n + 1):
                    M[r][c] -= f * M[col][c]
    return [M[i][n] / M[i][i] for i in range(n)]


def _lstsq(rows, y, ridge=1e-8):
    """Ridge least squares with column normalization (conditioning)."""
    n, k = len(rows), len(rows[0])
    scale = [max(abs(rows[i][j]) for i in range(n)) or 1.0 for j in range(k)]
    X = [[rows[i][j] / scale[j] for j in range(k)] for i in range(n)]
    A = [[sum(X[i][a] * X[i][b] for i in range(n)) for b in range(k)]
         for a in range(k)]
    trace_a = sum(A[j][j] for j in range(k))
    lam = ridge * (trace_a / k if trace_a > 0 else 1.0)
    for j in range(k):
        A[j][j] += lam
    B = [sum(X[i][a] * y[i] for i in range(n)) for a in range(k)]
    beta = _solve(A, B)
    return [beta[j] / scale[j] for j in range(k)]


def nonneg_lstsq(rows, y, free=(0,)):
    """Least squares with nonnegative coefficients (clamp-and-refit).

    Physical correction factors scale phase durations and energies, so a
    negative coefficient is a sign of collinearity, not physics: the most
    negative constrained coefficient is dropped (pinned to zero) and the
    remainder refitted.  Columns in ``free`` (the intercept) may go
    negative.
    """
    k = len(rows[0])
    active = list(range(k))
    free = set(free)
    while True:
        sub = [[row[j] for j in active] for row in rows]
        beta = _lstsq(sub, y)
        worst = None
        for pos, j in enumerate(active):
            if j in free or beta[pos] >= 0.0:
                continue
            if worst is None or beta[pos] < beta[worst]:
                worst = pos
        if worst is None:
            out = [0.0] * k
            for pos, j in enumerate(active):
                out[j] = beta[pos]
            return out
        del active[worst]
        if not active:
            return [0.0] * k


def _rel_lstsq(rows, y, free=(0,)):
    """Nonnegative least squares on *relative* residuals.

    The calibration's contract is a bound on relative error, and exact
    runtimes span orders of magnitude across a class's grid, so fitting
    absolute residuals lets the large samples buy accuracy at the small
    samples' expense — up to negative predictions for the small ones
    (measured on fft-transpose).  Scaling each row by ``1/y`` makes
    least squares minimize the quantity the bound actually measures.
    """
    w = [1.0 / max(abs(v), 1e-12) for v in y]
    rows = [[f * wi for f in row] for row, wi in zip(rows, w)]
    return nonneg_lstsq(rows, [v * wi for v, wi in zip(y, w)], free=free)


def _dot(coeffs, features):
    return sum(c * f for c, f in zip(coeffs, features))


# -- feature builders ---------------------------------------------------------

def _activity(trace, design, cfg, cache_counts=None):
    """The fast tier's activity record for one design.

    The scratchpad is the design's real layout with one access per
    memory node of its arrays (a schedule moves accesses in time, never
    changes their number); cache traffic comes from the functional cache
    model, and the TLB misses once per shared page.
    """
    profile = _trace_profile(trace)
    kinds = None if design.is_dma else ("internal",)
    spad = SpadActivity(make_scratchpad(trace, design.partitions,
                                        design.spad_ports, kinds=kinds),
                        profile["accesses"])
    cache = tlb = None
    if not design.is_dma:
        cache = CacheActivity(
            design.cache_size_kb * 1024, design.cache_assoc,
            design.cache_ports, cfg.mshrs, cache_counts["reads"],
            cache_counts["writes"], cache_counts["misses"],
            cache_counts["prefetch_fills"], cache_counts["writebacks"])
        misses = min(profile["shared_pages"], profile["shared_accesses"])
        tlb = TlbActivity(cfg.tlb_entries,
                          profile["shared_accesses"] - misses, misses)
    return Activity(design.lanes, trace.op_histogram(), spad, cache, tlb)


def _design_inputs(workload, design, cfg):
    """``(phases, time_counts, activity)`` of one design.

    DMA designs carry their static analytic phases and no cache counts;
    cache designs the reverse.
    """
    trace = cached_trace(workload)
    if design.is_dma:
        return (phase_terms(workload, design, cfg), None,
                _activity(trace, design, cfg))
    time_counts, energy_counts = _cache_counts(workload, design)
    return None, time_counts, _activity(trace, design, cfg, energy_counts)


def _time_features(design, cfg, compute_ticks, phases=None,
                   cache_counts=None):
    """Structural time features; the fitted coefficients compose them.

    DMA: ``[1, compute, max(dma_in, compute)]`` — within one DMA class the
    flush/invalidate/driver/DMA terms are design-invariant (they fold into
    the intercept); what varies is the compute schedule and how much of
    the transfer it hides.  Cache: ``[1, compute, hit-service, miss-
    service, max(compute, hits), max(compute, hits + misses)]`` — port-
    serialized hits, DRAM-latency misses, and two bottleneck alternatives,
    because runtime is bottleneck-shaped (compute-bound at low lanes,
    port-bound at high), which no purely additive combination can
    express.  Which bottleneck applies depends on how well the workload's
    MSHRs overlap misses: the nonnegative fit picks per class, keeping
    misses additive where they overlap (gemm-ncubed) and folded into the
    bottleneck where they serialize (bfs-bulk).
    """
    if design.is_dma:
        return [1.0, float(compute_ticks),
                float(max(phases.dma_in, compute_ticks))]
    period = freq_mhz_to_period_ticks(cfg.accel_clock_mhz)
    bus_bytes = cfg.bus_width_bits // 8
    penalty = (ns_to_ticks(cfg.dram_row_hit_ns)
               + -(-design.cache_line // bus_bytes) * period)
    hit_service = cache_counts["hits"] * period / design.cache_ports
    miss_service = float(cache_counts["misses"] * penalty)
    return [1.0, float(compute_ticks), hit_service, miss_service,
            float(max(compute_ticks, hit_service)),
            float(max(compute_ticks, hit_service + miss_service))]


def _energy_features(activity, t_pred_ticks):
    """``[1, dynamic_pj, leakage_pj_over_predicted_runtime]``."""
    model = PowerModel(activity)
    leak_pj = (model.leakage_mw() * 1e-3 * ticks_to_seconds(t_pred_ticks)
               * 1e12)
    return [1.0, model.dynamic_pj(), leak_pj]


def _breakdown(phases, total, compute):
    """Approximate cycle classes that still sum to ``total``."""
    compute_only = min(compute, total)
    rest = total - compute_only
    dma_flush = flush_only = 0
    if phases is not None:
        dma_flush = min(phases.dma_in + phases.dma_out, rest)
        rest -= dma_flush
        flush_only = min(phases.flush, rest)
    return {
        "flush_only": flush_only,
        "dma_flush": dma_flush,
        "compute_dma": 0,
        "compute_only": compute_only,
        "other": total - compute_only - dma_flush - flush_only,
    }


# -- fast results -------------------------------------------------------------

class FastResult(RunResult):
    """A design point evaluated by the calibrated analytic model.

    Interchangeable with an exact :class:`RunResult` everywhere results
    flow (Pareto, EDP, export, reporting); distinguished by
    ``fidelity == "fast"``.  Its ``energy_pj`` is a fitted total with no
    honest per-component split, so ``energy`` is ``None``; its ``area``
    is the real :class:`~repro.aladdin.area.AreaBreakdown`.
    """

    fidelity = "fast"


# -- the calibration artifact -------------------------------------------------

class ClassFit:
    """Fitted correction coefficients for one design class."""

    def __init__(self, time_coeffs, energy_coeffs, time_error_max,
                 power_error_max, samples):
        self.time_coeffs = list(time_coeffs)
        self.energy_coeffs = list(energy_coeffs)
        self.time_error_max = time_error_max
        self.power_error_max = power_error_max
        self.samples = samples

    def as_dict(self):
        return {
            "time_coeffs": self.time_coeffs,
            "energy_coeffs": self.energy_coeffs,
            "time_error_max": self.time_error_max,
            "power_error_max": self.power_error_max,
            "samples": self.samples,
        }

    @classmethod
    def from_dict(cls, doc):
        return cls(doc["time_coeffs"], doc["energy_coeffs"],
                   doc["time_error_max"], doc["power_error_max"],
                   doc["samples"])


class Calibration:
    """Per-(workload, platform) fast-model correction factors.

    Holds the isolated-compute table, per-class fitted coefficients, and
    the validated error bounds.  ``time_bound`` / ``power_bound`` bound
    the fast model's relative error per axis (time predicts tighter than
    power or vice versa, and the triage prunes per axis, so keeping them
    separate prunes strictly more than one pooled bound);
    ``error_bound`` / ``guard_band`` keep the pooled maximum for scalar
    consumers.  Persisted as JSON under
    ``<cache_dir>/calibrations/<workload>-<config_hash>.json``.
    """

    def __init__(self, workload, cfg_hash, density, compute_table, classes,
                 error_bound, guard_band, time_bound=None, power_bound=None,
                 rejected=None):
        self.workload = workload
        self.cfg_hash = cfg_hash
        self.density = density
        self.compute_table = dict(compute_table)
        self.classes = dict(classes)
        self.error_bound = error_bound
        self.guard_band = guard_band
        self.time_bound = error_bound if time_bound is None else time_bound
        self.power_bound = error_bound if power_bound is None else power_bound
        #: Classes whose fit failed validation (see ``MAX_FIT_ERROR``);
        #: they predict ``None`` and are always simulated exactly.
        self.rejected = dict(rejected or {})
        self._fallback = None

    # -- compute-table access ------------------------------------------------

    def _fallback_coeffs(self):
        """Hyperbolic ``[1, 1/l, 1/p, 1/(l*p)]`` ticks fit for off-table
        combos."""
        if self._fallback is None:
            rows, ticks = [], []
            for key, entry in self.compute_table.items():
                shape, mode, _ii = key.split(":")
                if mode != "barriers":
                    # Non-barrier entries have their own compute shape;
                    # pooling them would corrupt the hyperbolic fit.
                    continue
                lanes, parts, _ports = (int(v) for v in shape.split("x"))
                rows.append([1.0, 1.0 / lanes, 1.0 / parts,
                             1.0 / (lanes * parts)])
                ticks.append(float(entry["ticks"]))
            if not rows:
                return None
            self._fallback = _rel_lstsq(rows, ticks, free=(0,))
        return self._fallback

    def compute_ticks(self, design):
        """Tabulated (or interpolated) isolated-run ticks.

        ``None`` for an uncovered non-barrier combination: the
        hyperbolic interpolation is fitted on barrier-mode schedules
        only, so extrapolating it to a pipelined compute shape would be
        silently wrong — the caller falls back to exact simulation.
        """
        entry = self.compute_table.get(
            _combo_key(design.lanes, design.partitions, design.spad_ports,
                       design.pipelining, str(design.ii)))
        if entry is not None:
            return entry["ticks"]
        if design.pipelining != "barriers":
            return None
        coeffs = self._fallback_coeffs()
        if coeffs is None:
            return None
        feats = [1.0, 1.0 / design.lanes, 1.0 / design.partitions,
                 1.0 / (design.lanes * design.partitions)]
        return max(_dot(coeffs, feats), 0.0)

    # -- prediction ----------------------------------------------------------

    def predict(self, design, cfg=None):
        """Fast-evaluate one design point; ``None`` for uncovered classes."""
        cfg = cfg or SoCConfig()
        fit = self.classes.get(design_class(design))
        if fit is None:
            return None
        ticks = self.compute_ticks(design)
        if ticks is None:
            return None
        compute = max(int(round(ticks)), 1)
        phases, counts, activity = _design_inputs(self.workload, design, cfg)
        tf = _time_features(design, cfg, compute, phases, counts)
        total = max(int(round(_dot(fit.time_coeffs, tf))), 1)
        energy_pj = max(_dot(fit.energy_coeffs,
                             _energy_features(activity, total)), 0.0)
        return FastResult(
            self.workload, design, total,
            total // freq_mhz_to_period_ticks(cfg.accel_clock_mhz),
            _breakdown(phases, total, compute), None,
            stats={"fidelity": "fast"}, area=AreaModel(activity).area(),
            energy_pj=energy_pj)

    # -- persistence ---------------------------------------------------------

    @staticmethod
    def path_for(cache_dir, workload, cfg=None):
        return os.path.join(cache_dir, CALIBRATION_DIR,
                            f"{workload}-{config_hash(cfg)}.json")

    def to_json(self):
        return {
            "version": CALIBRATION_VERSION,
            "workload": self.workload,
            "config_hash": self.cfg_hash,
            "density": self.density,
            "compute_table": self.compute_table,
            "classes": {key: fit.as_dict()
                        for key, fit in self.classes.items()},
            "error_bound": self.error_bound,
            "guard_band": self.guard_band,
            "time_bound": self.time_bound,
            "power_bound": self.power_bound,
            "rejected": {key: fit.as_dict()
                         for key, fit in self.rejected.items()},
        }

    @classmethod
    def from_json(cls, doc):
        if doc.get("version") != CALIBRATION_VERSION:
            raise CalibrationError(
                f"calibration version {doc.get('version')!r} != "
                f"{CALIBRATION_VERSION}")
        return cls(doc["workload"], doc["config_hash"], doc.get("density"),
                   doc["compute_table"],
                   {key: ClassFit.from_dict(fit)
                    for key, fit in doc["classes"].items()},
                   doc["error_bound"], doc["guard_band"],
                   time_bound=doc.get("time_bound"),
                   power_bound=doc.get("power_bound"),
                   rejected={key: ClassFit.from_dict(fit)
                             for key, fit in doc.get("rejected",
                                                     {}).items()})

    def save(self, cache_dir):
        """Atomically persist next to the sweep result cache."""
        # path_for hashes a default config; self covers a specific one.
        path = os.path.join(cache_dir, CALIBRATION_DIR,
                            f"{self.workload}-{self.cfg_hash}.json")
        write_atomic(path, json.dumps(self.to_json(), indent=2,
                                      sort_keys=True) + "\n")
        return path

    @classmethod
    def load(cls, cache_dir, workload, cfg=None):
        """The persisted calibration for (workload, cfg), or ``None``."""
        path = cls.path_for(cache_dir, workload, cfg)
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, ValueError):
            return None
        try:
            cal = cls.from_json(doc)
        except (CalibrationError, KeyError, TypeError):
            return None
        if cal.workload != workload or cal.cfg_hash != config_hash(cfg):
            return None
        return cal


# -- calibration --------------------------------------------------------------

def _mid(values):
    return values[len(values) // 2]


def _sample_designs(class_key, designs):
    """A small corner-plus-midpoint sample of one class's grid."""
    if class_key.startswith("dma"):
        lanes = sorted({d.lanes for d in designs})
        parts = sorted({d.partitions for d in designs})
        # Corners, centre, and the mid-edges: the DMA/compute overlap
        # regime flips in the middle of the lane range (compute-bound at
        # few lanes, transfer-bound at many), so corner-only sampling
        # underestimates the error right where the crossover sits.
        wanted = {(lanes[0], parts[0]), (lanes[0], parts[-1]),
                  (lanes[-1], parts[0]), (lanes[-1], parts[-1]),
                  (_mid(lanes), _mid(parts)),
                  (_mid(lanes), parts[0]), (_mid(lanes), parts[-1]),
                  (lanes[0], _mid(parts)), (lanes[-1], _mid(parts))}
        picks = []
        for pair in sorted(wanted):
            match = next((d for d in designs
                          if (d.lanes, d.partitions) == pair), None)
            if match is not None:
                picks.append(match)
    else:
        lanes = sorted({d.lanes for d in designs})
        sizes = sorted({d.cache_size_kb for d in designs})
        ports = sorted({d.cache_ports for d in designs})
        assoc = sorted({d.cache_assoc for d in designs})
        lines = sorted({d.cache_line for d in designs})
        wanted = {(l, s, p, assoc[0], ln)
                  for l in (lanes[0], lanes[-1])
                  for s in (sizes[0], sizes[-1])
                  for p in (ports[0], ports[-1])
                  for ln in (lines[0], lines[-1])}
        wanted.add((_mid(lanes), _mid(sizes), _mid(ports), assoc[-1],
                    _mid(lines)))
        # Port contention is worst at mid lane counts (enough parallelism
        # to saturate a port, not enough to be corner-sampled): cover both
        # port extremes there so the fit and the bound see that regime.
        wanted.add((_mid(lanes), sizes[0], ports[0], assoc[0], lines[-1]))
        wanted.add((_mid(lanes), sizes[0], ports[-1], assoc[0], lines[-1]))
        picks = []
        for combo in sorted(wanted):
            match = next((d for d in designs
                          if (d.lanes, d.cache_size_kb, d.cache_ports,
                              d.cache_assoc, d.cache_line) == combo), None)
            if match is not None:
                picks.append(match)
    seen, out = set(), []
    for d in picks:
        if d.key() not in seen:
            seen.add(d.key())
            out.append(d)
    return out


def _fit_class(workload, samples, results, cfg, cal):
    """Least-squares-fit one class's correction coefficients + errors."""
    feats_t, y_t, activities = [], [], []
    for design, result in zip(samples, results):
        compute = max(int(round(cal.compute_ticks(design))), 1)
        phases, counts, activity = _design_inputs(workload, design, cfg)
        feats_t.append(_time_features(design, cfg, compute, phases, counts))
        activities.append(activity)
        y_t.append(float(result.total_ticks))
    time_coeffs = _rel_lstsq(feats_t, y_t, free=(0,))
    t_preds = [max(int(round(_dot(time_coeffs, f))), 1) for f in feats_t]
    feats_e = [_energy_features(activity, t_pred)
               for activity, t_pred in zip(activities, t_preds)]
    energy_coeffs = _rel_lstsq(feats_e, [float(r.energy_pj)
                                         for r in results], free=(0,))
    time_err = 0.0
    power_err = 0.0
    from repro.units import power_mw as _power_mw
    for t_pred, f_e, result in zip(t_preds, feats_e, results):
        e_pred = max(_dot(energy_coeffs, f_e), 0.0)
        time_err = max(time_err,
                       relative_error(t_pred, result.total_ticks))
        power_err = max(power_err,
                        relative_error(_power_mw(e_pred, t_pred),
                                       result.power_mw))
    return ClassFit(time_coeffs, energy_coeffs, time_err, power_err,
                    len(samples))


def calibrate_workload(workload, cfg=None, density="standard",
                       designs=None, cache_dir=None, progress=None,
                       save=True, **sweep):
    """Calibrate the fast model for one workload against exact simulation.

    Samples a handful of exact runs per design class (corners, centre and
    mid-edges of the grid), tabulates the isolated compute schedule over
    every (lanes, partitions, spad_ports) combination the grid sweeps,
    fits per-class correction coefficients, and derives the per-axis
    error bounds from the worst in-sample error times a safety margin.
    A class whose in-sample error exceeds :data:`MAX_FIT_ERROR` is
    rejected rather than trusted — its designs fall back to exact
    simulation — and does not inflate the surviving classes' bounds.

    ``designs`` names the grid to calibrate against — pass the exact
    design list a later fast/auto sweep will evaluate so every design
    class it touches gets a fit.  The default is the Figure-8 space at
    ``density``: all four DMA transfer-optimisation classes (pipelined x
    triggered, the paper's Section IV knobs) plus the cache space.

    The exact samples run through :func:`repro.core.sweep.run_sweep`, so
    with a ``cache_dir`` they land in the regular sweep result cache —
    a subsequent ``auto`` sweep confirms those points for free.  Returns
    the :class:`Calibration` (persisted under ``cache_dir`` when ``save``).
    ``progress`` reports the compute tabulation, then each class's sample
    sweep; other keywords go to ``run_sweep``.
    """
    from repro.core.sweep import cache_design_space, dma_design_space
    from repro.core.sweep import run_sweep
    cfg = cfg or SoCConfig()
    if designs is None:
        designs = [d
                   for pipelined in (False, True)
                   for triggered in (False, True)
                   for d in dma_design_space(density, pipelined=pipelined,
                                             triggered=triggered)]
        designs += cache_design_space(density)
    class_grids = {}
    for design in designs:
        class_grids.setdefault(design_class(design), []).append(design)
    combos = {(d.lanes, d.partitions, d.spad_ports,
               d.pipelining, str(d.ii))
              for designs in class_grids.values() for d in designs}
    table = tabulate_compute(workload, combos, progress=progress)
    cal = Calibration(workload, config_hash(cfg), density, table, {},
                      MIN_ERROR_BOUND, MIN_ERROR_BOUND)
    classes = {}
    rejected = {}
    for class_key in sorted(class_grids):
        samples = _sample_designs(class_key, class_grids[class_key])
        results = run_sweep(workload, samples, cfg, cache_dir=cache_dir,
                            progress=progress, **sweep)
        fit = _fit_class(workload, samples, results, cfg, cal)
        if max(fit.time_error_max, fit.power_error_max) > MAX_FIT_ERROR:
            rejected[class_key] = fit
        else:
            classes[class_key] = fit

    def _bound(worst):
        return min(max(worst * SAFETY_FACTOR, MIN_ERROR_BOUND),
                   MAX_ERROR_BOUND)

    if classes:
        time_bound = _bound(max(f.time_error_max for f in classes.values()))
        power_bound = _bound(max(f.power_error_max
                                 for f in classes.values()))
    else:  # nothing fitted: the fast tier is vacuous, bounds maximal
        time_bound = power_bound = MAX_ERROR_BOUND
    cal.classes = classes
    cal.rejected = rejected
    cal.error_bound = max(time_bound, power_bound)
    cal.guard_band = cal.error_bound
    cal.time_bound = time_bound
    cal.power_bound = power_bound
    if save and cache_dir:
        cal.save(cache_dir)
    return cal


# -- triage -------------------------------------------------------------------

def predicted_frontier(fast_results, candidates):
    """Candidate indices on the Pareto frontier of the *predictions*.

    Indices whose entry is ``None`` (uncalibrated or rejected class) are
    always included — they can only be resolved exactly.
    """
    batch = [i for i in candidates if fast_results[i] is None]
    pts = sorted((fast_results[i].total_ticks, fast_results[i].power_mw, i)
                 for i in candidates if fast_results[i] is not None)
    best_y = float("inf")
    for _x, y, i in pts:
        if y < best_y:
            best_y = y
            batch.append(i)
    return sorted(batch)


def prune_dominated(fast_results, candidates, exact_points, guard_band):
    """Candidates whose *optimistic* prediction survives exact dominance.

    With relative error at most ``b`` on an axis, the true value of a
    prediction ``p`` is at least ``p / (1 + b)``.  A candidate is pruned
    only when some exactly-measured point beats that optimistic bound on
    both axes — which proves the candidate is truly dominated and
    therefore off the true Pareto frontier (and, since dominance implies
    strictly better EDP, not the EDP optimum either).  ``guard_band`` is
    either one scalar or a ``(time_band, power_band)`` pair — per-axis
    bands prune strictly more when one axis predicts tighter than the
    other.  ``None`` entries are never pruned.
    """
    try:
        band_t, band_p = guard_band
    except TypeError:
        band_t = band_p = guard_band
    shrink_x = 1.0 / (1.0 + float(band_t))
    shrink_y = 1.0 / (1.0 + float(band_p))
    survivors = []
    for i in candidates:
        r = fast_results[i]
        if r is None:
            survivors.append(i)
            continue
        opt_x = r.total_ticks * shrink_x
        opt_y = r.power_mw * shrink_y
        if not any(x < opt_x and y < opt_y for x, y in exact_points):
            survivors.append(i)
    return survivors


def run_sweep_tiered(workload, designs, cfg=None, fidelity="auto",
                     calibration=None, guard_band=None, progress=None,
                     metrics=None, **pool):
    """Evaluate a design space with the calibrated fast tier.

    ``fidelity="fast"`` predicts every point analytically (no simulation).
    ``"auto"`` runs confirm-and-prune rounds: each round evaluates the
    predicted Pareto frontier of the remaining candidates exactly, then
    prunes every candidate whose optimistic prediction (``pred / (1 +
    guard_band)``) is dominated by a confirmed exact point.  Exact
    results replace the fast predictions for confirmed points, so the
    returned list mixes fidelities but keeps input order.  Measured
    fast-vs-exact errors and pruned/confirmed counts land in ``metrics``.
    Other keywords go to :func:`repro.core.sweeppool.run_sweep_pool`
    (``jobs`` spelling) for the confirm rounds; a persisted calibration
    is looked up under its ``cache_dir``.

    ``guard_band`` is the assumed maximum relative error of the fast
    model — a scalar or a ``(time_band, power_band)`` pair (default: the
    calibration's validated per-axis ``(time_bound, power_bound)``); as
    long as it really bounds the error, the exact-confirmed frontier and
    EDP optimum are identical to a full exact sweep's.
    """
    from repro.core.sweeppool import SweepMetrics, run_sweep_pool
    cfg = cfg or SoCConfig()
    if fidelity not in ("fast", "auto"):
        raise ValueError(f'fidelity must be "fast" or "auto" here, '
                         f'got {fidelity!r}')
    if calibration is None and pool.get("cache_dir"):
        calibration = Calibration.load(pool["cache_dir"], workload, cfg)
    if calibration is None:
        raise CalibrationError(
            f"no calibration for {workload!r} (fidelity={fidelity!r}); "
            f"run `repro calibrate {workload}` or pass calibration=")
    if calibration.workload != workload:
        raise CalibrationError(
            f"calibration is for {calibration.workload!r}, not {workload!r}")
    if calibration.cfg_hash != config_hash(cfg):
        raise CalibrationError(
            "calibration was fitted against a different SoCConfig; "
            "re-run `repro calibrate` for this platform")
    metrics = metrics if metrics is not None else SweepMetrics()
    if guard_band is None:
        band = (calibration.time_bound, calibration.power_bound)
    else:
        band = guard_band
    start = time.perf_counter()
    fast = [calibration.predict(d, cfg) for d in designs]
    metrics.fast_points += len(fast)

    if fidelity == "fast":
        missing = sorted({design_class(d)
                          for d, r in zip(designs, fast) if r is None})
        if missing:
            bad = [k for k in missing if k in calibration.rejected]
            detail = (f" (fit rejected at calibration: {bad})"
                      if bad else "")
            raise CalibrationError(
                f"calibration for {workload!r} does not cover design "
                f"class(es) {missing}{detail}; re-calibrate or use "
                f"fidelity='auto'/'exact'")
        metrics.points += len(designs)
        metrics.wall_seconds += time.perf_counter() - start
        if progress is not None:
            progress(len(designs), len(designs))
        return fast

    metrics.wall_seconds += time.perf_counter() - start
    results = list(fast)
    remaining = list(range(len(designs)))
    exact_points = []
    confirmed = 0
    while remaining:
        batch = predicted_frontier(fast, remaining)
        exact = run_sweep_pool(workload, [designs[i] for i in batch], cfg,
                               metrics=metrics, **pool)
        start = time.perf_counter()
        for i, result in zip(batch, exact):
            results[i] = result
            confirmed += 1
            if not getattr(result, "is_failure", False):
                exact_points.append((result.total_ticks, result.power_mw))
                if fast[i] is not None:
                    metrics.fast_time_errors.append(relative_error(
                        fast[i].total_ticks, result.total_ticks))
                    metrics.fast_power_errors.append(relative_error(
                        fast[i].power_mw, result.power_mw))
        in_batch = set(batch)
        remaining = prune_dominated(
            fast, [i for i in remaining if i not in in_batch],
            exact_points, band)
        metrics.wall_seconds += time.perf_counter() - start
        if progress is not None:
            progress(len(designs) - len(remaining), len(designs))
    pruned = len(designs) - confirmed
    metrics.points += pruned
    metrics.pruned += pruned
    metrics.confirmed += confirmed
    return results
