"""Design-space sweeps (the engine behind Figures 1, 8, 9, 10).

Generators produce the DMA-side and cache-side design spaces of Figure 3;
:func:`run_sweep` evaluates each point end to end.  Traces are cached per
workload (see :mod:`repro.workloads.registry`), so a sweep pays the trace
capture once and the scheduling per point.

``density`` trades sweep resolution for runtime: ``"full"`` is the paper's
complete cross-product, ``"standard"`` a representative subset (default),
``"quick"`` a coarse grid for tests.

Sweeps can run in parallel and/or memoized on disk — pass ``parallel=`` /
``cache_dir=`` to :func:`run_sweep` (engine: :mod:`repro.core.sweeppool`).
"""

import inspect
import json
import os

from repro.core.config import DesignPoint, PARAMETER_TABLE

_LANES = PARAMETER_TABLE["datapath_lanes"]
_PARTS = PARAMETER_TABLE["scratchpad_partitions"]
_SIZES = PARAMETER_TABLE["cache_size_kb"]
_PORTS = PARAMETER_TABLE["cache_ports"]
_ASSOC = PARAMETER_TABLE["cache_assoc"]

#: The simulation tiers a sweep can run at (see :func:`run_sweep`).
FIDELITIES = ("exact", "fast", "auto")

_DENSITIES = {
    "quick": dict(lanes=(1, 4, 16), parts=(1, 4, 16), sizes=(4, 16),
                  ports=(1, 4), assoc=(4,)),
    "standard": dict(lanes=_LANES, parts=(1, 4, 16), sizes=(2, 8, 16, 32),
                     ports=(1, 4), assoc=(4,)),
    "full": dict(lanes=_LANES, parts=_PARTS, sizes=_SIZES, ports=_PORTS,
                 assoc=_ASSOC),
}


def _grid(density):
    try:
        return _DENSITIES[density]
    except KeyError:
        raise ValueError(
            f"density must be one of {sorted(_DENSITIES)}, got {density!r}")


def dma_design_space(density="standard", pipelined=True, triggered=True):
    """DMA/scratchpad design points: lanes x partitions."""
    g = _grid(density)
    return [
        DesignPoint(lanes=lanes, partitions=parts, mem_interface="dma",
                    pipelined_dma=pipelined, dma_triggered_compute=triggered)
        for lanes in g["lanes"]
        for parts in g["parts"]
    ]


def ii_design_space(base_design=None, iis=("auto", 1, 2, 4, 8, 16)):
    """Modulo-pipelining II axis around one base design.

    One barrier-mode anchor, one free-overlap ("off") anchor, then the
    base design under modulo scheduling at each requested initiation
    interval (``"auto"`` = the searched minimum).  This is the sweep
    behind the II-vs-EDP Pareto study: the anchors bound the axis (ii ->
    round length degenerates to barriers; unconstrained overlap is the
    throughput ceiling) and the forced IIs trace the trade-off between
    them.
    """
    base = base_design or DesignPoint()
    points = [base.replace(pipelining="barriers"),
              base.replace(pipelining="off")]
    seen = {p.key() for p in points}
    for ii in iis:
        d = base.replace(pipelining="modulo", ii=ii)
        if d.key() not in seen:
            seen.add(d.key())
            points.append(d)
    return points


def cache_design_space(density="standard"):
    """Cache design points: lanes x size x ports x assoc."""
    g = _grid(density)
    return [
        DesignPoint(lanes=lanes, partitions=min(lanes, 4),
                    mem_interface="cache", cache_size_kb=size,
                    cache_ports=ports, cache_assoc=assoc)
        for lanes in g["lanes"]
        for size in g["sizes"]
        for ports in g["ports"]
        for assoc in g["assoc"]
    ]


def run_sweep(workload, designs, cfg=None, *, parallel=None,
              fidelity="exact", calibration=None, guard_band=None,
              profiler=None, dump_stats=None, check=None, **engine):
    """Evaluate every design point; returns the list of RunResults.

    ``parallel`` fans the evaluations out over a worker pool (``N`` workers;
    ``0`` means one per CPU).  Every other engine keyword — ``cache_dir``,
    ``metrics``, ``progress``, ``on_error``, ``retries``, ``timeout``,
    ``fault``, ``evaluate``, ``write_manifest`` — goes unchanged to
    :func:`repro.core.sweeppool.run_sweep_pool`, which documents them; a
    name it does not take raises TypeError before any point runs.
    Results are always in the order of ``designs``, and the parallel/cached
    paths produce results identical to inline evaluation.

    ``profiler`` (an :class:`repro.sim.profiling.EventProfiler`) accumulates
    per-component event costs over every design point.  ``dump_stats``
    names a directory that receives one full stats-registry JSON per
    successfully evaluated design point (``<workload>-NNNN.json``; see
    :mod:`repro.obs.stats`); every attempt gets a fresh registry, and a
    point that fails every attempt writes no file.  Either option runs
    the sweep inline and uncached through an ``evaluate`` task runner of
    its own: worker processes could not report into the caller's
    profiler or registry, and cached points run no events at all.  Such
    a sweep still fills ``metrics`` and honours ``on_error``/``retries``,
    but ignores ``parallel`` and ``cache_dir``, warns that it cannot
    enforce a ``timeout``, and rejects an explicit ``evaluate``.

    ``check`` enables runtime correctness checking per point (see
    :mod:`repro.check`).  An explicit checker likewise runs on the
    in-process task runner — its accumulated counters live in this
    process.  ``None`` defers to ``$REPRO_CHECK``, which worker processes
    inherit, so the parallel engine still checks every point when the
    variable is set.

    ``fidelity`` selects the simulation tier (see
    :mod:`repro.core.calibrate`): ``"exact"`` (default) is the
    event-driven co-simulation for every point; ``"fast"`` predicts every
    point with the calibrated analytic model and runs no simulation;
    ``"auto"`` triages — fast predictions prune the space and only the
    candidate Pareto frontier is confirmed exactly.  The fast tiers need
    a :class:`~repro.core.calibrate.Calibration` — pass ``calibration=``
    or a ``cache_dir`` holding a persisted one (``repro calibrate``).
    ``guard_band`` overrides the calibration's validated error bound in
    ``auto`` pruning.
    """
    if fidelity not in FIDELITIES:
        raise ValueError(f'fidelity must be "exact", "fast" or "auto", '
                         f'got {fidelity!r}')
    pool = _pool_options(parallel, engine)
    diagnostic = profiler is not None or dump_stats is not None or check
    if diagnostic and pool.get("evaluate") is not None:
        raise ValueError(
            "profiler/dump_stats/check sweeps bind their accumulators "
            "through their own evaluate and cannot take another")
    if fidelity != "exact":
        if diagnostic:
            raise ValueError(
                "profiler/dump_stats/check require fidelity='exact': the "
                "fast tier runs no events to profile, dump or check")
        from repro.core.calibrate import run_sweep_tiered
        return run_sweep_tiered(workload, designs, cfg, fidelity=fidelity,
                                calibration=calibration,
                                guard_band=guard_band, **pool)
    from repro.core.sweeppool import run_sweep_pool
    if diagnostic:
        pool.update(evaluate=_diagnostic_evaluate(workload, profiler,
                                                  dump_stats, check),
                    cache_dir=None)
    return run_sweep_pool(workload, designs, cfg, **pool)


def _pool_options(parallel, engine):
    """``run_sweep``'s engine keywords in ``run_sweep_pool``'s spelling.

    Binding them against ``run_sweep_pool``'s signature makes an unknown
    name fail here — also on the fast tier, which never reaches the pool.
    """
    from repro.core.sweeppool import run_sweep_pool
    if "jobs" in engine:
        raise TypeError("run_sweep() takes the worker count as parallel=")
    pool = dict(engine, jobs=1 if parallel is None else parallel)
    inspect.signature(run_sweep_pool).bind(None, (), **pool)
    return pool


def check_sweep_options(options):
    """Raise TypeError unless every key of ``options`` is a run_sweep keyword.

    For layers that store sweep options for later sweeps
    (:func:`repro.core.figures.set_sweep_options`), so a misspelt name
    fails where it is set.
    """
    bound = inspect.signature(run_sweep).bind(None, (), **options)
    _pool_options(None, bound.arguments.get("engine", {}))


def _diagnostic_evaluate(workload, profiler, dump_stats, check):
    """The in-process ``evaluate`` task runner of a diagnostic sweep.

    Binds the caller's profiler and checker into every evaluation and,
    with ``dump_stats``, gives each attempt a fresh stats registry whose
    dump is written only once that attempt succeeds.
    """
    from repro.core import sweeppool
    from repro.obs.stats import StatRegistry
    if dump_stats is not None:
        os.makedirs(dump_stats, exist_ok=True)

    def evaluate(task):
        registry = StatRegistry() if dump_stats is not None else None
        index, result, elapsed = sweeppool._evaluate_task(
            task, profiler=profiler, registry=registry, check=check)
        if registry is not None:
            payload = registry.to_json()
            payload["design"] = task[2].to_record()
            path = os.path.join(dump_stats, f"{workload}-{index:04d}.json")
            with open(path, "w") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
        return index, result, elapsed

    return evaluate
