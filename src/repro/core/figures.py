"""One entry point per table/figure of the paper's evaluation.

Each ``figN`` function regenerates the data behind the corresponding figure
and returns it as plain structures; the benchmark harness prints them via
:mod:`repro.core.reporting`.  Expensive sweeps are memoized per process so
Figures 9 and 10 share Figure 8's work.

Figure index (see DESIGN.md section 3):
  fig1   stencil3d isolated-vs-co-designed design spaces
  fig2a  md-knn baseline-DMA timeline breakdown
  fig2b  flush/DMA/compute breakdown across MachSuite, 16 lanes
  fig4   validation: analytic model vs detailed simulation
  fig6a  cumulative DMA optimizations at 4 lanes
  fig6b  parallelism sweep with all DMA optimizations
  fig7   cache designs: processing/latency/bandwidth decomposition
  fig8   power-performance Pareto curves, DMA vs cache
  fig9   Kiviat resource comparison across the four scenarios
  fig10  EDP improvement of co-design over isolated design
  fig11  initiation-interval (modulo pipelining) EDP study
"""

from repro.core.config import DesignPoint, SoCConfig
from repro.core.pareto import edp_optimal, pareto_frontier, reducible
from repro.core.scenarios import (
    SCENARIOS,
    edp_improvement,
    isolated_sweep,
    run_isolated,
)
from repro.core.soc import run_design
from repro.core.sweep import (
    check_sweep_options,
    dma_design_space,
    ii_design_space,
    run_sweep,
)
from repro.core.kiviat import kiviat_normalized, overprovision_summary
from repro.core.validation import validate_suite
from repro.workloads import ALL_WORKLOADS, CORE_EIGHT

# Subset used in Figure 6 (spans the DMA-time range of Figure 2b).
FIG6_WORKLOADS = ["aes-aes", "nw-nw", "md-knn", "stencil-stencil2d",
                  "fft-transpose"]
FIG7_WORKLOADS = ["gemm-ncubed", "stencil-stencil3d", "md-knn", "spmv-crs",
                  "fft-transpose"]

_memo = {}

# Process-wide ``run_sweep`` keywords (worker pool, on-disk memo cache,
# robustness, fidelity) for every figure that runs a design-space sweep.
# Configured by the CLI's --jobs/--no-cache/--on-error flags and the
# benchmark harness.
_sweep_options = {}


def set_sweep_options(**sweep):
    """Configure how figure sweeps execute: keywords as for ``run_sweep``.

    Replaces the previous options; no arguments restores the defaults.
    An unknown keyword raises TypeError here.  With
    ``on_error="collect"`` the figures drop failed points and compute
    over the survivors (every figure reduces sweeps with Pareto/EDP
    optima, so a missing point degrades the figure rather than aborting
    it); ``fidelity="auto"`` needs per-workload calibrations persisted
    under ``cache_dir`` (``repro calibrate``).  Memoized sweeps ran
    under the old options, so they are dropped.
    """
    check_sweep_options(sweep)
    _sweep_options.clear()
    _sweep_options.update(sweep)
    clear_memo()


def _sweep(workload, designs, cfg=None):
    """One design-space sweep under the configured options, reduced to
    the :func:`~repro.core.pareto.reducible` results the figures use."""
    results = run_sweep(workload, designs, cfg, **_sweep_options)
    return reducible(results, _sweep_options.get("fidelity", "exact"))


def _memoized(key, fn):
    if key not in _memo:
        _memo[key] = fn()
    return _memo[key]


def clear_memo():
    """Drop all memoized sweep results (used between tests)."""
    _memo.clear()


# -- Figure 1 -----------------------------------------------------------------

def fig1(workload="stencil-stencil3d", density="standard"):
    """Isolated vs co-designed DMA design spaces for stencil3d."""
    designs = dma_design_space(density)
    isolated = [run_isolated(workload, d) for d in designs]
    codesigned = _sweep(workload, designs)
    iso_opt = edp_optimal(isolated)
    co_opt = edp_optimal(codesigned)
    # The isolated optimum re-evaluated with system effects applied.
    iso_opt_in_system = run_design(workload, iso_opt.design)
    return {
        "workload": workload,
        "isolated": isolated,
        "codesigned": codesigned,
        "isolated_optimum": iso_opt,
        "codesigned_optimum": co_opt,
        "isolated_optimum_in_system": iso_opt_in_system,
        "edp_gap": iso_opt_in_system.edp / co_opt.edp,
    }


# -- Figure 2 -----------------------------------------------------------------

def _baseline16(workload):
    design = DesignPoint(lanes=16, partitions=16, mem_interface="dma",
                        pipelined_dma=False, dma_triggered_compute=False)
    return run_design(workload, design)


def fig2a(workload="md-knn"):
    """Execution-time breakdown of a 16-lane baseline-DMA md-knn."""
    return _memoized(("fig2a", workload), lambda: _baseline16(workload))


def fig2b(workloads=None):
    """flush/DMA/compute breakdown for 16-way designs across MachSuite."""
    workloads = workloads or ALL_WORKLOADS
    return [_memoized(("fig2a", w), lambda w=w: _baseline16(w))
            for w in workloads]


# -- Figure 4 -----------------------------------------------------------------

def fig4(workloads=None):
    """Validation of the analytic model against detailed simulation."""
    return validate_suite(workloads or CORE_EIGHT)


# -- Figure 6 -----------------------------------------------------------------

DMA_OPT_STEPS = (
    ("baseline", dict(pipelined_dma=False, dma_triggered_compute=False)),
    ("+pipelined", dict(pipelined_dma=True, dma_triggered_compute=False)),
    ("+triggered", dict(pipelined_dma=True, dma_triggered_compute=True)),
)


def fig6a(workloads=None, lanes=4):
    """Cumulatively apply pipelined DMA and DMA-triggered compute."""
    workloads = workloads or FIG6_WORKLOADS
    out = {}
    for w in workloads:
        rows = []
        for label, opts in DMA_OPT_STEPS:
            design = DesignPoint(lanes=lanes, partitions=lanes,
                                 mem_interface="dma", **opts)
            rows.append((label, run_design(w, design)))
        out[w] = rows
    return out


def fig6b(workloads=None, lanes_list=(1, 2, 4, 8, 16)):
    """Parallelism sweep with all DMA optimizations applied."""
    workloads = workloads or FIG6_WORKLOADS
    out = {}
    for w in workloads:
        rows = []
        for lanes in lanes_list:
            design = DesignPoint(lanes=lanes, partitions=lanes,
                                 mem_interface="dma", pipelined_dma=True,
                                 dma_triggered_compute=True)
            rows.append((lanes, run_design(w, design)))
        out[w] = rows
    return out


# -- Figure 7 -----------------------------------------------------------------

def saturating_cache_size(workload, lanes=4,
                          sizes=(2, 4, 8, 16, 32, 64), tolerance=0.05):
    """The smallest cache whose runtime is within ``tolerance`` of the best
    across the size sweep (the per-benchmark label atop Figure 7)."""
    results = []
    for size in sizes:
        design = DesignPoint(lanes=lanes, mem_interface="cache",
                             cache_size_kb=size, cache_ports=4)
        results.append((size, run_design(workload, design).total_ticks))
    best = min(t for _s, t in results)
    for size, ticks in results:
        if ticks <= best * (1.0 + tolerance):
            return size
    return results[-1][0]


def fig7(workloads=None, lanes_list=(1, 2, 4, 8, 16)):
    """Burger-style processing/latency/bandwidth decomposition.

    processing = runtime with single-cycle always-hit memory;
    latency    = extra runtime from real caches with an unconstrained bus;
    bandwidth  = extra runtime from constraining the bus to 32 bits.
    """
    workloads = workloads or FIG7_WORKLOADS
    wide_cfg = SoCConfig(bus_width_bits=4096)
    narrow_cfg = SoCConfig(bus_width_bits=32)
    out = {}
    for w in workloads:
        size = _memoized(("satsize", w), lambda w=w: saturating_cache_size(w))
        rows = []
        for lanes in lanes_list:
            base = DesignPoint(lanes=lanes, mem_interface="cache",
                               cache_size_kb=size, cache_ports=4)
            t_perfect = run_design(
                w, base.replace(perfect_memory=True), wide_cfg).total_ticks
            t_wide = run_design(w, base, wide_cfg).total_ticks
            t_narrow = run_design(w, base, narrow_cfg).total_ticks
            rows.append({
                "lanes": lanes,
                "processing": t_perfect,
                "latency": max(t_wide - t_perfect, 0),
                "bandwidth": max(t_narrow - t_wide, 0),
                "total": t_narrow,
            })
        out[w] = {"cache_size_kb": size, "rows": rows}
    return out


# -- Figure 8 -----------------------------------------------------------------

def fig8(workloads=None, density="standard"):
    """Power-performance Pareto curves for DMA vs cache designs."""
    workloads = workloads or CORE_EIGHT
    out = {}
    for w in workloads:
        dma = _scenario_sweep(w, "dma32", density)
        cache = _scenario_sweep(w, "cache32", density)
        out[w] = {
            "dma": dma,
            "cache": cache,
            "dma_pareto": pareto_frontier(dma),
            "cache_pareto": pareto_frontier(cache),
            "dma_optimum": edp_optimal(dma),
            "cache_optimum": edp_optimal(cache),
        }
    return out


def _scenario_sweep(workload, key, density):
    """``SCENARIOS[key]``'s sweep, memoized per process.

    fig8 and :func:`scenario_optima` share these results, so running
    fig8 -> fig9 -> fig10 in one process sweeps each design space once.
    """
    scenario = SCENARIOS[key]
    return _memoized(("sweep", workload, key, density), lambda: _sweep(
        workload, scenario.design_space(density), scenario.soc_config()))


# -- Figures 9 and 10 ---------------------------------------------------------

def scenario_optima(workload, density="standard"):
    """EDP optima of all four scenarios for one workload."""
    def compute():
        optima = {"isolated": edp_optimal(isolated_sweep(workload,
                                                         density))}
        for key in ("dma32", "cache32", "cache64"):
            optima[key] = edp_optimal(_scenario_sweep(workload, key,
                                                      density))
        return optima
    return _memoized(("optima", workload, density), compute)


def fig9(workloads=None, density="standard"):
    """Kiviat comparison of lanes / SRAM / bandwidth across scenarios."""
    workloads = workloads or CORE_EIGHT
    out = {}
    for w in workloads:
        optima = scenario_optima(w, density)
        normalized = kiviat_normalized(w, optima)
        out[w] = {
            "optima": optima,
            "normalized": normalized,
            "leaner_fraction": overprovision_summary(normalized),
        }
    return out


def fig10(workloads=None, density="standard"):
    """EDP improvement of co-designed over isolated-then-deployed designs."""
    workloads = workloads or CORE_EIGHT
    rows = {}
    for w in workloads:
        optima = scenario_optima(w, density)
        per_scenario = {}
        for key in ("dma32", "cache32", "cache64"):
            imp = edp_improvement(
                w, SCENARIOS[key], density,
                isolated_optimum=optima["isolated"],
                codesigned_optimum=optima[key])
            per_scenario[key] = imp
        rows[w] = per_scenario
    averages = {}
    maxima = {}
    for key in ("dma32", "cache32", "cache64"):
        values = [rows[w][key]["improvement"] for w in rows]
        averages[key] = _geomean(values)
        maxima[key] = max(values)
    return {"rows": rows, "averages": averages, "maxima": maxima,
            "paper_averages": {"dma32": 1.2, "cache32": 2.2, "cache64": 2.0},
            "paper_max": 7.4}


def fig11(workload="md-knn", iis=("auto", 1, 2, 4, 8, 16),
          base_design=None):
    """Initiation-interval study: EDP along the modulo-pipelining axis.

    Sweeps one design across pipelining modes (barriers, free overlap,
    and modulo at each II — see
    :func:`repro.core.sweep.ii_design_space`), full co-simulation per
    point.  Returns the per-point results plus the EDP-vs-time Pareto
    frontier over the axis; ``rec_mii``/``res_mii``/``ii`` come from the
    modulo planner's stats.
    """
    designs = ii_design_space(base_design, iis=iis)
    results = _sweep(workload, designs)
    rows = []
    for design, result in zip(designs, results):
        rows.append({
            "pipelining": design.pipelining,
            "ii_requested": design.ii,
            "ii": result.stats.get("ii"),
            "rec_mii": result.stats.get("rec_mii"),
            "res_mii": result.stats.get("res_mii"),
            "time_us": result.time_us,
            "energy_pj": result.energy_pj,
            "edp_js": result.edp,
            "result": result,
        })
    frontier = pareto_frontier(results)
    return {
        "workload": workload,
        "rows": rows,
        "pareto": frontier,
        "edp_optimum": edp_optimal(results),
    }


def _geomean(values):
    prod = 1.0
    for v in values:
        prod *= v
    return prod ** (1.0 / len(values)) if values else float("nan")
