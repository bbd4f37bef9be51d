"""Result export: JSON and CSV serialization of run results and sweeps.

Design-space studies end in plots; this module flattens
:class:`~repro.core.metrics.RunResult` objects into plain records that any
plotting stack can consume, and writes JSON/CSV files for the figure data
the benchmark harness regenerates.
"""

import csv
import json

CSV_FIELDS = [
    "workload", "mem_interface", "lanes", "partitions", "cache_size_kb",
    "cache_line", "cache_ports", "cache_assoc", "pipelined_dma",
    "dma_triggered_compute", "pipelining", "ii",
    "time_us", "accel_cycles",
    "power_mw", "energy_pj", "edp_js", "area_mm2", "flush_only_frac",
    "dma_flush_frac", "compute_dma_frac", "compute_only_frac", "other_frac",
]


def design_record(design):
    """Flatten a DesignPoint into plain JSON-able fields."""
    return {
        "mem_interface": design.mem_interface,
        "lanes": design.lanes,
        "partitions": design.partitions,
        "pipelined_dma": design.pipelined_dma,
        "dma_triggered_compute": design.dma_triggered_compute,
        "double_buffer": design.double_buffer,
        "pipelining": design.pipelining,
        "ii": design.ii,
        "cache_size_kb": design.cache_size_kb,
        "cache_line": design.cache_line,
        "cache_ports": design.cache_ports,
        "cache_assoc": design.cache_assoc,
        "prefetcher": design.prefetcher,
        "spad_ports": design.spad_ports,
    }


def result_record(result):
    """Flatten a RunResult into plain JSON-able fields."""
    frac = result.breakdown_fractions()
    record = {
        "workload": result.workload,
        "time_us": result.time_us,
        "accel_cycles": result.accel_cycles,
        "power_mw": result.power_mw,
        "energy_pj": result.energy_pj,
        "edp_js": result.edp,
        "area_mm2": result.area_mm2,
        "flush_only_frac": frac["flush_only"],
        "dma_flush_frac": frac["dma_flush"],
        "compute_dma_frac": frac["compute_dma"],
        "compute_only_frac": frac["compute_only"],
        "other_frac": frac["other"],
        "energy_breakdown_pj": (None if result.energy is None
                                else result.energy.as_dict()),
        "stats": {k: v for k, v in result.stats.items() if v is not None},
    }
    record.update(design_record(result.design))
    return record


def results_to_json(results, path=None, indent=2):
    """Serialize results to a JSON string (and optionally a file)."""
    records = [result_record(r) for r in results]
    text = json.dumps(records, indent=indent, sort_keys=True)
    if path is not None:
        with open(path, "w") as f:
            f.write(text)
    return text


def results_to_csv(results, path):
    """Write one flat CSV row per result (plot-ready)."""
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=CSV_FIELDS,
                                extrasaction="ignore")
        writer.writeheader()
        for result in results:
            writer.writerow(result_record(result))


def load_json(path):
    """Round-trip helper: read records back as plain dicts."""
    with open(path) as f:
        return json.load(f)
