"""Result export: JSON and CSV serialization of run results and sweeps.

Design-space studies end in plots; this module extends each
:class:`~repro.core.metrics.RunResult`'s lossless record with the derived
read-outs any plotting stack wants, and writes JSON/CSV files for the
figure data the benchmark harness regenerates.
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


def result_record(result):
    """``result.to_record()`` plus the derived read-outs plots want:
    time, power, EDP, area and each cycle class's fraction of runtime."""
    record = result.to_record()
    record.update(time_us=result.time_us, power_mw=result.power_mw,
                  edp_js=result.edp, area_mm2=result.area_mm2)
    for name, frac in result.breakdown_fractions().items():
        record[name + "_frac"] = frac
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
