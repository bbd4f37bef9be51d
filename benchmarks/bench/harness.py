"""The orchestrator: one fresh interpreter per workload, set-up timed
from outside, every metric printed by name with its unit.

For an untraced run it spawns ``SETUP_SAMPLES`` children; all but the
last only set up and exit, the last also measures.  ``setup_s`` is the
median of their set-up times, each from spawning the interpreter to the
child's ``ready`` line, less the child's own probes, and host-normalized
by those probes (taken in the child on either side of its set-up).
``peak_rss_mb`` is the largest resident set any of those children
reports for itself and its own children (the sweep pool's workers), so
each run's value covers that run's processes only.
"""

import json
import os
import statistics
import subprocess
import sys
import time

from . import layers, measure

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_SAMPLES = 3
#: Every child of one run must finish within this many seconds in all.
RUN_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """A run that could not produce a result."""


def use_src():
    """Make the program under test importable here and in children."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
             if p]
    if SRC not in paths:
        os.environ["PYTHONPATH"] = os.pathsep.join([SRC] + paths)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def ref_probe():
    with open(REFERENCE) as fh:
        return json.load(fh)["ref_probe_s"]


def _run_child(workload, seed, seconds, trace, trace_dir, mode, deadline):
    cmd = [sys.executable, "-m", "benchmarks.bench", "child",
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(int(trace)),
           "--trace-dir", trace_dir, "--mode", mode]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=max(deadline - spawned, 1))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: run exceeded {RUN_TIMEOUT_S} s") \
            from None
    events = {}
    for line in proc.stdout.splitlines():
        if line.startswith("{"):
            event = json.loads(line)
            events[event.pop("event")] = event
    if proc.returncode != 0 or "ready" not in events or \
            (mode == "measure" and "result" not in events):
        raise BenchError(f"{workload}: {mode} child exited with code "
                         f"{proc.returncode} without a result")
    return spawned, events["ready"], events.get("result")


def run_workload(workload, seed, seconds, trace, trace_dir):
    """Run one workload; returns the result record (metrics by name)."""
    ref = ref_probe()
    setups, peaks = [], []
    samples = 1 if trace else SETUP_SAMPLES
    deadline = time.monotonic() + RUN_TIMEOUT_S
    result = None
    for k in range(samples):
        mode = "measure" if k == samples - 1 else "setup"
        spawned, ready, result = _run_child(workload, seed, seconds, trace,
                                            trace_dir, mode, deadline)
        probes = ready["probes"]
        setup_s = ready["stamp"] - spawned - sum(probes)
        setups.append(setup_s * ref / statistics.median(probes))
        peaks.append(ready["peak_rss_mb"])
    peaks.append(result["peak_rss_mb"])
    if trace:
        metrics = result["layers"]
    else:
        metrics = dict(result["metrics"])
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = max(peaks)
    return {"workload": workload, "seed": seed, "trace": bool(trace),
            "metrics": metrics, "setup_samples_s": setups,
            "samples": result["samples"], "ops": result["ops"],
            "attempted": result["attempted"], "failed": result["failed"],
            "mismatches": result["mismatches"],
            "op_walls": result["op_walls"],
            "op_samples": result["op_samples"], "probes": result["probes"],
            "trace_files": result.get("trace_files", [])}


def contract_line(record, bench):
    """The last stdout line: the metrics BENCHMARK.json names, only."""
    names = bench["per_layer"] if record["trace"] else bench["end_to_end"]
    metrics = {}
    for entry in names:
        value = record["metrics"].get(entry["name"])
        if value is None:
            raise BenchError(f"metric {entry['name']} was not measured")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return {"correct": record["failed"] == 0,
            "attempted": record["attempted"], "failed": record["failed"],
            "metrics": metrics}


def report(record, bench, out=sys.stdout):
    """Human-readable table: every metric by name, with its unit."""
    named = {e["name"]: e["unit"] for e in bench["end_to_end"]}
    named.update({e["name"]: e["unit"] for e in bench["per_layer"]})
    contract = {e["name"] for e in (bench["per_layer"] if record["trace"]
                                    else bench["end_to_end"])}
    kind = "traced (per layer)" if record["trace"] else "end to end"
    out.write(f"== {record['workload']} seed={record['seed']} {kind}: "
              f"{record['ops']} ops, {record['samples']} latency samples, "
              f"{record['attempted']} attempted, {record['failed']} "
              f"failed (error_rate "
              f"{record['failed'] / record['attempted']:.4f})\n")
    for name in sorted(record["metrics"]):
        unit = named.get(name) or layers.unit(name)
        mark = "" if name in contract else "  (not in BENCHMARK.json)"
        out.write(f"  {name:40s} {record['metrics'][name]:14.6g} "
                  f"{unit}{mark}\n")
    if not record["trace"]:
        setups = ", ".join(f"{s:.3f}" for s in record["setup_samples_s"])
        out.write(f"  setup samples (s): {setups}\n")
    for mismatch in record["mismatches"]:
        out.write(f"  MISMATCH {mismatch}\n")
    for path in record["trace_files"]:
        out.write(f"  wrote {path}\n")


def save(record, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    name = (f"{record['workload']}-seed{record['seed']}-"
            f"{'trace' if record['trace'] else 'e2e'}-{time.time_ns()}.json")
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def history(workloads, seed, runs, seconds, trace_dir, bench, path):
    """Append one trajectory line per workload: the median and IQR of
    ``runs`` runs for every end-to-end metric."""
    commit = git_commit()
    lines = []
    for workload in workloads:
        records = [run_workload(workload, seed, seconds, False, trace_dir)
                   for _ in range(runs)]
        metrics = {}
        for entry in bench["end_to_end"]:
            values = [r["metrics"][entry["name"]] for r in records]
            q1, median, q3 = measure.quartiles(values)
            metrics[entry["name"]] = {"median": median, "iqr": q3 - q1,
                                      "unit": entry["unit"]}
        error_rate = max(r["failed"] / r["attempted"] for r in records)
        lines.append({"commit": commit, "workload": workload, "seed": seed,
                      "runs": runs, "ref_probe_s": ref_probe(),
                      "error_rate": error_rate, "metrics": metrics})
    with open(path, "a") as fh:
        for line in lines:
            fh.write(json.dumps(line, sort_keys=True) + "\n")
    return lines
