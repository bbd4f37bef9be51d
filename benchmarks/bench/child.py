"""The measuring process: set up one workload, run passes, report.

Started by the orchestrator as ``python -m benchmarks.bench child ...``
in a fresh interpreter.  It prints JSON lines on stdout: ``ready`` once
set-up is done (with a ``time.monotonic()`` stamp, so the orchestrator
can time set-up from the moment it spawned the process), then, in
measure mode, ``result``.
"""

import json
import os
import shutil
import statistics
import sys
import time

from . import layers, measure, spec

#: Untraced runs measure whole passes until both the time budget and
#: this many latency samples are reached (p90 needs 100).
MIN_SAMPLES = 100
#: Hard cap on measuring, so a run always ends well inside 180 s.
MAX_MEASURE_S = 110.0
BRACKET_PROBES = 3


def emit(event, **fields):
    sys.stdout.write(json.dumps({"event": event, **fields}) + "\n")
    sys.stdout.flush()


def run_phase(runner, passes, seconds, tracer, records, probes, min_samples,
              deadline):
    """Run whole passes until ``seconds`` (within half a pass) and
    ``min_samples`` are reached; append one record per op."""
    start = time.perf_counter()
    pass_times = []
    samples = 0
    while True:
        ops = next(passes)
        pass_start = time.perf_counter()
        with runner.pass_scope(tracer):
            for op in ops:
                probes.append(measure.probe())
                t0 = time.perf_counter()
                try:
                    raw = runner.execute(op, tracer)
                    error = None
                except Exception as exc:  # counted as a failed op
                    raw, error = None, exc
                wall = time.perf_counter() - t0
                if error is None:
                    outcome = runner.settle(op, raw, tracer)
                else:
                    runner.gate.mismatches.append(
                        f"{op['kind']}: {error!r}")
                    attempted = len(op.get("requests", (op,)))
                    outcome = {"samples": [wall] * attempted, "points": 0,
                               "cycles": 0, "attempted": attempted,
                               "failed": attempted}
                outcome["wall"] = wall
                outcome["traced"] = tracer is not None
                if tracer is not None:
                    outcome["t0"] = t0 - tracer.clock.origin
                records.append(outcome)
                samples += len(latencies(outcome))
        pass_times.append(time.perf_counter() - pass_start)
        elapsed = time.perf_counter() - start
        done = (elapsed >= seconds - statistics.mean(pass_times) / 2
                and samples >= min_samples)
        if done or time.perf_counter() > deadline:
            return


def latencies(record):
    """An op's latency samples, raw: one per request it attempted (its
    wall time unless it reports request latencies).  Failed ops keep
    theirs, so mismatches are counted in ``failed`` without starving
    the percentiles of samples."""
    return [record["wall"]] if record["samples"] is None else record["samples"]


def summarize(records):
    """End-to-end metrics over the (untraced) records, host-normalized."""
    samples, wall = [], 0.0
    points = cycles = requests = 0
    for record in records:
        factor = record["scale"]
        wall += record["wall"] * factor
        points += record["points"]
        cycles += record["cycles"]
        requests += record["attempted"]
        samples += [s * factor for s in latencies(record)]
    return {
        "op_p50_s": measure.percentile(samples, 50),
        "op_p90_s": measure.tail_percentile(samples, 90),
        "ops_per_s": requests / wall,
        "points_per_s": points / wall,
        "sim_cycles_per_s": cycles / wall,
    }, len(samples)


def layer_metrics(tracer, records, setup, probes):
    """Per-layer metrics of the traced records (per op unless noted)."""
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    per_op_plain = sum(r["wall"] * r["scale"] for r in plain) / len(plain)
    per_op_traced = (sum(r["wall"] * r["scale"] for r in traced)
                     / len(traced))
    scale = statistics.median(r["scale"] for r in traced)
    return layers.compute(tracer, traced, setup, scale=scale,
                          overhead=per_op_traced / per_op_plain - 1.0,
                          probe_s=statistics.median(probes))


def main(args, ref_probe):
    # Set-up is timed by the orchestrator; these probes, taken in this
    # process on either side of it, normalize that time (their own cost
    # is reported so it can be taken out again).
    setup_probes = [measure.probe() for _ in range(BRACKET_PROBES)]
    import_start = time.perf_counter()
    from . import expected, runners
    import_s = time.perf_counter() - import_start

    tracer = runners.Tracer() if args.trace else None
    work_root = os.path.join(os.getcwd(), ".bench_work")
    work_dir = runners.make_work_dir(work_root)
    gate = expected.Gate(expected.load())
    runner = runners.make_runner(args.workload, gate, work_dir)
    try:
        runner.setup(tracer)
        setup = {"setup.import_s": import_s}
        if tracer is not None:
            setup.update({f"{layer}_s": secs for layer, secs in
                          tracer.clock.layer_seconds().items()})
            tracer.clock.reset()
        setup_probes += [measure.probe() for _ in range(BRACKET_PROBES)]
        emit("ready", stamp=time.monotonic(), probes=setup_probes,
             peak_rss_mb=measure.peak_rss_mb())
        if args.mode == "setup":
            return
        passes = spec.passes(args.workload, args.seed)
        records, probes = [], []
        deadline = time.perf_counter() + MAX_MEASURE_S
        if tracer is None:
            run_phase(runner, passes, args.seconds, None, records, probes,
                      MIN_SAMPLES, deadline)
        else:
            half = args.seconds / 2
            run_phase(runner, passes, half, None, records, probes, 1,
                      deadline)
            run_phase(runner, passes, half, tracer, records, probes, 1,
                      deadline)
        probes.append(measure.probe())
        factors = measure.scale_factors(probes, len(records), ref_probe)
        for record, factor in zip(records, factors):
            record["scale"] = factor
        result = {"ops": len(records),
                  "attempted": sum(r["attempted"] for r in records),
                  "failed": sum(r["failed"] for r in records),
                  "mismatches": gate.mismatches[:20],
                  "op_walls": [r["wall"] for r in records],
                  "op_samples": [r["samples"] for r in records],
                  "probes": probes, "peak_rss_mb": measure.peak_rss_mb()}
        if tracer is None:
            result["metrics"], result["samples"] = summarize(records)
        else:
            result["samples"] = len(records)
            result["layers"] = layer_metrics(tracer, records, setup, probes)
            result["trace_files"] = write_trace(
                tracer, args, result["layers"])
        emit("result", **result)
    finally:
        runner.close()
        shutil.rmtree(work_dir, ignore_errors=True)


def write_trace(tracer, args, metrics):
    """Spans as a Chrome trace plus the full layer table, as files."""
    os.makedirs(args.trace_dir, exist_ok=True)
    stem = os.path.join(args.trace_dir, f"{args.workload}-seed{args.seed}")
    tracer.clock.timeline(f"bench:{args.workload}").write(
        stem + ".trace.json")
    with open(stem + ".layers.json", "w") as fh:
        json.dump(metrics, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return [stem + ".trace.json", stem + ".layers.json"]
