"""Command line: ``python -m benchmarks.bench {run,record,compare,history}``.

``run`` prints a table of every metric by name with its unit, then, as
the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and the ``metrics`` named in BENCHMARK.json (end-to-end
ones, or per-layer ones with ``--trace 1``).
"""

import argparse
import json
import os
import sys

from . import spec


def _parser():
    parser = argparse.ArgumentParser(prog="python -m benchmarks.bench")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one workload (default: all)")
    run.add_argument("--workload", choices=spec.WORKLOADS)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=float,
                     help="measuring time per run, in whole passes and at "
                          "least 100 latency samples (default: "
                          "BENCHMARK.json run_seconds)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="1: traced run reporting per-layer metrics")
    run.add_argument("--trace-dir", default=os.path.join(".bench_work",
                                                         "traces"))
    run.add_argument("--out", help="also save each result record here")

    child = sub.add_parser("child")
    child.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    child.add_argument("--seed", type=int, required=True)
    child.add_argument("--seconds", type=float, required=True)
    child.add_argument("--trace", type=int, choices=(0, 1), required=True)
    child.add_argument("--trace-dir", required=True)
    child.add_argument("--mode", choices=("setup", "measure"),
                       required=True)

    sub.add_parser("record", help="rewrite expected.json")

    compare = sub.add_parser("compare", help="parent runs A/ vs change B/")
    compare.add_argument("a")
    compare.add_argument("b")

    history = sub.add_parser("history",
                             help="append trajectory lines to history.jsonl")
    history.add_argument("--workload", choices=spec.WORKLOADS)
    history.add_argument("--seed", type=int, default=1)
    history.add_argument("--runs", type=int, default=5)
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    from . import harness
    harness.use_src()
    if args.command == "child":
        from . import child
        child.main(args, harness.ref_probe())
        return 0
    if args.command == "record":
        from . import expected
        expected.record()
        return 0
    bench = harness.load_benchmark()
    if args.command == "compare":
        from .compare import compare
        rows = compare(args.a, args.b, bench, sys.stdout)
        bad = [r for r in rows if r[2] in ("regressed", "unresolved")]
        return 1 if bad or not rows else 0
    workloads = [args.workload] if args.workload else list(spec.WORKLOADS)
    seconds = bench["run_seconds"]
    if args.command == "history":
        path = os.path.join(harness.HERE, "history.jsonl")
        for line in harness.history(workloads, args.seed, args.runs,
                                    seconds, os.path.join(".bench_work",
                                                          "traces"),
                                    bench, path):
            print(json.dumps(line, sort_keys=True))
        return 0
    if args.seconds is not None:
        seconds = args.seconds
    try:
        for workload in workloads:
            record = harness.run_workload(workload, args.seed, seconds,
                                          args.trace, args.trace_dir)
            harness.report(record, bench)
            if args.out:
                harness.save(record, args.out)
            print(json.dumps(harness.contract_line(record, bench)),
                  flush=True)
    except harness.BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
