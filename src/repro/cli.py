"""Command-line interface.

Mirrors how gem5-Aladdin is driven from the shell: configure a design
point, point it at a workload, get timing/power/area and runtime
breakdowns back.

    python -m repro workloads --sizes
    python -m repro run md-knn --lanes 8 --partitions 8
    python -m repro run spmv-crs --mem cache --cache-size 8 --cache-ports 4
    python -m repro sweep fft-transpose --density standard
    python -m repro validate
    python -m repro figure fig2b

Observability (see :mod:`repro.obs`); the observers of ``run`` combine
in one run:

    python -m repro run gemm-ncubed --stats               # stats.txt dump
    python -m repro run gemm-ncubed --stats stats.json --profile 10 \
        --timeline trace.json --debug-flags dma,sched
    python -m repro run aes-aes --debug-flags bus,dram
    REPRO_DEBUG_FLAGS=tlb python -m repro run spmv-crs --mem cache

Correctness checking (see :mod:`repro.check`):

    python -m repro run gemm-ncubed --check --check-report health.json
    python -m repro sweep md-knn --density quick --check
    REPRO_CHECK=1 python -m repro run fft-transpose --mem cache

Robust sweeps (see :mod:`repro.core.sweeppool`):

    python -m repro sweep md-knn --on-error collect --retries 2
    python -m repro sweep md-knn --jobs 4 --timeout 300
    python -m repro sweep md-knn --resume      # after a crash / Ctrl-C

Tiered-fidelity sweeps (see :mod:`repro.core.calibrate`):

    python -m repro calibrate aes-aes gemm-ncubed
    python -m repro sweep aes-aes --fidelity auto --density full
    python -m repro sweep aes-aes --fidelity fast   # predictions only

Sweep-as-a-service (see :mod:`repro.serve`):

    python -m repro serve --port 8642 --jobs 4
    python -m repro query pareto aes-aes --density quick
    python -m repro query edp aes-aes --no-evaluate   # warm-only
    python -m repro query stats --json -

Python kernel frontend (see :mod:`repro.frontend`):

    python -m repro trace-kernel my_kernel.py
    python -m repro workloads
    python -m repro sweep fir --kernel my_kernel.py --density quick
    python -m repro query pareto fir --kernel my_kernel.py
"""

import argparse
import json
import math
import sys
from contextlib import contextmanager

from repro.core.config import DesignPoint, SoCConfig
from repro.core.pareto import reducible, sweep_pareto
from repro.core.reporting import breakdown_table, format_table, pareto_table, percent
from repro.core.soc import SoC
from repro.core.sweep import FIDELITIES, cache_design_space, dma_design_space
from repro.workloads import cached_ddg, get_workload, workload_names


def build_parser():
    """Construct the argparse CLI tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="gem5-Aladdin reproduction: SoC/accelerator co-design "
                    "simulation (MICRO 2016)")
    sub = parser.add_subparsers(dest="command", required=True)

    wl_p = sub.add_parser(
        "workloads",
        help="enumerate what is sweepable: name, description, source "
             "(builtin|frontend)")
    wl_p.add_argument("--sizes", action="store_true",
                      help="also build every trace and report its node "
                           "count and footprint (slow on a large registry)")
    _add_kernel_args(wl_p)

    tk_p = sub.add_parser(
        "trace-kernel",
        help="trace the @kernel functions in a Python file "
             "(see repro.frontend)")
    tk_p.add_argument("file", metavar="FILE.py",
                      help="kernel file defining @kernel functions")
    tk_p.add_argument("--histogram", action="store_true",
                      help="print the per-opcode dynamic op histogram")

    run_p = sub.add_parser(
        "run", help="run one (workload, design) offload; --profile, "
                    "--stats and --timeline observe the same run")
    run_p.add_argument("workload", metavar="workload")
    run_p.add_argument("--check-report", metavar="PATH", default=None,
                       help="write the checker's health report as JSON "
                            "(implies --check)")
    run_p.add_argument("--profile", type=_count, nargs="?", const=0,
                       default=None, metavar="N",
                       help="attach the event-loop profiler and print its "
                            "per-component report (the N heaviest "
                            "components if N is given)")
    run_p.add_argument("--stats", nargs="?", const=True, default=None,
                       metavar="PATH|-",
                       help="dump the full stats registry: stats.txt text "
                            "without an argument, JSON to PATH, or JSON on "
                            "stdout for '-'")
    run_p.add_argument("--timeline", metavar="PATH", default=None,
                       help="write a Chrome trace_event timeline, the "
                            "enabled --debug-flags as markers; load in "
                            "Perfetto or chrome://tracing")
    _add_kernel_args(run_p)
    _add_design_args(run_p)
    _add_platform_args(run_p)

    pipe_p = sub.add_parser(
        "pipeline",
        help="chain accelerators producer->consumer through a "
             "back-pressured handoff buffer (see repro.core.pipeline)")
    pipe_p.add_argument("workloads", nargs="+", metavar="workload",
                        help="stage workloads, upstream first (>= 2)")
    pipe_p.add_argument("--handoff", choices=("dma", "cache"),
                        default="dma",
                        help="handoff buffer kind: scratchpad ring over "
                             "DMA with full/empty-bit back-pressure "
                             "(default) or aliased coherent-cache regions")
    pipe_p.add_argument("--buffer-bytes", type=int, default=4096,
                        metavar="N",
                        help="shared handoff ring size in bytes per link "
                             "(DMA handoff; default 4096)")
    pipe_p.add_argument("--double-buffer", action="store_true",
                        help="split each handoff ring into two slots so "
                             "producer fill overlaps consumer drain")
    pipe_p.add_argument("--lanes", type=int, default=4)
    pipe_p.add_argument("--partitions", type=int, default=4)
    pipe_p.add_argument("--solo-baseline", action="store_true",
                        help="also run each stage alone and report the "
                             "pipeline's speedup over serial offloads")
    pipe_p.add_argument("--trace", metavar="PATH", default=None,
                        help="write a Chrome trace_event timeline with "
                             "per-stage rows and per-link stall/park rows")
    pipe_p.add_argument("--json", metavar="PATH", default=None,
                        help="write the full pipeline result as JSON "
                             "('-' for stdout)")
    pipe_p.add_argument("--check-report", metavar="PATH", default=None,
                        help="write the checker's health report as JSON "
                             "(implies --check)")
    _add_kernel_args(pipe_p)
    _add_platform_args(pipe_p)

    sweep_p = sub.add_parser("sweep",
                             help="sweep both design spaces for a workload")
    sweep_p.add_argument("workload", metavar="workload")
    _add_kernel_args(sweep_p)
    sweep_p.add_argument("--density", default="standard",
                         choices=("quick", "standard", "full"))
    sweep_p.add_argument("--json", metavar="PATH",
                         help="write every design point as JSON")
    sweep_p.add_argument("--csv", metavar="PATH",
                         help="write every design point as CSV")
    sweep_p.add_argument("--profile", action="store_true",
                         help="profile the event loop across the whole "
                              "sweep (forces serial, uncached evaluation)")
    sweep_p.add_argument("--dump-stats", metavar="DIR", default=None,
                         help="write one stats-registry JSON per design "
                              "point into DIR (forces serial, uncached "
                              "evaluation)")
    _add_platform_args(sweep_p)
    _add_sweep_engine_args(sweep_p)
    _add_fidelity_args(sweep_p)

    cal_p = sub.add_parser(
        "calibrate",
        help="fit the fast analytic tier against exact simulation")
    cal_p.add_argument("workloads", nargs="+", metavar="workload",
                       help="workloads to calibrate (see 'repro workloads')")
    cal_p.add_argument("--density", default="standard",
                       choices=("quick", "standard", "full"),
                       help="grid whose corners/mid-edges are sampled "
                            "exactly (default standard)")
    _add_kernel_args(cal_p)
    _add_sweep_engine_args(cal_p)

    val_p = sub.add_parser("validate",
                           help="Figure 4: analytic model vs detailed sim")
    val_p.add_argument("workloads", nargs="*", default=None)

    fig_p = sub.add_parser("figure", help="regenerate one paper figure")
    fig_p.add_argument("name",
                       choices=("fig1", "fig2a", "fig2b", "fig4", "fig6a",
                                "fig6b", "fig7", "fig8", "fig9", "fig10",
                                "fig11"))
    fig_p.add_argument("--density", default="standard",
                       choices=("quick", "standard", "full"))
    _add_sweep_engine_args(fig_p)
    _add_fidelity_args(fig_p)

    serve_p = sub.add_parser(
        "serve",
        help="serve sweep/Pareto/EDP queries over HTTP against the "
             "result store (see repro.serve)")
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=8642,
                         help="listen port (default 8642; 0 = ephemeral)")
    serve_p.add_argument("--jobs", type=_count, default=1, metavar="N",
                         help="worker processes for cold points "
                              "(0 = one per CPU; default 1)")
    serve_p.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="result store directory "
                              "(default .sweep-cache)")
    serve_p.add_argument("--fidelity", choices=FIDELITIES,
                         default=None,
                         help="evaluation tier for cold points (default: "
                              "auto where a calibration exists, exact "
                              "otherwise)")
    serve_p.add_argument("--verbose", action="store_true",
                         help="log every HTTP request")

    query_p = sub.add_parser(
        "query",
        help="query a running 'repro serve' (sweep/pareto/edp/figure/"
             "stats/health)")
    query_p.add_argument("kind",
                         choices=("sweep", "pareto", "edp", "figure",
                                  "stats", "health", "workloads"))
    query_p.add_argument("workload", nargs="?", default=None,
                         help="workload to query (required for result "
                              "queries, ignored for stats/health)")
    query_p.add_argument("--kernel", metavar="FILE.py", action="append",
                         default=None, dest="kernel_files",
                         help="submit this kernel file's @kernel "
                              "functions to the server (POST /kernels) "
                              "before querying; repeatable")
    query_p.add_argument("--server", default=None, metavar="URL",
                         help="service base URL (default: "
                              "$REPRO_SERVE_URL or "
                              "http://127.0.0.1:8642)")
    query_p.add_argument("--space", choices=("dma", "cache", "both"),
                         default="both")
    query_p.add_argument("--density", default="standard",
                         choices=("quick", "standard", "full"))
    query_p.add_argument("--fidelity", choices=FIDELITIES,
                         default=None,
                         help="evaluation tier for cold points "
                              "(default: the server's)")
    query_p.add_argument("--no-evaluate", action="store_true",
                         help="warm-only: answer from the store and "
                              "report missing points instead of "
                              "simulating them")
    query_p.add_argument("--json", metavar="PATH", default=None,
                         help="write the full JSON response "
                              "('-' for stdout)")
    return parser


def _add_kernel_args(parser):
    parser.add_argument("--kernel", metavar="FILE.py", action="append",
                        default=None, dest="kernel_files",
                        help="load and register the @kernel functions in "
                             "this Python file before resolving the "
                             "workload (see repro.frontend); repeatable")


def _load_kernel_files(args):
    """Register the kernels of every ``--kernel FILE`` (idempotent)."""
    from repro.frontend import load_kernel_file
    for path in args.kernel_files or []:
        load_kernel_file(path, replace=True)


def _resolve_workloads(args, requested):
    """Load the ``--kernel`` files, then validate each requested workload
    name against the live registry."""
    _load_kernel_files(args)
    names = workload_names()
    for name in requested:
        if name not in names:
            raise SystemExit(
                f"unknown workload {name!r}; available: {', '.join(names)} "
                f"(register your own with --kernel FILE.py)")


def _ii_value(text):
    """Parse --ii: 'auto' or a positive integer."""
    if text == "auto":
        return "auto"
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be 'auto' or an integer >= 1, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be 'auto' or an integer >= 1, got {text!r}")
    return value


def _add_design_args(parser):
    parser.add_argument("--lanes", type=int, default=4)
    parser.add_argument("--partitions", type=int, default=4)
    parser.add_argument("--mem", choices=("dma", "cache"), default="dma")
    parser.add_argument("--no-pipelined-dma", action="store_true")
    parser.add_argument("--no-triggered-compute", action="store_true")
    parser.add_argument("--double-buffer", action="store_true")
    parser.add_argument("--cache-size", type=int, default=8,
                        help="cache size in KB")
    parser.add_argument("--cache-line", type=int, default=64)
    parser.add_argument("--cache-ports", type=int, default=2)
    parser.add_argument("--cache-assoc", type=int, default=4)
    parser.add_argument("--prefetcher", choices=("none", "stride"),
                        default="stride")
    parser.add_argument("--pipelining",
                        choices=("off", "barriers", "modulo"),
                        default="barriers",
                        help="loop-pipelining discipline: synchronizing "
                             "round barriers (default), free overlap "
                             "(off), or modulo scheduling at an "
                             "initiation interval (modulo)")
    parser.add_argument("--ii", type=_ii_value, default="auto",
                        metavar="II",
                        help="initiation interval for --pipelining=modulo: "
                             "'auto' searches for the minimal feasible II "
                             "(default), an integer forces one")


def _add_platform_args(parser):
    parser.add_argument("--bus-width", type=int, default=32,
                        choices=(32, 64))
    parser.add_argument("--background-traffic", action="store_true")
    parser.add_argument("--debug-flags", metavar="FLAGS", default=None,
                        help="comma-separated debug-trace flags "
                             "(e.g. bus,dram,tlb,dma,sched or 'all'; "
                             "default: $REPRO_DEBUG_FLAGS)")
    # default=None (not False) so an absent flag falls back to $REPRO_CHECK.
    parser.add_argument("--check", action="store_true", default=None,
                        help="enable runtime correctness checking: MOESI "
                             "invariants, end-of-run leak audits, deadlock "
                             "diagnosis (default: $REPRO_CHECK)")


def _checker_from_args(args):
    """Resolve --check / $REPRO_CHECK into a Checker (or None)."""
    from repro.check import resolve_check
    enabled = getattr(args, "check", None)
    if enabled is None and getattr(args, "check_report", None):
        enabled = True
    return resolve_check(enabled)


def _print_check(out, checker, report_path):
    """The clean-run summary of ``--check`` and its ``--check-report``."""
    if checker is None:
        return
    audit = checker.last_audit or {}
    out("")
    out(f"check    : clean ({checker.invariant_checks} invariant "
        f"checks, {audit.get('components_audited', 0)} components "
        f"audited, 0 leaks)")
    if report_path:
        checker.dump_json(report_path)
        out(f"wrote health report to {report_path}")


@contextmanager
def _debug_flags(args, record=False):
    """Enable --debug-flags / REPRO_DEBUG_FLAGS for one command.

    Flags must be active *before* the SoC is built (components capture
    their tracers at construction); the previous state is restored on
    exit so in-process callers (tests) never leak flags.  With
    ``record`` the yielded list collects every emitted trace event (the
    markers of a timeline); otherwise it stays empty.
    """
    import os

    from repro.obs import trace
    spec = getattr(args, "debug_flags", None)
    if spec is None:
        spec = os.environ.get(trace.ENV_VAR) or None
    with trace.flags(spec):
        events = trace.start_recording() if record else []
        try:
            yield events
        finally:
            if record:
                trace.stop_recording()


def _write_timeline(out, builder, events, path):
    """Write a timeline built from one run and report its size."""
    num_events = builder.write(path)
    out(f"timeline : {len(builder.rows())} rows, {num_events} events "
        f"({len(events)} trace markers) -> {path}")
    out("view     : load in https://ui.perfetto.dev or chrome://tracing")


def _emit_json(out, doc, dest, label):
    """Print ``doc`` as JSON when ``dest`` is ``-``, else write it to the
    file ``dest``."""
    text = json.dumps(doc, indent=2, sort_keys=True)
    if dest == "-":
        out(text)
    else:
        with open(dest, "w") as fh:
            fh.write(text + "\n")
        out(f"wrote {label} to {dest}")


def _count(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _timeout_seconds(text):
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be finite seconds > 0, got {text}")
    return value


def _add_sweep_engine_args(parser):
    parser.add_argument("--jobs", type=_count, default=1, metavar="N",
                        help="evaluate design points over N worker "
                             "processes (0 = one per CPU; default 1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk sweep result cache")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="sweep cache directory "
                             "(default .sweep-cache)")
    parser.add_argument("--on-error", choices=("raise", "collect"),
                        default="raise",
                        help="'collect' records a failing design point as "
                             "a structured FailedPoint and keeps sweeping "
                             "(default: abort on first failure)")
    parser.add_argument("--retries", type=_count, default=0,
                        metavar="N",
                        help="re-issue a failing design point up to N "
                             "extra attempts (default 0)")
    parser.add_argument("--timeout", type=_timeout_seconds, default=None,
                        metavar="S",
                        help="per-point wall-clock limit in seconds; an "
                             "overdue point's worker is killed and the "
                             "point retried or failed")
    parser.add_argument("--resume", action="store_true",
                        help="resume an interrupted sweep: re-evaluate "
                             "only the missing/failed points recorded in "
                             "the cache + manifest (requires the cache)")


def _add_fidelity_args(parser):
    parser.add_argument("--fidelity", choices=FIDELITIES,
                        default="exact",
                        help="simulation tier: exact co-simulation "
                             "(default), calibrated analytic predictions "
                             "(fast), or triage — fast model prunes, only "
                             "the candidate frontier is confirmed exactly "
                             "(auto)")
    parser.add_argument("--guard-band", type=float, default=None,
                        metavar="B",
                        help="assumed max relative error of the fast "
                             "model during auto pruning (default: the "
                             "calibration's validated error bound)")


def sweep_options_from_args(args):
    """``run_sweep`` keywords from parsed sweep-engine (and fidelity) flags."""
    from repro.core.sweeppool import DEFAULT_CACHE_DIR
    if args.resume and args.no_cache:
        raise SystemExit("--resume needs the sweep cache; drop --no-cache")
    options = {
        "parallel": args.jobs if args.jobs != 1 else None,
        "cache_dir": (None if args.no_cache
                      else args.cache_dir or DEFAULT_CACHE_DIR),
        "on_error": args.on_error,
        "retries": args.retries,
        "timeout": args.timeout,
    }
    if hasattr(args, "fidelity"):
        options.update(fidelity=args.fidelity, guard_band=args.guard_band)
    return options


def design_from_args(args):
    """Build a DesignPoint from parsed CLI arguments."""
    return DesignPoint(
        lanes=args.lanes, partitions=args.partitions,
        mem_interface=args.mem,
        pipelined_dma=not args.no_pipelined_dma,
        dma_triggered_compute=not args.no_triggered_compute,
        double_buffer=args.double_buffer,
        cache_size_kb=args.cache_size, cache_line=args.cache_line,
        cache_ports=args.cache_ports, cache_assoc=args.cache_assoc,
        prefetcher=args.prefetcher,
        pipelining=args.pipelining, ii=args.ii)


def config_from_args(args):
    """Build an SoCConfig from parsed CLI arguments."""
    return SoCConfig(bus_width_bits=args.bus_width,
                     background_traffic=args.background_traffic)


def cmd_workloads(args, out):
    """``repro workloads``: sweepable-workload enumeration.

    Without ``--sizes`` this never builds a trace, so it is safe to run
    against a large registry (or from a served deployment's cron); the
    ``source`` column separates the builtin suite from dynamically
    registered frontend kernels.
    """
    from repro.workloads.registry import workload_source
    _load_kernel_files(args)
    headers = ["workload", "description", "source"]
    if args.sizes:
        headers += ["trace_nodes", "footprint_B"]
    rows = []
    for name in workload_names():
        row = [name, get_workload(name).description, workload_source(name)]
        if args.sizes:
            ddg = cached_ddg(name)
            row += [ddg.num_nodes, ddg.footprint_bytes()]
        rows.append(row)
    out(format_table(headers, rows))
    return 0


def cmd_trace_kernel(args, out):
    """``repro trace-kernel``: capture + verify the kernels in a file.

    Loads the file, registers its ``@kernel`` functions, runs both
    passes of each (pure-Python reference + proxy trace, cross-checked)
    and prints a per-kernel capture summary.  After this succeeds the
    kernels are sweepable by name: ``repro sweep <name> --kernel FILE``.
    """
    from repro.frontend import load_kernel_file
    from repro.workloads.registry import cached_trace
    kernels = load_kernel_file(args.file, replace=True)
    for wl in kernels:
        trace = cached_trace(wl.name)
        wl.verify(trace)
        arrays = ", ".join(
            f"{decl.name}[{decl.length}]x{decl.word_bytes}B/{decl.kind}"
            for decl in trace.arrays.values())
        footprint = sum(decl.size_bytes for decl in trace.arrays.values())
        out(f"kernel   : {wl.name}")
        if wl.description:
            out(f"  desc   : {wl.description}")
        out(f"  trace  : {trace.num_nodes} ops, "
            f"{trace.num_iterations()} parallel iterations, verified "
            f"against the Python reference")
        out(f"  arrays : {arrays} ({footprint} B)")
        if args.histogram:
            hist = trace.op_histogram()
            out("  ops    : " + " ".join(
                f"{op}={n}" for op, n in sorted(hist.items())))
    out("")
    out(f"{len(kernels)} kernel(s) registered; sweep with "
        f"'repro sweep <name> --kernel {args.file}'")
    return 0


def cmd_run(args, out):
    """``repro run``: one offload, metrics + breakdown + stats.

    The observers asked for attach to the same run: ``--profile`` the
    event-loop profiler, ``--stats`` the full stats registry and
    ``--timeline`` a Chrome trace_event export whose instant markers are
    the enabled ``--debug-flags`` events.
    """
    _resolve_workloads(args, [args.workload])
    design = design_from_args(args)
    checker = _checker_from_args(args)
    profiler = registry = None
    with _debug_flags(args, record=args.timeline is not None) as events:
        soc = SoC(args.workload, design, config_from_args(args),
                  check=checker if checker is not None else False)
        if args.profile is not None:
            from repro.sim.profiling import EventProfiler
            profiler = EventProfiler()
            soc.sim.queue.set_profiler(profiler)
        if args.stats is not None:
            from repro.obs.stats import StatRegistry
            registry = StatRegistry()
            soc.reg_stats(registry)
        result = soc.run()
    out(f"workload : {args.workload}")
    out(f"design   : {design!r}")
    out(f"time     : {result.time_us:.2f} us  "
        f"({result.accel_cycles} accelerator cycles)")
    out(f"power    : {result.power_mw:.3f} mW")
    out(f"area     : {result.area_mm2:.4f} mm^2")
    out(f"EDP      : {result.edp:.3e} J*s")
    out("")
    out(breakdown_table([result], title="cycle classes:"))
    out("")
    out("stats:")
    for key, value in sorted(result.stats.items()):
        if value is not None:
            out(f"  {key:20s} {value}")
    _print_check(out, checker, args.check_report)
    if profiler is not None:
        out("")
        out(profiler.report(top=args.profile or None))
    if args.stats is True:
        out("")
        out(registry.dump_text())
    elif registry is not None:
        _emit_json(out, registry.to_json(), args.stats,
                   f"{len(registry)} stats")
    if args.timeline:
        from repro.obs.timeline import soc_timeline
        _write_timeline(out, soc_timeline(soc, trace_events=events), events,
                        args.timeline)
    return 0


def cmd_pipeline(args, out):
    """``repro pipeline``: chain N accelerators through handoff buffers."""
    from repro.core.pipeline import AcceleratorPipeline
    from repro.errors import ConfigError
    from repro.units import ticks_to_us

    _resolve_workloads(args, args.workloads)
    design = DesignPoint(
        lanes=args.lanes, partitions=args.partitions,
        mem_interface="dma" if args.handoff == "dma" else "cache")
    checker = _checker_from_args(args)
    with _debug_flags(args, record=args.trace is not None) as events:
        try:
            pipe = AcceleratorPipeline(
                [(w, design) for w in args.workloads],
                handoff=args.handoff, buffer_bytes=args.buffer_bytes,
                double_buffer=args.double_buffer,
                cfg=config_from_args(args),
                check=checker if checker is not None else False)
        except ConfigError as exc:
            raise SystemExit(str(exc))
        result = pipe.run()

    out(f"pipeline : {' -> '.join(args.workloads)}")
    ring = (f", {args.buffer_bytes} B ring"
            f"{' x2 (double buffered)' if args.double_buffer else ''}"
            if args.handoff == "dma" else ", aliased regions")
    out(f"handoff  : {args.handoff}{ring}")
    out(f"makespan : {ticks_to_us(result.makespan_ticks):.2f} us")
    out("")
    rows = [[f"stage{i}", r.workload, f"{r.time_us:.2f}",
             f"{r.power_mw:.3f}"]
            for i, r in enumerate(result.stage_results)]
    out(format_table(["stage", "workload", "time_us", "power_mW"], rows))
    out("")
    rows = [[f"link{l['link']}", f"{l['producer']}->{l['consumer']}",
             l["handoffs"], l["producer_stalls"], l["consumer_parks"],
             f"{ticks_to_us(l['producer_stall_ticks']):.2f}",
             f"{ticks_to_us(l['consumer_park_ticks']):.2f}",
             "yes" if l["ordering_clean"] else "NO"]
            for l in result.links]
    out(format_table(["link", "stages", "handoffs", "stalls", "parks",
                      "stall_us", "park_us", "ordered"], rows))
    if args.solo_baseline:
        out("")
        out(f"speedup  : {pipe.speedup_vs_serial():.3f}x vs serial "
            f"offloads (sum of solo runs / pipeline makespan)")
    _print_check(out, checker, args.check_report)
    if args.trace:
        from repro.obs.timeline import pipeline_timeline
        _write_timeline(out, pipeline_timeline(pipe, trace_events=events),
                        events, args.trace)
    if args.json:
        _emit_json(out, result.to_dict(), args.json, "the pipeline result")
    return 0


def cmd_sweep(args, out):
    """``repro sweep``: both design spaces, Pareto + optima."""
    from repro.core.sweeppool import SweepMetrics
    _resolve_workloads(args, [args.workload])
    cfg = config_from_args(args)
    sweep = sweep_options_from_args(args)
    metrics = SweepMetrics()
    profiler = None
    if args.profile:
        from repro.sim.profiling import EventProfiler
        profiler = EventProfiler()
    dump_dma = dump_cache = None
    if args.dump_stats:
        # One subdirectory per design space, so point indices don't clash.
        import os
        dump_dma = os.path.join(args.dump_stats, "dma")
        dump_cache = os.path.join(args.dump_stats, "cache")
    # An *explicit* --check builds one accumulating checker and runs the
    # sweep inline (its counters live in this process).  Env-only checking
    # ($REPRO_CHECK) stays on the parallel/cached path: check=None defers
    # resolution to each run_design call, and worker processes inherit the
    # variable.
    checker = _checker_from_args(args) if args.check else None
    if args.profile or args.dump_stats or checker is not None:
        if args.fidelity != "exact":
            raise SystemExit("--fidelity fast/auto is incompatible with "
                             "--profile/--dump-stats/--check: the fast "
                             "tier runs no events to profile, dump or "
                             "check")
        # The in-process diagnostic sweep runs uncached, so it has no
        # manifest to resume from.
        sweep["cache_dir"] = None
    dma_space = dma_design_space(args.density)
    cache_space = cache_design_space(args.density)
    calibration = _calibration_for_sweep(args, cfg, sweep, out)
    if args.resume and sweep["cache_dir"] is not None:
        _print_resume_summary(out, args.workload, cfg, sweep["cache_dir"],
                              [("DMA", dma_space), ("cache", cache_space)])
    dma_front, best_dma, dma = sweep_pareto(
        args.workload, dma_space, cfg, metrics=metrics, profiler=profiler,
        dump_stats=dump_dma, check=checker, calibration=calibration,
        **sweep)
    cache_front, best_cache, cache = sweep_pareto(
        args.workload, cache_space, cfg, metrics=metrics, profiler=profiler,
        dump_stats=dump_cache, check=checker, calibration=calibration,
        **sweep)
    failed = [r for r in dma + cache if getattr(r, "is_failure", False)]
    if args.json or args.csv:
        from repro.core.export import results_to_csv, results_to_json
        ok = reducible(dma + cache, args.fidelity)
        if args.json:
            results_to_json(ok, args.json)
            out(f"wrote {len(ok)} design points to {args.json}")
        if args.csv:
            results_to_csv(ok, args.csv)
            out(f"wrote {len(ok)} design points to {args.csv}")
    tag = " (predicted)" if args.fidelity == "fast" else ""
    out(pareto_table(dma_front, f"DMA Pareto frontier{tag}:"))
    out("")
    out(pareto_table(cache_front, f"cache Pareto frontier{tag}:"))
    if best_dma is not None and best_cache is not None:
        out("")
        out(f"DMA   EDP optimum: {best_dma.design!r}  "
            f"edp={best_dma.edp:.3e}")
        out(f"cache EDP optimum: {best_cache.design!r}  "
            f"edp={best_cache.edp:.3e}")
        winner = "DMA" if best_dma.edp <= best_cache.edp else "cache"
        out(f"-> {winner} wins for {args.workload}")
    out("")
    if checker is not None:
        out(f"check: clean across {checker.audits} design points "
            f"({checker.invariant_checks} invariant checks, 0 violations, "
            f"0 leaks)")
    if args.dump_stats:
        out(f"wrote per-point stats registries under {args.dump_stats}/")
    if profiler is not None:
        out(profiler.report())
    elif metrics is not None:
        out(metrics.report())
    if calibration is not None:
        _print_fidelity_report(out, args, calibration, metrics)
    if failed:
        out("")
        out(f"FAILED points: {len(failed)} "
            f"(re-run with --resume to retry them)")
        for fp in failed:
            out(f"  {fp.design!r}: [{fp.kind}] {fp.error} "
                f"(attempts={fp.attempts})")
        return 2
    return 0


def _calibration_for_sweep(args, cfg, sweep, out):
    """Load (or fit on the spot) the calibration a fast/auto sweep needs."""
    if args.fidelity == "exact":
        return None
    from repro.core.calibrate import Calibration, calibrate_workload
    cache_dir = sweep["cache_dir"]
    calibration = None
    if cache_dir is not None:
        calibration = Calibration.load(cache_dir, args.workload, cfg)
    if calibration is None:
        out(f"no calibration for {args.workload}; sampling exact "
            f"simulations to fit the fast tier "
            f"(persist with 'repro calibrate')...")
        calibration = calibrate_workload(args.workload, cfg,
                                         density=args.density,
                                         cache_dir=cache_dir,
                                         parallel=sweep["parallel"])
    return calibration


def _print_fidelity_report(out, args, calibration, metrics):
    """The measured fast-vs-exact error report of a fast/auto sweep."""
    if args.guard_band is not None:
        band_t = band_p = args.guard_band
    else:
        band_t = calibration.time_bound
        band_p = calibration.power_bound
    out("")
    out(f"fidelity   : {args.fidelity} (guard band: time "
        f"{percent(band_t)}, power {percent(band_p)})")
    if args.fidelity == "auto" and metrics.fast_time_errors:
        terr = metrics.fast_time_error_max
        perr = metrics.fast_power_error_max
        verdict = ("within" if terr <= band_t and perr <= band_p
                   else "EXCEEDS")
        out(f"fast error : measured max time {percent(terr)}, power "
            f"{percent(perr)} on {len(metrics.fast_time_errors)} "
            f"confirmed points — {verdict} the guard band")


def cmd_calibrate(args, out):
    """``repro calibrate``: fit + persist the fast tier per workload."""
    from repro.core.calibrate import calibrate_workload
    from repro.core.sweeppool import SweepMetrics
    _resolve_workloads(args, args.workloads)
    sweep = sweep_options_from_args(args)
    cache_dir = sweep["cache_dir"]
    metrics = SweepMetrics()
    for workload in args.workloads:
        cal = calibrate_workload(workload, density=args.density,
                                 cache_dir=cache_dir,
                                 parallel=sweep["parallel"],
                                 metrics=metrics)
        rows = [[key, str(fit.samples), percent(fit.time_error_max),
                 percent(fit.power_error_max), "ok"]
                for key, fit in sorted(cal.classes.items())]
        rows += [[key, str(fit.samples), percent(fit.time_error_max),
                  percent(fit.power_error_max), "REJECTED"]
                 for key, fit in sorted(cal.rejected.items())]
        out(format_table(["class", "samples", "time err", "power err",
                          "fit"], rows))
        out(f"{workload}: error bound time {percent(cal.time_bound)}, "
            f"power {percent(cal.power_bound)} "
            f"(worst in-sample error x safety margin)")
        if cal.rejected:
            out(f"rejected: {', '.join(sorted(cal.rejected))} — these "
                f"classes fall back to exact simulation under "
                f"--fidelity auto")
        if cache_dir is not None:
            out(f"saved to {cal.path_for(cache_dir, workload)}")
        else:
            out("not persisted (--no-cache); pass a cache dir to reuse it")
        out("")
    out(metrics.report())
    return 0


def _print_resume_summary(out, workload, cfg, cache_dir, spaces):
    """Report what a --resume sweep is about to skip / re-evaluate."""
    from repro.core.sweeppool import SweepManifest
    for label, designs in spaces:
        doc = SweepManifest.peek(cache_dir, workload, designs, cfg)
        if doc is None:
            out(f"resume {label:5s}: no manifest (fresh sweep of "
                f"{len(designs)} points)")
        else:
            out(f"resume {label:5s}: {doc['done']} done, "
                f"{doc['failed']} failed, {doc['pending']} pending "
                f"of {doc['points']} points")


def cmd_validate(args, out):
    """``repro validate``: Figure 4's model-vs-sim errors."""
    from repro.core.validation import validate_suite
    from repro.workloads import CORE_EIGHT
    workloads = args.workloads or CORE_EIGHT
    suite = validate_suite(workloads)
    rows = [[r.workload, percent(r.total_error),
             percent(r.component_errors["flush"]),
             percent(r.component_errors["dma"]),
             percent(r.component_errors["compute"])]
            for r in suite["rows"]]
    out(format_table(["workload", "total", "flush", "dma", "compute"], rows))
    out(f"average total error: {percent(suite['avg_total_error'])} "
        f"(paper vs hardware: 6.4% dma / 5% compute / 5% flush)")
    return 0


def cmd_figure(args, out):
    """``repro figure``: regenerate one paper figure."""
    from repro.core import figures
    from repro.core.sweeppool import SweepMetrics
    metrics = SweepMetrics()
    figures.set_sweep_options(metrics=metrics, **sweep_options_from_args(args))
    try:
        fn = getattr(figures, args.name)
        if args.name in ("fig1", "fig8", "fig9", "fig10"):
            data = fn(density=args.density)
        else:
            data = fn()
    finally:
        figures.set_sweep_options()
    out(_render_figure(args.name, data))
    if metrics.points:
        out("")
        out(metrics.report())
    return 0


def _render_figure(name, data):
    """A compact text rendering; the benchmarks print richer tables."""
    if name == "fig2a":
        return breakdown_table([data], title="Figure 2a")
    if name == "fig2b":
        return breakdown_table(data, title="Figure 2b")
    if name == "fig4":
        lines = [f"{r.workload:20s} total_err={percent(r.total_error)}"
                 for r in data["rows"]]
        lines.append(f"avg={percent(data['avg_total_error'])}")
        return "\n".join(lines)
    if name == "fig10":
        lines = []
        for w, per in data["rows"].items():
            vals = " ".join(f"{k}={per[k]['improvement']:.2f}x"
                            for k in per)
            lines.append(f"{w:20s} {vals}")
        lines.append(f"averages: {data['averages']}")
        return "\n".join(lines)
    if name == "fig11":
        lines = [f"Figure 11: II-vs-EDP, {data['workload']}"]
        pareto = {id(r) for r in data["pareto"]}
        for row in data["rows"]:
            mode = row["pipelining"]
            if mode == "modulo":
                mode = (f"modulo ii={row['ii']} "
                        f"(req {row['ii_requested']}, "
                        f"rec {row['rec_mii']}, res {row['res_mii']})")
            mark = " *" if id(row["result"]) in pareto else ""
            lines.append(f"  {mode:40s} time={row['time_us']:.2f}us "
                         f"edp={row['edp_js']:.3e}{mark}")
        lines.append(f"pareto points: {len(data['pareto'])} "
                     f"(* marks frontier)")
        return "\n".join(lines)
    return repr(data)


def cmd_serve(args, out):
    """``repro serve``: HTTP/JSON sweep service over the result store."""
    from repro.core.sweeppool import DEFAULT_CACHE_DIR
    from repro.serve.httpd import serve
    serve(args.cache_dir or DEFAULT_CACHE_DIR, host=args.host,
          port=args.port, jobs=args.jobs, fidelity=args.fidelity,
          verbose=args.verbose, out=out)
    return 0


def cmd_query(args, out):
    """``repro query``: one request against a running ``repro serve``."""
    import os

    from repro.serve.client import ServiceClient, ServiceError
    server = (args.server or os.environ.get("REPRO_SERVE_URL")
              or "http://127.0.0.1:8642")
    client = ServiceClient(server)
    try:
        for path in args.kernel_files or []:
            with open(path) as fh:
                doc = client.submit_kernel(fh.read(),
                                           filename=os.path.basename(path))
            out(f"registered kernel(s) on {server}: "
                f"{', '.join(k['name'] for k in doc['kernels'])}")
        if args.kind == "health":
            response = client.health()
        elif args.kind == "stats":
            response = client.stats()
        elif args.kind == "workloads":
            response = {"workloads": client.workloads()}
        else:
            if not args.workload:
                raise SystemExit(
                    f"'repro query {args.kind}' needs a workload "
                    f"(see 'repro query workloads')")
            response = client.query(args.kind, args.workload,
                                    space=args.space, density=args.density,
                                    fidelity=args.fidelity,
                                    evaluate=not args.no_evaluate)
    except ServiceError as exc:
        raise SystemExit(f"query failed: {exc}")
    except OSError as exc:
        raise SystemExit(f"cannot reach {server}: {exc}")
    _print_query_summary(args.kind, response, out)
    if args.json:
        _emit_json(out, response, args.json, "response")
    return 0


def _print_query_summary(kind, response, out):
    """Human-readable one-screen summary of a query response."""
    if kind == "health":
        out(f"status   : {response['status']}")
        out(f"store    : {response['cache_dir']} "
            f"({response['cached_points']} cached points)")
        out(f"fidelity : {response['fidelity']}")
        return
    if kind == "stats":
        svc = response["service"]
        out(f"requests : {svc['requests']} ({svc['points']} points)")
        out(f"served   : {svc['hits']} hits, {svc['joins']} joins, "
            f"{svc['dispatches']} dispatches "
            f"({svc['failures']} failed)")
        out(f"latency  : p50 {svc['latency_p50'] * 1e3:.1f} ms, "
            f"p95 {svc['latency_p95'] * 1e3:.1f} ms; "
            f"queue depth {svc['queue_depth']}")
        return
    if kind == "workloads":
        out(" ".join(response["workloads"]))
        return
    svc = response["service"]
    out(f"{kind} {response['workload']}: {response['points']} points "
        f"({svc['hits']} hits, {svc['joins']} joins, "
        f"{svc['dispatches']} dispatches, {response['missing']} missing)")
    if kind == "pareto":
        out(f"frontier : {len(response['frontier'])} points")
    if kind in ("pareto", "edp") and response.get("edp_optimal"):
        opt = response["edp_optimal"]
        out(f"edp opt  : {opt['mem_interface']} lanes={opt['lanes']} "
            f"time={opt['time_us']:.2f}us power={opt['power_mw']:.2f}mW "
            f"edp={opt['edp_js']:.3e}")
    if kind == "figure":
        for interface, data in sorted(response["interfaces"].items()):
            out(f"{interface:5s}    : frontier {len(data['frontier'])} "
                f"points")
    if kind == "sweep":
        out(f"results  : {len(response['results'])} records")


COMMANDS = {
    "workloads": cmd_workloads,
    "trace-kernel": cmd_trace_kernel,
    "run": cmd_run,
    "pipeline": cmd_pipeline,
    "sweep": cmd_sweep,
    "calibrate": cmd_calibrate,
    "validate": cmd_validate,
    "figure": cmd_figure,
    "serve": cmd_serve,
    "query": cmd_query,
}


def main(argv=None, out=print):
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args, out)


if __name__ == "__main__":
    sys.exit(main())
