"""Command-line interface."""

import pytest

from repro.cli import build_parser, design_from_args, main
from repro.core.sweep import dma_design_space


def run_cli(argv):
    lines = []
    code = main(argv, out=lines.append)
    return code, "\n".join(str(line) for line in lines)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_workload_rejected(self):
        # Validation happens against the live registry (which can grow at
        # runtime via --kernel), not in argparse choices.
        with pytest.raises(SystemExit, match="unknown workload"):
            main(["run", "nonexistent-kernel"], out=lambda *a: None)

    def test_design_from_args(self):
        args = build_parser().parse_args(
            ["run", "aes-aes", "--lanes", "8", "--mem", "cache",
             "--cache-size", "16", "--no-pipelined-dma"])
        design = design_from_args(args)
        assert design.lanes == 8
        assert design.mem_interface == "cache"
        assert design.cache_size_kb == 16
        assert not design.pipelined_dma


class TestCommands:
    def test_list(self):
        code, text = run_cli(["list"])
        assert code == 0
        assert "aes-aes" in text
        assert "fft-transpose" in text

    def test_run_dma(self):
        code, text = run_cli(["run", "aes-aes", "--lanes", "2",
                              "--partitions", "2"])
        assert code == 0
        assert "EDP" in text
        assert "flush_only" in text
        assert "mm^2" in text

    def test_run_cache(self):
        code, text = run_cli(["run", "aes-aes", "--mem", "cache",
                              "--cache-size", "4"])
        assert code == 0
        assert "cache_miss_rate" in text

    def test_run_with_platform_flags(self):
        code, text = run_cli(["run", "kmp", "--bus-width", "64"])
        assert code == 0

    def test_sweep_quick(self):
        code, text = run_cli(["sweep", "aes-aes", "--density", "quick",
                              "--no-cache"])
        assert code == 0
        assert "Pareto" in text
        assert "wins for aes-aes" in text
        assert "sweep metrics" in text

    def test_sweep_cache_warm_run_evaluates_nothing(self, tmp_path):
        argv = ["sweep", "aes-aes", "--density", "quick",
                "--cache-dir", str(tmp_path)]
        code, cold = run_cli(argv)
        assert code == 0
        assert "cache hits   : 0" in cold
        code, warm = run_cli(argv)
        assert code == 0
        assert "evaluated    : 0" in warm

    def test_sweep_parallel_jobs(self, tmp_path):
        code, text = run_cli(["sweep", "aes-aes", "--density", "quick",
                              "--jobs", "2", "--cache-dir", str(tmp_path)])
        assert code == 0
        assert "jobs=2" in text

    def test_sweep_engine_flags_parsed(self):
        from repro.cli import sweep_options_from_args
        args = build_parser().parse_args(
            ["sweep", "aes-aes", "--jobs", "4", "--cache-dir", "/tmp/x"])
        options = sweep_options_from_args(args)
        assert (options["parallel"], options["cache_dir"]) == (4, "/tmp/x")
        args = build_parser().parse_args(["sweep", "aes-aes", "--no-cache"])
        options = sweep_options_from_args(args)
        assert (options["parallel"], options["cache_dir"]) == (None, None)
        args = build_parser().parse_args(["sweep", "aes-aes"])
        options = sweep_options_from_args(args)
        assert options["parallel"] is None
        assert options["cache_dir"] == ".sweep-cache"
        # calibrate has no fidelity flags, so no fidelity keywords
        args = build_parser().parse_args(["calibrate", "aes-aes"])
        assert "fidelity" not in sweep_options_from_args(args)

    def test_negative_jobs_rejected_at_parse_time(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["sweep", "aes-aes", "--jobs", "-1"])
        assert exc.value.code == 2
        assert "must be >= 0" in capsys.readouterr().err

    def test_stats_text_dump(self):
        code, text = run_cli(["stats", "gemm-ncubed"])
        assert code == 0
        assert "Begin Simulation Statistics" in text
        for name in ("soc.bus.bytes", "soc.dram.row_hit_rate",
                     "soc.cpu_cache.hits", "accel0.dma.bytes_moved",
                     "accel0.sched.nodes", "cpu0.lines_flushed"):
            assert name in text, name

    def test_stats_json_file(self, tmp_path):
        import json
        path = tmp_path / "stats.json"
        code, text = run_cli(["stats", "gemm-ncubed", "--no-text",
                              "--json", str(path)])
        assert code == 0
        assert "Begin Simulation Statistics" not in text
        doc = json.loads(path.read_text())
        assert doc["soc.sim.events"] > 0
        assert isinstance(doc["soc.dram.bank_conflict_ticks"], dict)

    def test_stats_json_stdout(self):
        code, text = run_cli(["stats", "gemm-ncubed", "--no-text",
                              "--json", "-"])
        assert code == 0
        import json
        doc = json.loads(text[text.index("{"):])
        assert "soc.bus.requests" in doc

    def test_stats_cache_design_covers_tlb(self):
        code, text = run_cli(["stats", "gemm-ncubed", "--mem", "cache",
                              "--cache-size", "4"])
        assert code == 0
        assert "accel0.tlb.miss_rate" in text
        assert "accel0.cache.misses" in text

    def test_trace_export(self, tmp_path):
        import json
        path = tmp_path / "trace.json"
        code, text = run_cli(["trace", "gemm-ncubed", "-o", str(path),
                              "--debug-flags", "dma,sched"])
        assert code == 0
        assert "perfetto" in text
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        rows = {e["args"]["name"] for e in events
                if e["ph"] == "M" and e["name"] == "thread_name"}
        assert len(rows) >= 5
        assert "accel0.dma" in rows
        assert "trace.dma" in rows
        assert any(e["ph"] == "X" for e in events)
        assert any(e["ph"] == "i" for e in events)

    def test_trace_flags_do_not_leak(self, tmp_path):
        from repro.obs import trace as obs_trace
        code, _text = run_cli(["trace", "gemm-ncubed", "-o",
                               str(tmp_path / "t.json"),
                               "--debug-flags", "all"])
        assert code == 0
        assert obs_trace.active_flags() == []

    @pytest.mark.parametrize("command", ["run", "stats", "trace",
                                         "profile"])
    def test_run_rejects_unknown_debug_flag(self, command, tmp_path):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError, match="bogus"):
            run_cli([command, "aes-aes", "--debug-flags", "bogus"]
                    + (["-o", str(tmp_path / "t.json")]
                       if command == "trace" else []))

    def test_profile_honours_debug_flags(self, capsys):
        code, _text = run_cli(["profile", "aes-aes", "--debug-flags", "dma"])
        assert code == 0
        assert ": dma0: " in capsys.readouterr().err

    def test_sweep_dump_stats(self, tmp_path):
        import json
        import os
        code, _text = run_cli(["sweep", "aes-aes", "--density", "quick",
                               "--no-cache", "--dump-stats", str(tmp_path)])
        assert code == 0
        dma_dir = tmp_path / "dma"
        cache_dir = tmp_path / "cache"
        assert dma_dir.is_dir() and cache_dir.is_dir()
        dma_files = sorted(os.listdir(dma_dir))
        assert dma_files[0] == "aes-aes-0000.json"
        doc = json.loads((dma_dir / dma_files[0]).read_text())
        assert doc["soc.sim.events"] > 0
        assert doc["design"] == dma_design_space("quick")[0].to_record()
        cache_doc = json.loads(
            (cache_dir / sorted(os.listdir(cache_dir))[0]).read_text())
        assert "accel0.tlb.misses" in cache_doc

    def test_run_with_check(self):
        code, text = run_cli(["run", "aes-aes", "--lanes", "2",
                              "--partitions", "2", "--check"])
        assert code == 0
        assert "check    : clean" in text
        assert "invariant checks" in text
        assert "0 leaks" in text

    def test_run_check_report(self, tmp_path):
        import json
        path = tmp_path / "health.json"
        # --check-report implies --check.
        code, text = run_cli(["run", "aes-aes", "--lanes", "2",
                              "--partitions", "2",
                              "--check-report", str(path)])
        assert code == 0
        assert "wrote health report" in text
        doc = json.loads(path.read_text())
        assert doc["enabled"] is True
        assert doc["invariant_checks"] > 0
        assert doc["violations"] == 0
        assert doc["audit"]["clean"] is True
        assert doc["audit"]["leaks"] == []

    def test_sweep_with_check(self):
        code, text = run_cli(["sweep", "aes-aes", "--density", "quick",
                              "--no-cache", "--check"])
        assert code == 0
        assert "check: clean across" in text
        assert "Pareto" in text

    def test_check_env_does_not_break_sweep_metrics(self, monkeypatch):
        # Env-only checking keeps the parallel/memoized engine (workers
        # inherit REPRO_CHECK); only an explicit --check forces serial.
        monkeypatch.setenv("REPRO_CHECK", "1")
        code, text = run_cli(["sweep", "aes-aes", "--density", "quick",
                              "--no-cache"])
        assert code == 0
        assert "sweep metrics" in text

    def test_stats_with_check_registers_counters(self):
        code, text = run_cli(["stats", "gemm-ncubed", "--check"])
        assert code == 0
        assert "check.invariant_checks" in text
        assert "check.audits" in text

    def test_validate_subset(self):
        code, text = run_cli(["validate", "aes-aes"])
        assert code == 0
        assert "average total error" in text

    def test_figure_fig2a(self):
        code, text = run_cli(["figure", "fig2a"])
        assert code == 0
        assert "md-knn" in text

    def test_figure_resets_sweep_options(self):
        from repro.core import figures
        code, _text = run_cli(["figure", "fig2a", "--jobs", "2"])
        assert code == 0
        assert figures._sweep_options == {}


class TestRobustSweepCLI:
    def test_robustness_flags_parsed(self):
        from repro.cli import sweep_options_from_args
        args = build_parser().parse_args(
            ["sweep", "aes-aes", "--on-error", "collect", "--retries", "2",
             "--timeout", "30", "--resume", "--fidelity", "auto",
             "--guard-band", "0.1"])
        assert sweep_options_from_args(args) == {
            "parallel": None, "cache_dir": ".sweep-cache",
            "on_error": "collect", "retries": 2, "timeout": 30.0,
            "fidelity": "auto", "guard_band": 0.1}
        args = build_parser().parse_args(["sweep", "aes-aes"])
        assert sweep_options_from_args(args) == {
            "parallel": None, "cache_dir": ".sweep-cache",
            "on_error": "raise", "retries": 0, "timeout": None,
            "fidelity": "exact", "guard_band": None}

    def test_resume_without_cache_rejected(self):
        from repro.cli import sweep_options_from_args
        args = build_parser().parse_args(
            ["sweep", "aes-aes", "--resume", "--no-cache"])
        with pytest.raises(SystemExit, match="--resume needs"):
            sweep_options_from_args(args)

    def test_collect_reports_failures_and_exits_2(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_FAULT", "raise@1")
        code, text = run_cli(["sweep", "aes-aes", "--density", "quick",
                              "--on-error", "collect",
                              "--cache-dir", str(tmp_path)])
        assert code == 2
        # one faulted point per design space (DMA and cache)
        assert "FAILED points: 2" in text
        assert "[error] RuntimeError" in text
        assert "failures     : 2" in text

    def test_resume_reevaluates_only_failed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_FAULT", "raise@1")
        code, _text = run_cli(["sweep", "aes-aes", "--density", "quick",
                               "--on-error", "collect",
                               "--cache-dir", str(tmp_path)])
        assert code == 2
        monkeypatch.delenv("REPRO_SWEEP_FAULT")
        code, text = run_cli(["sweep", "aes-aes", "--density", "quick",
                              "--resume", "--cache-dir", str(tmp_path)])
        assert code == 0
        assert "resume DMA" in text and "1 failed" in text
        assert "evaluated    : 2" in text  # exactly the two faulted points
        assert "Pareto" in text

    def test_fault_free_collect_matches_default_run(self, tmp_path):
        base = ["sweep", "aes-aes", "--density", "quick", "--no-cache"]
        code_a, text_a = run_cli(base)
        code_b, text_b = run_cli(base + ["--on-error", "collect",
                                         "--retries", "1"])
        assert code_a == code_b == 0

        def pareto(text):
            return [ln for ln in text.splitlines() if "EDP" in ln]
        assert pareto(text_a) == pareto(text_b)


class TestFidelityCLI:
    def test_calibrate_command(self, tmp_path):
        code, text = run_cli(["calibrate", "aes-aes", "--density", "quick",
                              "--cache-dir", str(tmp_path)])
        assert code == 0
        assert "error bound time" in text
        assert "dma:p1t1b0" in text
        assert "saved to" in text
        assert (tmp_path / "calibrations").is_dir()

    def test_calibrate_no_cache_notes_not_persisted(self):
        code, text = run_cli(["calibrate", "aes-aes", "--density", "quick",
                              "--no-cache"])
        assert code == 0
        assert "not persisted" in text

    def test_calibrate_unknown_workload_rejected(self):
        with pytest.raises(SystemExit, match="unknown workload"):
            run_cli(["calibrate", "not-a-kernel"])

    def test_sweep_auto_reuses_persisted_calibration(self, tmp_path):
        code, _text = run_cli(["calibrate", "aes-aes", "--density",
                               "quick", "--cache-dir", str(tmp_path)])
        assert code == 0
        code, text = run_cli(["sweep", "aes-aes", "--density", "quick",
                              "--fidelity", "auto",
                              "--cache-dir", str(tmp_path)])
        assert code == 0
        assert "no calibration" not in text
        assert "fast points" in text
        assert "confirmed exactly" in text
        assert "within the guard band" in text
        assert "Pareto" in text

    def test_sweep_auto_calibrates_on_the_fly(self, tmp_path):
        code, text = run_cli(["sweep", "aes-aes", "--density", "quick",
                              "--fidelity", "auto",
                              "--cache-dir", str(tmp_path)])
        assert code == 0
        assert "no calibration for aes-aes" in text
        assert "fast error" in text

    def test_sweep_fast_marks_frontier_predicted(self, tmp_path):
        code, text = run_cli(["sweep", "aes-aes", "--density", "quick",
                              "--fidelity", "fast",
                              "--cache-dir", str(tmp_path)])
        assert code == 0
        assert "(predicted)" in text
        assert "guard band" in text

    def test_fidelity_conflicts_with_exact_only_knobs(self):
        with pytest.raises(SystemExit, match="fidelity"):
            run_cli(["sweep", "aes-aes", "--density", "quick",
                     "--no-cache", "--fidelity", "auto", "--check"])


class TestServeCLI:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8642
        assert args.jobs == 1
        assert args.fidelity is None
        assert not args.verbose

    def test_serve_delegates_to_httpd(self, monkeypatch, tmp_path):
        import repro.serve.httpd as httpd
        captured = {}

        def fake_serve(cache_dir, **kwargs):
            captured["cache_dir"] = cache_dir
            captured.update(kwargs)

        monkeypatch.setattr(httpd, "serve", fake_serve)
        code, _text = run_cli(["serve", "--cache-dir", str(tmp_path),
                               "--port", "0", "--jobs", "2",
                               "--fidelity", "auto", "--verbose"])
        assert code == 0
        assert captured["cache_dir"] == str(tmp_path)
        assert captured["port"] == 0
        assert captured["jobs"] == 2
        assert captured["fidelity"] == "auto"
        assert captured["verbose"] is True

    def test_serve_uses_default_cache_dir(self, monkeypatch):
        import repro.serve.httpd as httpd
        from repro.core.sweeppool import DEFAULT_CACHE_DIR
        captured = {}
        monkeypatch.setattr(
            httpd, "serve",
            lambda cache_dir, **kwargs: captured.setdefault(
                "cache_dir", cache_dir))
        run_cli(["serve"])
        assert captured["cache_dir"] == DEFAULT_CACHE_DIR


@pytest.fixture
def live_server(tmp_path):
    """A real repro serve on an ephemeral port; yields its base URL."""
    import threading

    from repro.serve import SweepService
    from repro.serve.httpd import make_server

    service = SweepService(str(tmp_path))
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=5)


class TestQueryCLI:
    def test_query_health(self, live_server):
        code, text = run_cli(["query", "health", "--server", live_server])
        assert code == 0
        assert "ok" in text

    def test_query_workloads(self, live_server):
        code, text = run_cli(["query", "workloads",
                              "--server", live_server])
        assert code == 0
        assert "aes-aes" in text

    def test_query_edp_quick_grid(self, live_server):
        code, text = run_cli(["query", "edp", "aes-aes",
                              "--space", "dma", "--density", "quick",
                              "--server", live_server, "--json", "-"])
        assert code == 0
        assert "edp_optimal" in text

    def test_query_json_file(self, live_server, tmp_path):
        import json
        path = tmp_path / "health.json"
        code, text = run_cli(["query", "health", "--server", live_server,
                              "--json", str(path)])
        assert code == 0
        assert f"wrote response to {path}" in text
        assert json.loads(path.read_text())["status"] == "ok"

    def test_query_server_from_env(self, live_server, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_URL", live_server)
        code, text = run_cli(["query", "health"])
        assert code == 0
        assert "ok" in text

    def test_query_result_kind_needs_workload(self, live_server):
        with pytest.raises(SystemExit, match="needs a workload"):
            run_cli(["query", "edp", "--server", live_server])

    def test_query_unreachable_server_exits_cleanly(self):
        import socket
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()
        with pytest.raises(SystemExit, match="cannot reach"):
            run_cli(["query", "health",
                     "--server", f"http://127.0.0.1:{port}"])

    def test_query_service_error_exits_cleanly(self, live_server):
        with pytest.raises(SystemExit, match="query failed"):
            run_cli(["query", "sweep", "aes-aes", "--fidelity", "fast",
                     "--space", "dma", "--density", "quick",
                     "--server", live_server])


class TestPipelineCommand:
    def test_pipeline_dma(self, tmp_path):
        trace_path = tmp_path / "pipe.json"
        code, text = run_cli(["pipeline", "aes-aes", "kmp",
                              "--buffer-bytes", "512", "--check",
                              "--solo-baseline",
                              "--trace", str(trace_path)])
        assert code == 0
        assert "aes-aes -> kmp" in text
        assert "makespan" in text
        assert "link0" in text
        assert "speedup" in text
        assert "check    : clean" in text
        assert trace_path.exists()

    def test_pipeline_cache(self):
        code, text = run_cli(["pipeline", "aes-aes", "kmp",
                              "--handoff", "cache"])
        assert code == 0
        assert "aliased regions" in text

    def test_pipeline_json_export(self, tmp_path):
        import json
        path = tmp_path / "result.json"
        code, _text = run_cli(["pipeline", "aes-aes", "kmp", "viterbi",
                               "--buffer-bytes", "256",
                               "--json", str(path)])
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["depth"] == 3
        assert len(payload["links"]) == 2
        assert all(l["ordering_clean"] for l in payload["links"])

    def test_pipeline_needs_two_stages(self):
        with pytest.raises(SystemExit, match="at least 2"):
            run_cli(["pipeline", "aes-aes"])

    def test_pipeline_rejects_tiny_buffer(self):
        with pytest.raises(SystemExit, match="buffer_bytes"):
            run_cli(["pipeline", "aes-aes", "kmp",
                     "--buffer-bytes", "16"])
