"""The sweep engine's dispatch rule: where ``run_sweep_pool`` evaluates.

Pending points run on the warm worker pool when the sweep asks for more
than one worker or a killable ``timeout`` and the parent can start
workers; otherwise they run inline, as does any sweep given its own
``evaluate`` task runner.  Pool tests use the ``fork`` start method to
skip interpreter start-up per worker.
"""

import math
import os
import sys
import warnings

import pytest

import repro.core.sweeppool as sweeppool
from repro.core.export import results_to_json
from repro.core.soc import run_design
from repro.core.sweep import dma_design_space, run_sweep
from repro.core.sweeppool import (
    FailedPoint,
    SweepMetrics,
    run_sweep_pool,
)

WORKLOAD = "aes-aes"


def quick_designs(n=3):
    return dma_design_space("quick")[:n]


def _raising(task):
    raise RuntimeError("boom")


class TestInlineEngine:
    def test_matches_run_design(self):
        designs = quick_designs(2)
        results = run_sweep_pool(WORKLOAD, designs)
        expected = [run_design(WORKLOAD, d) for d in designs]
        assert results_to_json(results) == results_to_json(expected)

    def test_custom_evaluate_runs_inline_on_task_tuples(self):
        designs = quick_designs(2)
        tasks = []

        def evaluate(task):
            tasks.append(task)
            return task[0], f"result-{task[0]}", 0.0

        metrics = SweepMetrics()
        results = run_sweep_pool(WORKLOAD, designs, jobs=2,
                                 mp_context="fork", fault="raise@5",
                                 evaluate=evaluate, metrics=metrics)
        assert results == ["result-0", "result-1"]
        assert [(index, wl, design, attempt)
                for index, wl, design, _cfg, attempt, _faults in tasks] \
            == [(0, WORKLOAD, designs[0], 1), (1, WORKLOAD, designs[1], 1)]
        assert tasks[0][5] == {5: ("raise", sys.maxsize)}
        assert metrics.jobs == 1 and metrics.workers_spawned == 0

    def test_default_evaluate_matches_serial(self):
        designs = quick_designs(2)
        results = run_sweep_pool(WORKLOAD, designs,
                                 evaluate=sweeppool._evaluate_task)
        assert results_to_json(results) == \
            results_to_json(run_sweep(WORKLOAD, designs))

    def test_nonrobust_error_propagates_raw(self):
        with pytest.raises(RuntimeError, match="boom"):
            run_sweep_pool(WORKLOAD, quick_designs(1), evaluate=_raising)

    def test_robust_error_becomes_failed_point(self):
        metrics = SweepMetrics()
        results = run_sweep_pool(WORKLOAD, quick_designs(1),
                                 evaluate=_raising, on_error="collect",
                                 metrics=metrics)
        assert isinstance(results[0], FailedPoint)
        assert results[0].kind == "error" and "boom" in results[0].error
        assert metrics.failures == 1

    def test_robust_retries_then_succeeds(self):
        attempts = []

        def flaky(task):
            attempts.append(task[4])
            if len(attempts) < 3:
                raise RuntimeError("flaky")
            return task[0], "ok", 0.0

        metrics = SweepMetrics()
        results = run_sweep_pool(WORKLOAD, quick_designs(1), evaluate=flaky,
                                 retries=2, metrics=metrics)
        assert attempts == [1, 2, 3]
        assert results == ["ok"]
        assert metrics.retries == 2 and metrics.failures == 0

    def test_inline_timeout_warns_unenforced(self):
        with pytest.warns(RuntimeWarning, match="without timeout"):
            results = run_sweep_pool(WORKLOAD, quick_designs(1),
                                     timeout=60.0,
                                     evaluate=sweeppool._evaluate_task)
        assert len(results) == 1

    def test_plain_run_sweep_warns_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = run_sweep(WORKLOAD, quick_designs(2))
        assert [r.workload for r in results] == [WORKLOAD, WORKLOAD]


class TestDispatchRule:
    def test_single_job_runs_inline(self):
        metrics = SweepMetrics()
        run_sweep_pool(WORKLOAD, quick_designs(2), jobs=1,
                       mp_context="fork", metrics=metrics)
        assert metrics.jobs == 1 and metrics.workers_spawned == 0

    def test_jobs_clamped_by_pending(self):
        metrics = SweepMetrics()
        run_sweep_pool(WORKLOAD, quick_designs(2), jobs=8,
                       mp_context="fork", metrics=metrics)
        assert metrics.jobs == 2 == metrics.workers_spawned

    def test_timeout_needs_a_worker_even_with_one_job(self):
        metrics = SweepMetrics()
        run_sweep_pool(WORKLOAD, quick_designs(2), jobs=1,
                       mp_context="fork", timeout=600.0, metrics=metrics)
        assert metrics.jobs == 1 and metrics.workers_spawned == 1

    def test_fully_cached_sweep_spawns_no_workers(self, tmp_path):
        designs = quick_designs(2)
        run_sweep_pool(WORKLOAD, designs, cache_dir=str(tmp_path))
        metrics = SweepMetrics()
        run_sweep_pool(WORKLOAD, designs, jobs=4, mp_context="fork",
                       cache_dir=str(tmp_path), metrics=metrics)
        assert metrics.cache_hits == 2 and metrics.evaluated == 0
        assert metrics.jobs == 1 and metrics.workers_spawned == 0

    def test_spawn_unsafe_parent_runs_inline(self, monkeypatch):
        monkeypatch.setattr(sweeppool, "_spawn_can_reimport_main",
                            lambda: False)
        spawn = SweepMetrics()
        run_sweep_pool(WORKLOAD, quick_designs(2), jobs=2,
                       mp_context="spawn", metrics=spawn)
        assert spawn.jobs == 1 and spawn.workers_spawned == 0
        # fork re-imports nothing, so the guard does not apply to it.
        fork = SweepMetrics()
        run_sweep_pool(WORKLOAD, quick_designs(2), jobs=2,
                       mp_context="fork", metrics=fork)
        assert fork.jobs == 2 == fork.workers_spawned


class TestPoolCollapse:
    def test_inline_fallback_warns_it_cannot_enforce_timeout(
            self, monkeypatch):
        def no_workers(ctx):
            raise OSError("cannot fork")

        monkeypatch.setattr(sweeppool, "_start_worker", no_workers)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results = run_sweep_pool(WORKLOAD, quick_designs(2), jobs=2,
                                     mp_context="fork", timeout=60.0,
                                     on_error="collect")
        messages = [str(w.message) for w in caught]
        assert any("falling back to serial" in m for m in messages)
        assert any("without timeout enforcement" in m for m in messages)
        assert results_to_json(results) == \
            results_to_json(run_sweep(WORKLOAD, quick_designs(2)))

    def test_fallback_continues_attempts_from_their_offset(
            self, monkeypatch):
        # One worker starts, hard-exits on point 0's first attempt and
        # cannot be replaced: the pool collapses with point 0 queued at
        # attempt 2, and the inline fallback must resume it there.
        real_start, started = sweeppool._start_worker, []

        def one_worker(ctx):
            if started:
                raise OSError("cannot fork")
            started.append(1)
            return real_start(ctx)

        parent, inline = os.getpid(), []
        real_evaluate = sweeppool._evaluate_task

        def spy(task):
            if os.getpid() != parent:
                return real_evaluate(task)
            inline.append((task[0], task[4]))
            return real_evaluate(task[:5] + ({},))

        monkeypatch.setattr(sweeppool, "_start_worker", one_worker)
        monkeypatch.setattr(sweeppool, "_evaluate_task", spy)
        metrics = SweepMetrics()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            results = run_sweep_pool(WORKLOAD, quick_designs(), jobs=1,
                                     mp_context="fork", fault="exit@0*1",
                                     timeout=600.0, retries=1,
                                     on_error="collect", metrics=metrics)
        assert inline == [(0, 2), (1, 1), (2, 1)]
        assert metrics.retries == 1 and metrics.failures == 0
        assert not any(isinstance(r, FailedPoint) for r in results)


class TestRobustInputs:
    @pytest.mark.parametrize("timeout", [0, 0.0, -1.0, math.inf, math.nan,
                                         "5"])
    def test_bad_timeout_rejected_before_any_point(self, timeout):
        metrics = SweepMetrics()
        with pytest.raises(ValueError, match="timeout"):
            run_sweep_pool(WORKLOAD, quick_designs(1), mp_context="fork",
                           timeout=timeout, metrics=metrics)
        assert metrics.points == 0 and metrics.workers_spawned == 0

    @pytest.mark.parametrize("retries", [-3, 1.5, True, None])
    def test_bad_retries_rejected_before_any_point(self, retries):
        metrics = SweepMetrics()
        with pytest.raises(ValueError, match="retries"):
            run_sweep_pool(WORKLOAD, quick_designs(1), retries=retries,
                           metrics=metrics)
        assert metrics.points == 0 and metrics.evaluated == 0

    @pytest.mark.parametrize("flag,value", [("--timeout", "0"),
                                            ("--timeout", "-2"),
                                            ("--timeout", "inf"),
                                            ("--retries", "-3")])
    def test_cli_rejects_bad_values_with_usage(self, flag, value, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit) as exc:
            main(["sweep", WORKLOAD, "--density", "quick", "--no-cache",
                  flag, value], out=lambda *a: None)
        assert exc.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err


class TestDiagnosticDispatch:
    def test_diagnostic_sweep_runs_inline_and_uncached(self, tmp_path):
        from repro.sim.profiling import EventProfiler
        metrics = SweepMetrics()
        dump = tmp_path / "stats"
        results = run_sweep(WORKLOAD, quick_designs(2), parallel=2,
                            cache_dir=str(tmp_path / "cache"),
                            profiler=EventProfiler(), dump_stats=str(dump),
                            metrics=metrics)
        assert len(results) == 2
        assert metrics.jobs == 1 and metrics.workers_spawned == 0
        assert metrics.evaluated == 2
        assert len(list(dump.iterdir())) == 2
        assert not (tmp_path / "cache").exists()

    def test_diagnostic_sweep_rejects_an_explicit_evaluate(self):
        from repro.sim.profiling import EventProfiler
        with pytest.raises(ValueError, match="evaluate"):
            run_sweep(WORKLOAD, quick_designs(1), profiler=EventProfiler(),
                      evaluate=sweeppool._evaluate_task)

    def test_run_sweep_forwards_evaluate(self):
        seen = []

        def evaluate(task):
            seen.append(task[0])
            return sweeppool._evaluate_task(task)

        results = run_sweep(WORKLOAD, quick_designs(2), evaluate=evaluate)
        assert seen == [0, 1] and len(results) == 2


def _figures_sweep(cal, **sweep):
    from repro.core import figures
    figures.set_sweep_options(**sweep)
    try:
        return figures._sweep(WORKLOAD, quick_designs())
    finally:
        figures.set_sweep_options()


def _sweep_layers():
    from repro.core.calibrate import calibrate_workload
    from repro.core.pareto import sweep_pareto
    from repro.core.scenarios import (
        SCENARIOS,
        edp_improvement,
        run_scenario_optimum,
    )
    return {
        "sweep_pareto": lambda cal, **sweep: sweep_pareto(
            WORKLOAD, quick_designs(), **sweep),
        "run_scenario_optimum": lambda cal, **sweep: run_scenario_optimum(
            WORKLOAD, SCENARIOS["dma32"], density="quick", **sweep),
        "edp_improvement": lambda cal, **sweep: edp_improvement(
            WORKLOAD, SCENARIOS["dma32"], density="quick", **sweep),
        "calibrate_workload": lambda cal, **sweep: calibrate_workload(
            WORKLOAD, density="quick", designs=quick_designs(), save=False,
            **sweep),
        "figures": _figures_sweep,
        "auto run_sweep": lambda cal, **sweep: run_sweep(
            WORKLOAD, quick_designs(), fidelity="auto", calibration=cal,
            **sweep),
    }


@pytest.fixture(scope="module")
def quick_cal():
    from repro.core.calibrate import calibrate_workload
    return calibrate_workload(WORKLOAD, density="quick",
                              designs=quick_designs(), save=False)


class TestOptionForwarding:
    FAULT = "raise@0*1"  # first attempt of point 0 fails; the retry heals

    @pytest.mark.parametrize("layer", sorted(_sweep_layers()))
    def test_engine_options_reach_the_engine(self, layer, quick_cal,
                                             monkeypatch):
        engine_calls = []
        real = sweeppool.run_sweep_pool

        def counting(*args, **kwargs):
            engine_calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(sweeppool, "run_sweep_pool", counting)
        metrics = SweepMetrics()
        progress = []
        _sweep_layers()[layer](
            quick_cal, fault=self.FAULT, retries=1, on_error="collect",
            metrics=metrics,
            progress=lambda done, total: progress.append(done))
        # Each engine call heals its point 0 with exactly one retry.
        assert engine_calls
        assert metrics.retries == len(engine_calls)
        assert metrics.failures == 0
        assert progress

    def test_unknown_sweep_option_fails_where_it_is_set(self, quick_cal):
        from repro.core import figures
        with pytest.raises(TypeError, match="bogus"):
            figures.set_sweep_options(bogus=1)
        with pytest.raises(TypeError):
            figures.set_sweep_options(jobs=2)  # run_sweep spells parallel=
        assert figures._sweep_options == {}
        # The fast tier never reaches the pool, yet still rejects it.
        with pytest.raises(TypeError, match="bogus"):
            run_sweep(WORKLOAD, quick_designs(), fidelity="fast",
                      calibration=quick_cal, bogus=1)
