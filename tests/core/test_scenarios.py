"""The four design scenarios and EDP-improvement analysis."""

import pytest

from repro.core.config import DesignPoint
from repro.core.scenarios import (
    SCENARIOS,
    edp_improvement,
    isolated_sweep,
    naive_design_for,
    run_isolated,
    run_scenario_optimum,
)


class TestScenarioDefinitions:
    def test_four_scenarios(self):
        assert set(SCENARIOS) == {"isolated", "dma32", "cache32", "cache64"}

    def test_bus_widths(self):
        assert SCENARIOS["cache32"].soc_config().bus_width_bits == 32
        assert SCENARIOS["cache64"].soc_config().bus_width_bits == 64

    def test_design_spaces_match_interface(self):
        assert all(d.is_dma for d in SCENARIOS["dma32"].design_space("quick"))
        assert all(d.mem_interface == "cache"
                   for d in SCENARIOS["cache32"].design_space("quick"))


class TestIsolatedRuns:
    def test_isolated_result_is_all_compute(self):
        r = run_isolated("aes-aes", DesignPoint(lanes=4, partitions=4))
        assert r.breakdown["compute_only"] == r.total_ticks
        assert r.breakdown["flush_only"] == 0
        assert r.stats["isolated"]

    def test_isolated_result_reports_area(self):
        from repro.aladdin.accelerator import Accelerator
        from repro.workloads import cached_trace
        d = DesignPoint(lanes=4, partitions=4)
        r = run_isolated("aes-aes", d)
        direct = Accelerator(cached_trace("aes-aes"), d.lanes, d.partitions,
                             d.spad_ports).run_isolated()
        assert r.area_mm2 == direct.area_mm2 > 0

    def test_isolated_sweep_covers_space(self):
        results = isolated_sweep("aes-aes", "quick")
        assert len(results) == 9

    def test_isolated_ignores_system(self):
        """An isolated run must be faster than any co-designed run of the
        same design (it skips all data movement)."""
        from repro.core.soc import run_design
        d = DesignPoint(lanes=4, partitions=4)
        iso = run_isolated("gemm-ncubed", d)
        co = run_design("gemm-ncubed", d)
        assert iso.total_ticks < co.total_ticks


class TestNaiveTransplant:
    def test_dma_keeps_parallelism(self):
        iso = DesignPoint(lanes=16, partitions=16)
        naive = naive_design_for("gemm-ncubed", iso, SCENARIOS["dma32"])
        assert naive.lanes == 16
        assert naive.partitions == 16
        assert naive.pipelined_dma and naive.dma_triggered_compute

    def test_cache_sized_to_footprint(self):
        iso = DesignPoint(lanes=16, partitions=16)
        naive = naive_design_for("gemm-ncubed", iso, SCENARIOS["cache32"])
        assert naive.mem_interface == "cache"
        # gemm footprint = 3 x 2 KB = 6 KB -> smallest size >= 6 KB is 8 KB.
        assert naive.cache_size_kb == 8

    def test_cache_ports_match_isolated_bandwidth(self):
        iso = DesignPoint(lanes=8, partitions=16)
        naive = naive_design_for("gemm-ncubed", iso, SCENARIOS["cache32"])
        assert naive.cache_ports == 8  # largest allowed <= 16


class TestOptimaAndImprovement:
    def test_scenario_optimum_quick(self):
        opt, results = run_scenario_optimum("aes-aes", SCENARIOS["dma32"],
                                            density="quick")
        assert opt in results
        assert all(opt.edp <= r.edp for r in results)

    def test_edp_improvement_structure(self):
        imp = edp_improvement("aes-aes", SCENARIOS["dma32"], density="quick")
        assert imp["improvement"] == pytest.approx(
            imp["naive_edp"] / imp["codesigned_edp"])
        assert imp["improvement"] >= 1.0  # optimum can't be worse than naive*

    def test_codesign_beats_naive_for_cache_scenarios(self):
        """The paper's co-design claim, on one representative workload."""
        imp = edp_improvement("spmv-crs", SCENARIOS["cache32"],
                              density="quick")
        assert imp["improvement"] > 1.0


class TestPipelineFamily:
    def test_family_covers_the_grid(self):
        from repro.core.scenarios import run_pipeline_family
        rows = run_pipeline_family(["aes-aes", "kmp", "viterbi"],
                                   depths=(2, 3),
                                   buffer_bytes=(256, 512),
                                   handoffs=("dma", "cache"),
                                   check=True)
        # Per depth: 2 DMA buffer sizes + 1 cache row.
        assert len(rows) == 2 * 3
        assert {r["depth"] for r in rows} == {2, 3}
        assert all(r["ordering_clean"] for r in rows)
        assert all(r["makespan_ticks"] > 0 for r in rows)
        cache_rows = [r for r in rows if r["handoff"] == "cache"]
        assert all(r["buffer_bytes"] is None for r in cache_rows)

    def test_family_records_backpressure_and_speedup(self):
        from repro.core.scenarios import run_pipeline_family
        rows = run_pipeline_family(["aes-aes", "kmp"], depths=(2,),
                                   buffer_bytes=(512,), handoffs=("dma",))
        row = rows[0]
        assert row["speedup_vs_serial"] == pytest.approx(
            row["serial_ticks"] / row["makespan_ticks"])
        assert len(row["stage_ticks"]) == 2
        assert row["consumer_parks"] >= 1

    def test_family_progress_callback(self):
        from repro.core.scenarios import run_pipeline_family
        seen = []
        run_pipeline_family(["aes-aes", "kmp"], depths=(2,),
                            buffer_bytes=(256,), handoffs=("dma",),
                            progress=lambda i, n, row: seen.append((i, n)))
        assert seen == [(1, 1)]

    def test_double_buffer_axis_skips_cache(self):
        from repro.core.scenarios import run_pipeline_family
        rows = run_pipeline_family(["aes-aes", "kmp"], depths=(2,),
                                   buffer_bytes=(512,),
                                   handoffs=("dma", "cache"),
                                   double_buffer=(False, True))
        dma = [r for r in rows if r["handoff"] == "dma"]
        cache = [r for r in rows if r["handoff"] == "cache"]
        assert {r["double_buffer"] for r in dma} == {False, True}
        assert {r["double_buffer"] for r in cache} == {False}
