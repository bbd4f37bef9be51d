"""Tiered-fidelity sweeps: calibration, fast prediction, and triage."""

import json
import os

import pytest

from repro.core import calibrate
from repro.core.calibrate import (
    CALIBRATION_VERSION,
    Calibration,
    FastResult,
    calibrate_workload,
    config_hash,
    design_class,
    predicted_frontier,
    prune_dominated,
    run_sweep_tiered,
)
from repro.aladdin.trace import TraceBuilder
from repro.core.config import DesignPoint, SoCConfig
from repro.core.export import result_record
from repro.core.pareto import edp_optimal, pareto_frontier
from repro.core.soc import run_design
from repro.core.sweep import run_sweep
from repro.core.sweeppool import SweepMetrics
from repro.errors import CalibrationError
from repro.workloads.registry import (
    Workload,
    register_workload,
    unregister_workload,
)
from tests.properties._fast_golden import (
    WORKLOAD,
    capture,
    load_golden_fast,
    quick_grid,
)

#: DMA designs whose (lanes, partitions) the quick grid does not
#: tabulate: their compute phase is interpolated, their area is not.
OFF_TABLE = (DesignPoint(lanes=3, partitions=5),
             DesignPoint(lanes=16, partitions=2))


@pytest.fixture(scope="module")
def cal():
    return calibrate_workload(WORKLOAD, density="quick",
                              designs=quick_grid(), save=False)


@pytest.fixture(scope="module")
def exact_results():
    return run_sweep(WORKLOAD, quick_grid())


class _Pt:
    """Stub with just the axes the triage reads."""

    def __init__(self, ticks, power):
        self.total_ticks = ticks
        self.power_mw = power


class TestTriageUnits:
    def test_predicted_frontier_picks_nondominated(self):
        fast = [_Pt(1, 9), _Pt(2, 5), _Pt(3, 6), _Pt(4, 1)]
        assert predicted_frontier(fast, [0, 1, 2, 3]) == [0, 1, 3]

    def test_predicted_frontier_always_includes_none(self):
        fast = [_Pt(1, 1), None, _Pt(2, 2)]
        assert predicted_frontier(fast, [0, 1, 2]) == [0, 1]

    def test_prune_requires_strict_dominance_past_the_band(self):
        # Optimistic value of (110, 110) at band 0.10 is (100, 100):
        # an exact (100, 100) ties, so the candidate must survive.
        fast = [_Pt(110, 110)]
        assert prune_dominated(fast, [0], [(100.0, 100.0)], 0.10) == [0]
        assert prune_dominated(fast, [0], [(99.0, 99.0)], 0.10) == []

    def test_prune_per_axis_bands(self):
        # Loose time band, tight power band: the same exact point prunes
        # under (0.5, 0.0) but not under the pooled scalar 0.5.
        fast = [_Pt(150, 104)]
        exact = [(99.0, 103.0)]
        assert prune_dominated(fast, [0], exact, 0.5) == [0]
        assert prune_dominated(fast, [0], exact, (0.5, 0.0)) == []

    def test_prune_never_drops_none(self):
        assert prune_dominated([None], [0], [(0.0, 0.0)], 0.1) == [0]


class TestCalibrationArtifact:
    def test_classes_cover_the_grid(self, cal):
        expected = {design_class(d) for d in quick_grid()}
        assert set(cal.classes) | set(cal.rejected) == expected

    def test_bounds_cover_in_sample_errors(self, cal):
        assert cal.time_bound >= max(f.time_error_max
                                     for f in cal.classes.values())
        assert cal.power_bound >= max(f.power_error_max
                                      for f in cal.classes.values())
        assert cal.error_bound == max(cal.time_bound, cal.power_bound)

    def test_predict_returns_fast_result(self, cal):
        r = cal.predict(quick_grid()[0])
        assert isinstance(r, FastResult)
        assert r.fidelity == "fast"
        assert r.total_ticks >= 1
        assert r.power_mw > 0
        assert r.edp > 0

    def test_round_trip_persistence(self, cal, tmp_path):
        path = cal.save(str(tmp_path))
        assert os.path.exists(path)
        loaded = Calibration.load(str(tmp_path), WORKLOAD)
        assert loaded is not None
        assert loaded.time_bound == cal.time_bound
        assert loaded.power_bound == cal.power_bound
        assert sorted(loaded.classes) == sorted(cal.classes)
        assert sorted(loaded.rejected) == sorted(cal.rejected)
        d = quick_grid()[0]
        assert loaded.predict(d).total_ticks == cal.predict(d).total_ticks

    def test_load_rejects_version_mismatch(self, cal, tmp_path):
        path = cal.save(str(tmp_path))
        with open(path) as f:
            doc = json.load(f)
        doc["version"] = CALIBRATION_VERSION - 1
        with open(path, "w") as f:
            json.dump(doc, f)
        assert Calibration.load(str(tmp_path), WORKLOAD) is None

    def test_load_rejects_other_platform(self, cal, tmp_path):
        cal.save(str(tmp_path))
        other = SoCConfig(bus_width_bits=64)
        assert config_hash(other) != config_hash(SoCConfig())
        assert Calibration.load(str(tmp_path), WORKLOAD, other) is None

    def test_load_tolerates_corruption(self, cal, tmp_path):
        path = cal.save(str(tmp_path))
        with open(path, "w") as f:
            f.write("{not json")
        assert Calibration.load(str(tmp_path), WORKLOAD) is None

    def test_load_missing_is_none(self, tmp_path):
        assert Calibration.load(str(tmp_path), WORKLOAD) is None


class TestFastTierPinned:
    def test_predictions_match_golden(self, cal):
        """Every tabulated prediction is bit-identical to the snapshot."""
        assert capture(cal) == load_golden_fast()

    def test_compute_table_holds_only_ticks(self, cal):
        assert CALIBRATION_VERSION == 5
        assert all(set(entry) == {"ticks"}
                   for entry in cal.compute_table.values())

    def test_fast_area_equals_exact_area(self, cal, exact_results):
        """Area is priced from the same record in both tiers, on and off
        the compute table."""
        for design, exact in zip(quick_grid(), exact_results):
            assert cal.predict(design).area_mm2 == exact.area_mm2
        for design in OFF_TABLE:
            assert cal.predict(design).area_mm2 == \
                run_design(WORKLOAD, design).area_mm2

    def test_fast_result_has_no_fake_breakdown(self, cal):
        r = cal.predict(quick_grid()[0])
        assert r.energy is None
        assert r.energy_pj > 0
        assert r.area.fu > 0
        record = result_record(r)
        assert record["energy_breakdown_pj"] is None
        assert record["energy_pj"] == r.energy_pj
        json.dumps(record)


def _dot_builder(n):
    def build():
        tb = TraceBuilder("stale-dot")
        tb.array("x", n, 4, kind="input", init=[1.0] * n)
        tb.array("y", n, 4, kind="input", init=[2.0] * n)
        tb.array("out", 1, 4, kind="output")
        acc = 0.0
        for i in range(n):
            with tb.iteration(i):
                acc = tb.fadd(acc, tb.fmul(tb.load("x", i),
                                           tb.load("y", i)))
        tb.store("out", 0, acc)
        return tb
    return build


class TestReRegistration:
    def test_fast_tier_follows_a_re_registered_kernel(self):
        """Fast-tier memos live on the trace, so replacing a kernel under
        the same name can never serve its predecessor's counts."""
        name = "stale-dot"
        design = DesignPoint(lanes=2, partitions=2, mem_interface="cache")
        try:
            for n in (256, 512):
                register_workload(Workload.from_builder(
                    name, _dot_builder(n), verify=lambda trace: None),
                    replace=True)
                counts = calibrate.functional_cache_profile(
                    name, 4096, 64, 4)
                assert counts["reads"] == 2 * n
                _phases, _counts, activity = calibrate._design_inputs(
                    name, design, SoCConfig())
                assert activity.tlb.hits + activity.tlb.misses == 2 * n + 1
        finally:
            unregister_workload(name)


class TestErrorWithinBound:
    def test_fast_error_within_calibrated_bounds(self, cal, exact_results):
        """The acceptance property: on the very grid it was calibrated
        against, every covered prediction is within the per-axis bounds."""
        from repro.core.validation import relative_error
        for design, exact in zip(quick_grid(), exact_results):
            fast = cal.predict(design)
            if fast is None:
                continue
            assert relative_error(fast.total_ticks,
                                  exact.total_ticks) <= cal.time_bound
            assert relative_error(fast.power_mw,
                                  exact.power_mw) <= cal.power_bound


class TestTieredSweep:
    def test_auto_frontier_and_edp_match_exact(self, cal, exact_results):
        metrics = SweepMetrics()
        grid = quick_grid()
        auto = run_sweep(WORKLOAD, grid, fidelity="auto", calibration=cal,
                         metrics=metrics)
        assert len(auto) == len(grid)
        confirmed = [r for r in auto if r.fidelity == "exact"]
        assert [r.design.key() for r in pareto_frontier(confirmed)] == \
            [r.design.key() for r in pareto_frontier(exact_results)]
        assert edp_optimal(confirmed).design.key() == \
            edp_optimal(exact_results).design.key()
        assert metrics.fast_points == len(grid)
        assert metrics.confirmed == len(confirmed)
        assert metrics.pruned == len(grid) - len(confirmed)
        assert metrics.fast_time_error_max <= cal.time_bound
        assert metrics.fast_power_error_max <= cal.power_bound

    def test_fast_mode_predicts_everything(self, cal):
        grid = quick_grid()
        metrics = SweepMetrics()
        results = run_sweep(WORKLOAD, grid, fidelity="fast",
                            calibration=cal, metrics=metrics)
        assert len(results) == len(grid)
        assert all(r.fidelity == "fast" for r in results)
        assert metrics.fast_points == len(grid)
        assert metrics.confirmed == 0

    def test_metrics_registry_export(self, cal):
        from repro.obs.stats import StatRegistry
        metrics = SweepMetrics()
        run_sweep(WORKLOAD, quick_grid()[:8], fidelity="fast",
                  calibration=cal, metrics=metrics)
        reg = StatRegistry()
        metrics.reg_stats(reg)
        assert reg.value("sweep.fast_points") == 8
        assert reg.value("sweep.pruned") == 0

    def test_guard_band_scalar_override(self, cal):
        auto = run_sweep(WORKLOAD, quick_grid(), fidelity="auto",
                         calibration=cal, guard_band=cal.error_bound)
        confirmed = [r for r in auto if r.fidelity == "exact"]
        assert confirmed  # frontier is always confirmed

    def test_bad_fidelity_rejected(self, cal):
        with pytest.raises(ValueError, match="fidelity"):
            run_sweep(WORKLOAD, quick_grid()[:2], fidelity="wrong")

    def test_exact_only_knobs_rejected(self, cal):
        with pytest.raises(ValueError, match="exact"):
            run_sweep(WORKLOAD, quick_grid()[:2], fidelity="fast",
                      calibration=cal, check=True)

    def test_missing_calibration_raises(self, tmp_path):
        with pytest.raises(CalibrationError, match="no calibration"):
            run_sweep_tiered(WORKLOAD, quick_grid()[:2],
                             cache_dir=str(tmp_path))

    def test_wrong_workload_calibration_raises(self, cal):
        with pytest.raises(CalibrationError, match="aes-aes"):
            run_sweep_tiered("gemm-ncubed", quick_grid()[:2],
                             calibration=cal)

    def test_wrong_platform_calibration_raises(self, cal):
        with pytest.raises(CalibrationError, match="SoCConfig"):
            run_sweep_tiered(WORKLOAD, quick_grid()[:2],
                             cfg=SoCConfig(bus_width_bits=64),
                             calibration=cal)


class TestRejection:
    def test_all_rejected_degrades_to_exact(self, monkeypatch,
                                            exact_results):
        """With every fit rejected the fast tier is vacuous, but auto
        mode must still terminate and return the exact answer."""
        monkeypatch.setattr(calibrate, "MAX_FIT_ERROR", -1.0)
        grid = quick_grid()
        cal = calibrate_workload(WORKLOAD, density="quick", designs=grid,
                                 save=False)
        assert not cal.classes
        assert set(cal.rejected) == {design_class(d) for d in grid}
        assert cal.time_bound == calibrate.MAX_ERROR_BOUND
        assert all(cal.predict(d) is None for d in grid)
        metrics = SweepMetrics()
        auto = run_sweep_tiered(WORKLOAD, grid, calibration=cal,
                                metrics=metrics)
        assert metrics.pruned == 0
        assert [r.design.key() for r in pareto_frontier(auto)] == \
            [r.design.key() for r in pareto_frontier(exact_results)]

    def test_fast_mode_refuses_rejected_classes(self, monkeypatch):
        monkeypatch.setattr(calibrate, "MAX_FIT_ERROR", -1.0)
        grid = quick_grid()[:4]
        cal = calibrate_workload(WORKLOAD, density="quick", designs=grid,
                                 save=False)
        with pytest.raises(CalibrationError, match="rejected"):
            run_sweep_tiered(WORKLOAD, grid, fidelity="fast",
                             calibration=cal)


class TestDesignClass:
    def test_dma_classes_split_by_optimization(self):
        base = DesignPoint(lanes=2, partitions=2, mem_interface="dma")
        assert design_class(base.replace(pipelined_dma=False,
                                         dma_triggered_compute=False)) != \
            design_class(base.replace(pipelined_dma=True,
                                      dma_triggered_compute=False))

    def test_cache_classes_split_by_line(self):
        base = DesignPoint(lanes=2, partitions=2, mem_interface="cache")
        assert design_class(base.replace(cache_line=16)) == "cache:l16:barriers"
        assert design_class(base.replace(cache_line=64)) == "cache:l64:barriers"
