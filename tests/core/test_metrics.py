"""Cycle-class breakdowns and run metrics."""

import json

import pytest

from repro.aladdin.area import AreaBreakdown
from repro.aladdin.power import EnergyBreakdown
from repro.core.config import DesignPoint
from repro.core.metrics import RunResult, classify_breakdown
from repro.errors import ConfigError


class TestClassifyBreakdown:
    def test_disjoint_phases(self):
        bd = classify_breakdown(
            100,
            flush_intervals=[(0, 20)],
            dma_intervals=[(20, 60)],
            compute_intervals=[(60, 90)],
        )
        assert bd == {"flush_only": 20, "dma_flush": 40, "compute_dma": 0,
                      "compute_only": 30, "other": 10}

    def test_flush_overlapping_dma_counts_as_dma(self):
        bd = classify_breakdown(100, [(0, 50)], [(25, 75)], [])
        assert bd["flush_only"] == 25
        assert bd["dma_flush"] == 50
        assert bd["other"] == 25

    def test_compute_dma_overlap(self):
        bd = classify_breakdown(100, [], [(0, 60)], [(40, 100)])
        assert bd["compute_dma"] == 20
        assert bd["dma_flush"] == 40
        assert bd["compute_only"] == 40

    def test_compute_trumps_flush(self):
        bd = classify_breakdown(50, [(0, 50)], [], [(0, 50)])
        assert bd["compute_only"] == 50
        assert bd["flush_only"] == 0

    def test_sums_to_total(self):
        bd = classify_breakdown(200, [(0, 30), (50, 90)], [(20, 120)],
                                [(100, 180)])
        assert sum(bd.values()) == 200

    def test_empty_everything_is_other(self):
        bd = classify_breakdown(42, [], [], [])
        assert bd["other"] == 42


def make_result(total=1_000_000):
    bd = classify_breakdown(total, [(0, total // 4)],
                            [(total // 4, total // 2)],
                            [(total // 2, total)])
    energy = EnergyBreakdown()
    energy.fu_dynamic = 1000.0
    return RunResult("toy", DesignPoint(), total, total // 10_000, bd,
                     energy)


class TestRunResult:
    def test_fractions_sum_to_one(self):
        r = make_result()
        assert sum(r.breakdown_fractions().values()) == pytest.approx(1.0)

    def test_compute_fraction(self):
        r = make_result()
        assert r.compute_fraction == pytest.approx(0.5)

    def test_power_and_edp_consistent(self):
        r = make_result()
        # P = E/t; EDP = E*t.
        assert r.edp == pytest.approx(
            r.power_mw * 1e-3 * (r.total_ticks / 1e12) ** 2)

    def test_time_us(self):
        assert make_result(2_000_000).time_us == pytest.approx(2.0)

    def test_summary_string(self):
        s = make_result().summary()
        assert "toy" in s and "edp" in s


class TestRecords:
    def test_record_round_trips_through_json(self):
        r = make_result()
        r.area = AreaBreakdown()
        r.area.spad = 1234.5
        r.stats = {"hits": 3, "miss_rate": None}
        record = json.loads(json.dumps(r.to_record()))
        back = RunResult.from_record(record)
        assert back.to_record() == r.to_record()
        assert (back.power_mw, back.edp, back.area_mm2) == \
            (r.power_mw, r.edp, r.area_mm2)
        assert back.stats == {"hits": 3, "miss_rate": None}

    def test_record_is_flat_design_plus_measurements(self):
        record = make_result().to_record()
        assert set(record) == set(DesignPoint.FIELDS) | set(
            RunResult.MEASURED)
        assert record["fidelity"] == "exact"
        assert record["area_breakdown_um2"] is None

    def test_total_only_energy_survives(self):
        r = RunResult("toy", DesignPoint(), 100, 1, {"other": 100}, None,
                      energy_pj=7.5)
        back = RunResult.from_record(r.to_record())
        assert back.energy is None and back.energy_pj == 7.5

    @pytest.mark.parametrize("damage", [
        lambda rec: rec.pop("stats"),
        lambda rec: rec.update(warp_speed=9),
        lambda rec: rec.update(fidelity="fast"),
        lambda rec: rec["energy_breakdown_pj"].update(extra=1.0),
    ], ids=["missing-field", "unknown-field", "other-fidelity",
            "bad-energy-breakdown"])
    def test_bad_records_rejected(self, damage):
        record = make_result().to_record()
        damage(record)
        with pytest.raises((ConfigError, ValueError)):
            RunResult.from_record(record)

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError, match="JSON object"):
            RunResult.from_record(["not", "a", "record"])

    @pytest.mark.parametrize("cls", [EnergyBreakdown, AreaBreakdown])
    def test_breakdowns_invert_as_dict(self, cls):
        bd = cls()
        for i, name in enumerate(bd.as_dict()):
            setattr(bd, name, i + 0.5)
        assert cls.from_dict(bd.as_dict()).as_dict() == bd.as_dict()
