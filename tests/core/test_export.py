"""JSON/CSV export of results."""

import csv
import json

import pytest

from repro.core.config import DesignPoint
from repro.core.export import (
    CSV_FIELDS,
    result_record,
    results_to_csv,
    results_to_json,
)
from repro.core.soc import run_design


@pytest.fixture(scope="module")
def results():
    return [
        run_design("aes-aes", DesignPoint(lanes=2, partitions=2)),
        run_design("aes-aes", DesignPoint(lanes=2, mem_interface="cache",
                                          cache_size_kb=2)),
    ]


class TestRecords:
    def test_design_record_roundtrips_through_json(self):
        rec = DesignPoint(lanes=8, mem_interface="cache").to_record()
        assert json.loads(json.dumps(rec)) == rec
        assert rec["lanes"] == 8

    def test_result_record_fields(self, results):
        rec = result_record(results[0])
        assert rec["workload"] == "aes-aes"
        assert rec["time_us"] > 0
        assert rec["edp_js"] > 0
        assert rec["area_mm2"] > 0
        assert abs(sum(rec[k] for k in
                       ("flush_only_frac", "dma_flush_frac",
                        "compute_dma_frac", "compute_only_frac",
                        "other_frac")) - 1.0) < 1e-9

    def test_cache_stats_present_for_cache_design(self, results):
        rec = result_record(results[1])
        assert "cache_miss_rate" in rec["stats"]


class TestFiles:
    def test_json_file_roundtrip(self, results, tmp_path):
        path = tmp_path / "out.json"
        text = results_to_json(results, path)
        with open(path) as f:
            records = json.load(f)
        assert json.loads(text) == records
        assert len(records) == 2

    def test_csv_file(self, results, tmp_path):
        path = tmp_path / "out.csv"
        results_to_csv(results, path)
        with open(path) as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2
        assert set(rows[0]) == set(CSV_FIELDS)
        assert rows[0]["workload"] == "aes-aes"
        assert float(rows[0]["time_us"]) > 0

    def test_json_string_only(self, results):
        text = results_to_json(results)
        assert isinstance(text, str)
        assert "aes-aes" in text
