"""Self-tests of the benchmark harness: ``pytest benchmarks/bench -q``."""

import collections
import contextlib
import copy
import io
import itertools
import json
import random

import pytest

from . import compare, expected, harness, layers, measure, spec

harness.use_src()


@pytest.fixture(scope="module")
def bench():
    return harness.load_benchmark()


def test_benchmark_json_contract(bench):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["paths"] == ["benchmarks/bench"]
    assert [w["name"] for w in bench["workloads"]] == list(spec.WORKLOADS)
    bounds = {e["name"]: e["bound"] for e in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for entry in bench["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
    for entry in bench["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}


def _records(n, wall=0.1, samples=None):
    return [{"wall": wall, "scale": 1.0, "samples": samples, "points": 1,
             "cycles": 10, "attempted": 1, "failed": 0, "traced": False}
            for _ in range(n)]


def test_end_to_end_names_and_units(bench):
    from .child import summarize
    metrics, _samples = summarize(_records(100))
    names = set(metrics) | {"setup_s", "peak_rss_mb"}
    assert names == {e["name"] for e in bench["end_to_end"]}
    suffix_units = {"_per_s": "1/s", "_mb": "MB", "_s": "s"}
    for entry in bench["end_to_end"]:
        unit = next(u for s, u in suffix_units.items()
                    if entry["name"].endswith(s))
        assert entry["unit"] == unit, entry["name"]


def test_per_layer_names_and_units(bench):
    from .runners import Tracer
    tracer = Tracer()
    with tracer.clock.span("core.soc.build"):
        pass
    traced = [dict(r, traced=True, t0=0.0) for r in _records(2)]
    out = layers.compute(tracer, traced, {"setup.import_s": 0.1},
                         scale=1.0, overhead=0.1, probe_s=0.004)
    for entry in bench["per_layer"]:
        assert entry["name"] in out
        assert entry["unit"] == layers.unit(entry["name"]), entry["name"]


def test_p90_refused_below_100_samples():
    values = [float(i) for i in range(99)]
    with pytest.raises(ValueError, match="at least 100"):
        measure.tail_percentile(values, 90)
    assert measure.tail_percentile(values + [99.0], 90) == \
        pytest.approx(89.1)
    from .child import summarize
    with pytest.raises(ValueError):
        summarize(_records(99))


@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_op_lists_follow_the_seed(workload):
    first = [next(spec.passes(workload, 1)) for _ in range(2)]
    again = [next(spec.passes(workload, 1)) for _ in range(2)]
    other = next(spec.passes(workload, 2))
    assert first == again
    assert first[0] != other

    def multiset(ops):
        return sorted(json.dumps(op, sort_keys=True) for op in ops)
    if workload in ("dma-sweep", "cache-sweep"):
        assert multiset(first[0]) == multiset(other)


def test_pool_replays_follow_their_origin():
    for seed in range(20):
        ops = spec.pool_store_pass(random.Random(seed))
        assert len(ops) == spec.POOL_FRESH + spec.POOL_REPLAYS
        seen = []
        for op in ops:
            if op["fresh"]:
                seen.append(op["designs"])
            else:
                assert op["designs"] in seen


def test_service_mix_shares():
    """60% warm Pareto, 25% cold sweeps (30% of cold rounds joined), 15%
    auto EDP, every EDP subset fresh within a pass."""
    rounds = spec.service_rounds()
    kinds = collections.Counter(r["kind"] for pair in rounds for r in pair)
    total = sum(kinds.values())
    assert round(kinds["warm"] / total, 2) == 0.60
    assert round(kinds["cold"] / total, 2) == 0.25
    assert round(kinds["edp"] / total, 2) == 0.15
    cold_rounds = [p for p in rounds if any(r["kind"] == "cold" for r in p)]
    joined = [p for p in cold_rounds if p[0] == p[1]]
    assert 0.25 <= len(joined) / len(cold_rounds) <= 0.35
    subsets = [r["subset"] for pair in rounds for r in pair
               if r["kind"] == "edp"]
    assert sorted(subsets) == list(range(len(spec.EDP_SUBSETS)))
    ids = [spec.point_id(spec.EDP_KERNEL, d)
           for subset in spec.EDP_SUBSETS for d in subset]
    assert len(ids) == len(set(ids))


def test_every_drawable_point_is_recorded():
    doc = expected.load()
    assert set(spec.all_points()) == set(doc["points"])
    assert set(spec.all_pipelines()) == set(doc["pipelines"])


def _aes_op():
    return next(op for op in spec.dma_sweep_pass()
                if op["kind"] == "point" and op["workload"] == "aes-aes")


def test_corrupted_digest_counts_as_failure(bench):
    from .runners import SweepRunner
    op = _aes_op()
    key = spec.point_id(op["workload"], op["design"])
    doc = expected.load()
    bad = copy.deepcopy(doc)
    bad["points"][key]["digest"] = "0" * 64
    outcomes = {}
    for name, gate_doc in (("good", doc), ("bad", bad)):
        runner = SweepRunner(expected.Gate(gate_doc), ["aes-aes"])
        outcomes[name] = (runner.settle(op, runner.execute(op, None), None),
                          runner.gate.mismatches)
    assert outcomes["good"][0]["failed"] == 0
    assert outcomes["bad"][0]["failed"] == 1
    assert outcomes["bad"][1] == [f"{key}: digest mismatch"]
    record = {"trace": False, "attempted": 1, "failed": 1,
              "metrics": {e["name"]: 1.0 for e in bench["end_to_end"]}}
    assert harness.contract_line(record, bench)["correct"] is False


class _FlakyRunner:
    """Every third op's result mismatches and every fifth op raises."""

    def __init__(self):
        self.gate = expected.Gate({"points": {}, "pipelines": {}})
        self.calls = 0

    def pass_scope(self, _tracer):
        return contextlib.nullcontext()

    def execute(self, _op, _tracer):
        self.calls += 1
        if self.calls % 5 == 0:
            raise RuntimeError("simulated crash")
        return self.calls

    def settle(self, _op, call, _tracer):
        return {"samples": None, "points": 1, "cycles": 10, "attempted": 1,
                "failed": int(call % 3 == 0)}


def test_failed_ops_still_give_a_result():
    from .child import MIN_SAMPLES, run_phase, summarize
    passes = itertools.repeat([{"kind": "point"}] * 34)
    records, probes = [], []
    run_phase(_FlakyRunner(), passes, 0.0, None, records, probes,
              MIN_SAMPLES, deadline=float("inf"))
    assert len(records) == 102
    for record in records:
        record["scale"] = 1.0
    metrics, samples = summarize(records)
    assert samples == 102
    failed = sum(r["failed"] for r in records)
    assert 0 < failed < len(records)
    assert metrics["op_p90_s"] > 0


def test_probe_normalization_cancels_a_slow_host_phase():
    ref, base = 0.004, 0.002
    probes, walls = [], []
    for i in range(40):
        slow = 2.0 if 15 <= i < 30 else 1.0
        probes.append(base * slow)
        walls.append(0.5 * slow)
    probes.append(base)
    factors = measure.scale_factors(probes, 40, ref)
    normalized = [w * f for w, f in zip(walls, factors)]
    assert normalized[0] == pytest.approx(1.0)
    assert normalized[22] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        measure.scale_factors(probes[:-1], 40, ref)


def test_compare_verdicts():
    rng = random.Random(3)
    parent = [1.0 + rng.uniform(-0.01, 0.01) for _ in range(10)]
    same = [1.0 + rng.uniform(-0.01, 0.01) for _ in range(10)]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.2 for v in parent]
    noisy = [1.0 + rng.uniform(-0.5, 0.5) for _ in range(10)]
    verdict = compare.verdict
    assert verdict(parent, faster, 0.1, "lower")[0] == "improved"
    assert verdict(parent, same, 0.1, "lower")[0] == "unchanged"
    assert verdict(parent, slower, 0.1, "lower")[0] == "regressed"
    assert verdict(parent, noisy, 0.1, "lower")[0] == "unresolved"
    assert verdict(parent, slower, 0.1, "higher")[0] == "improved"
    # Too few pairs to claim a gain: a clearly better change is unchanged.
    assert verdict(parent[:5], faster[:5], 0.1, "lower")[0] == "unchanged"


def test_compare_reads_saved_runs(tmp_path, bench):
    for side, factor in (("a", 1.0), ("b", 1.0)):
        for i in range(5):
            record = {"workload": "dma-sweep", "trace": False,
                      "attempted": 10, "failed": 0,
                      "metrics": {e["name"]: factor * (1 + 0.001 * i)
                                  for e in bench["end_to_end"]}}
            (tmp_path / side).mkdir(exist_ok=True)
            (tmp_path / side / f"run{i}.json").write_text(json.dumps(record))
    rows = compare.compare(str(tmp_path / "a"), str(tmp_path / "b"), bench,
                           io.StringIO())
    assert {r[2] for r in rows} == {"unchanged"}
    assert len(rows) == len(bench["end_to_end"]) + 1
