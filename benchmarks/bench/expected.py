"""The bit-exact result gate: committed expected values for every point.

``expected.json`` holds, for every (workload, design) and pipeline any
pass of any seed can run, a SHA-256 digest of the run's canonical
snapshot (the fields of the golden-snapshot suite: ticks, cycles,
breakdown, energy, power, EDP, area and the full stats dict) plus the
headline numbers the Pareto and EDP checks recompute answers from.

Regenerate only when a modelling change legitimately moves results::

    python -m benchmarks.bench record
"""

import hashlib
import json
import os

from . import spec

PATH = os.path.join(os.path.dirname(__file__), "expected.json")


def snapshot(result):
    """Every externally visible number of one run, JSON-serializable."""
    return {
        "total_ticks": result.total_ticks,
        "accel_cycles": result.accel_cycles,
        "breakdown": dict(result.breakdown),
        "energy_pj": result.energy_pj,
        "power_mw": result.power_mw,
        "edp": result.edp,
        "area_mm2": result.area_mm2,
        "stats": {k: v for k, v in sorted(result.stats.items())},
    }


def digest(obj):
    text = json.dumps(obj, sort_keys=True, indent=1)
    return hashlib.sha256(text.encode()).hexdigest()


def point_entry(result):
    return {"digest": digest(snapshot(result)),
            "total_ticks": result.total_ticks,
            "accel_cycles": result.accel_cycles,
            "time_us": result.time_us,
            "power_mw": result.power_mw,
            "edp": result.edp}


def pipeline_entry(result):
    """``result`` is a :class:`repro.core.pipeline.PipelineResult`."""
    snap = {"makespan_ticks": result.makespan_ticks,
            "stages": [snapshot(r) for r in result.stage_results],
            "links": result.links}
    return {"digest": digest(snap),
            "makespan_ticks": result.makespan_ticks,
            "accel_cycles": sum(r.accel_cycles for r in result.stage_results)}


def load(path=PATH):
    with open(path) as fh:
        return json.load(fh)


def frontier(entries):
    """(time_us, power_mw) of the Pareto frontier, as the service orders
    it: ascending ticks, strictly falling power."""
    best = float("inf")
    out = []
    for entry in sorted(entries, key=lambda e: (e["total_ticks"],
                                                e["power_mw"])):
        if entry["power_mw"] < best:
            out.append((entry["time_us"], entry["power_mw"]))
            best = entry["power_mw"]
    return out


def edp_optimum(entries):
    best = min(entries, key=lambda e: e["edp"])
    return (best["time_us"], best["power_mw"], best["edp"])


class Gate:
    """Checks op outcomes against the expected values; collects
    mismatches by id (a mismatch counts as a failed op)."""

    def __init__(self, doc):
        self.points = doc["points"]
        self.pipelines = doc["pipelines"]
        self.mismatches = []

    def _entry(self, table, key):
        entry = table.get(key)
        if entry is None:
            self.mismatches.append(f"{key}: no expected value")
        return entry

    def point(self, workload, design, result):
        """True when ``result`` is bit-identical to the recorded run."""
        key = spec.point_id(workload, design)
        entry = self._entry(self.points, key)
        if entry is None:
            return False
        if getattr(result, "is_failure", False):
            self.mismatches.append(f"{key}: failed ({result.error})")
            return False
        if digest(snapshot(result)) != entry["digest"]:
            self.mismatches.append(f"{key}: digest mismatch")
            return False
        return True

    def pipeline(self, op, result):
        key = spec.pipeline_id(op)
        entry = self._entry(self.pipelines, key)
        if entry is None:
            return False
        if pipeline_entry(result)["digest"] != entry["digest"]:
            self.mismatches.append(f"{key}: digest mismatch")
            return False
        return True

    def _entries(self, workload, designs):
        return [self.points.get(spec.point_id(workload, d))
                for d in designs]

    def pareto(self, workload, designs, response):
        """A warm Pareto answer against the frontier recomputed from the
        expected values of the queried space."""
        entries = self._entries(workload, designs)
        label = f"pareto|{workload}"
        if None in entries:
            self.mismatches.append(f"{label}: no expected values")
            return False
        got = [(r["time_us"], r["power_mw"]) for r in response["frontier"]]
        best = response["edp_optimal"]
        if got != frontier(entries) or best is None or \
                (best["time_us"], best["power_mw"], best["edp_js"]) != \
                edp_optimum(entries):
            self.mismatches.append(f"{label}: frontier mismatch")
            return False
        return True

    def edp(self, workload, designs, response):
        """An EDP answer against the optimum of the expected values."""
        entries = self._entries(workload, designs)
        label = f"edp|{workload}"
        best = response["edp_optimal"]
        if None in entries or best is None or \
                (best["time_us"], best["power_mw"], best["edp_js"]) != \
                edp_optimum(entries):
            self.mismatches.append(f"{label}: EDP optimum mismatch")
            return False
        return True


def record(progress=print):
    """Simulate every point and pipeline any seed can draw; write
    ``expected.json``."""
    from repro import DesignPoint, run_design
    from repro.core.pipeline import AcceleratorPipeline

    points = {}
    todo = spec.all_points()
    for i, (key, (workload, design)) in enumerate(sorted(todo.items())):
        points[key] = point_entry(run_design(workload,
                                             DesignPoint(**design)))
        if (i + 1) % 50 == 0:
            progress(f"  {i + 1}/{len(todo)} points")
    pipelines = {}
    for key, op in sorted(spec.all_pipelines().items()):
        pipe = AcceleratorPipeline(op["stages"], handoff=op["handoff"],
                                   buffer_bytes=op["buffer_bytes"],
                                   double_buffer=op["double_buffer"])
        pipelines[key] = pipeline_entry(pipe.run())
    doc = {"format": 1, "points": points, "pipelines": pipelines}
    with open(PATH, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    progress(f"wrote {len(points)} points and {len(pipelines)} pipelines "
             f"to {PATH}")
    return doc
