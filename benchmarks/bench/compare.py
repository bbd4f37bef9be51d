"""``compare A/ B/``: parent runs against change runs, per (workload,
metric), by paired-run rules.

A/ and B/ hold result records written by ``run --out``.  Runs pair up in
file-name (time) order, so alternate the two sides when collecting them.

* **improved** — at least 10 pairs, B better in at least 9/10 of them
  (ties count for neither) and the medians differ by more than A's
  interquartile range;
* **unresolved** — either side's spread (IQR over median) is wider than
  the bound, unless every B run beats every A run;
* **regressed** — B's median is worse than A's by more than the bound;
* **unchanged** — otherwise.

``error_rate`` (failed over attempted ops) may not increase at all.
"""

import glob
import json
import os

from . import measure

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(directory):
    """{workload: [record, ...]} of the untraced records, in file order."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            record = json.load(fh)
        if not record.get("trace"):
            runs.setdefault(record["workload"], []).append(record)
    return runs


def _better(a, b, direction):
    return b < a if direction == "lower" else b > a


def verdict(a_values, b_values, bound, direction):
    """(verdict, details) for one metric on one workload."""
    a1, a_med, a3 = measure.quartiles(a_values)
    b1, b_med, b3 = measure.quartiles(b_values)
    pairs = list(zip(a_values, b_values))
    wins = sum(_better(a, b, direction) for a, b in pairs)
    share = wins / len(pairs)
    worse = (b_med - a_med) / a_med
    if direction == "higher":
        worse = -worse
    spread = max(measure.relative_spread(a_values),
                 measure.relative_spread(b_values))
    separated = (max(b_values) < min(a_values) if direction == "lower"
                 else min(b_values) > max(a_values))
    details = {"a": (a1, a_med, a3), "b": (b1, b_med, b3), "share": share,
               "worse": worse}
    if (len(pairs) >= MIN_PAIRS and share >= WIN_SHARE
            and _better(a_med, b_med, direction)
            and abs(b_med - a_med) > a3 - a1):
        return "improved", details
    if separated and worse < 0:
        return "unchanged", details
    if spread > bound:
        return "unresolved", details
    if worse > bound:
        return "regressed", details
    return "unchanged", details


def error_verdict(a_records, b_records):
    a = max(r["failed"] / r["attempted"] for r in a_records)
    b = max(r["failed"] / r["attempted"] for r in b_records)
    return ("regressed" if b > a else "unchanged"), a, b


def compare(dir_a, dir_b, bench, out):
    """Print one row per (workload, metric); returns the verdict rows."""
    runs_a, runs_b = load_runs(dir_a), load_runs(dir_b)
    rows = []
    out.write(f"{'workload':12s} {'metric':18s} {'A median [q1, q3]':>34s} "
              f"{'B median [q1, q3]':>34s} {'worse':>8s} {'wins':>6s} "
              f"{'bound':>6s}  verdict\n")
    for workload in sorted(set(runs_a) & set(runs_b)):
        a_records, b_records = runs_a[workload], runs_b[workload]
        for entry in bench["end_to_end"]:
            name = entry["name"]
            a_values = [r["metrics"][name] for r in a_records]
            b_values = [r["metrics"][name] for r in b_records]
            result, d = verdict(a_values, b_values, entry["bound"],
                                entry["better"])
            rows.append((workload, name, result))
            a1, am, a3 = d["a"]
            b1, bm, b3 = d["b"]
            out.write(f"{workload:12s} {name:18s} "
                      f"{am:12.5g} [{a1:9.4g}, {a3:9.4g}] "
                      f"{bm:12.5g} [{b1:9.4g}, {b3:9.4g}] "
                      f"{d['worse'] * 100:+7.1f}% {d['share']:6.2f} "
                      f"{entry['bound']:6.2f}  {result}\n")
        result, a_err, b_err = error_verdict(a_records, b_records)
        rows.append((workload, "error_rate", result))
        out.write(f"{workload:12s} {'error_rate':18s} {a_err:34.4f} "
                  f"{b_err:34.4f} {'':8s} {'':6s} {'any':>6s}  {result}\n")
    return rows
