"""Property-based tests for the interval algebra.

The runtime breakdowns of Figures 2 and 6 are computed entirely from this
algebra, so its invariants must hold for arbitrary interval sets.
"""

from hypothesis import given, strategies as st

from repro.core.metrics import classify_breakdown
from repro.sim.stats import (
    IntervalTracker,
    intersect,
    merge_intervals,
    subtract,
    total_covered,
)

interval = st.tuples(st.integers(0, 1000), st.integers(0, 1000)).map(
    lambda t: (min(t), max(t) + 1))
intervals = st.lists(interval, max_size=20)


def is_canonical(ivs):
    return all(a < b for a, b in ivs) and all(
        ivs[i][1] < ivs[i + 1][0] for i in range(len(ivs) - 1))


@given(intervals)
def test_merge_produces_canonical_form(ivs):
    assert is_canonical(merge_intervals(ivs))


@given(intervals)
def test_merge_idempotent(ivs):
    merged = merge_intervals(ivs)
    assert merge_intervals(merged) == merged


@given(intervals)
def test_merge_preserves_coverage(ivs):
    covered = set()
    for a, b in ivs:
        covered.update(range(a, b))
    merged_covered = set()
    for a, b in merge_intervals(ivs):
        merged_covered.update(range(a, b))
    assert covered == merged_covered


@given(intervals, intervals)
def test_intersect_subset_of_both(a, b):
    inter = intersect(a, b)
    cov_a = total_covered(a)
    cov_b = total_covered(b)
    cov_i = total_covered(inter)
    assert cov_i <= min(cov_a, cov_b)


@given(intervals, intervals)
def test_intersect_commutative(a, b):
    assert intersect(a, b) == intersect(b, a)


@given(intervals, intervals)
def test_subtract_disjoint_from_subtrahend(a, b):
    assert intersect(subtract(a, b), b) == []


@given(intervals, intervals)
def test_partition_identity(a, b):
    """|a| = |a - b| + |a intersect b| — the invariant that makes the
    flush/DMA/compute cycle classes sum to total runtime."""
    assert total_covered(a) == (total_covered(subtract(a, b))
                                + total_covered(intersect(a, b)))


@given(intervals, intervals)
def test_intersect_with_subtract_covers_a(a, b):
    lhs = merge_intervals(subtract(a, b) + intersect(a, b))
    assert lhs == merge_intervals(a)


class _AppendOnlyTracker:
    """IntervalTracker as it was before busy intervals coalesced: every
    busy period is its own tuple."""

    def __init__(self):
        self.intervals = []
        self._depth = 0
        self._open_start = None

    def begin(self, now):
        if self._depth == 0:
            self._open_start = now
        self._depth += 1

    def end(self, now):
        self._depth -= 1
        if self._depth == 0:
            if now > self._open_start:
                self.intervals.append((self._open_start, now))
            self._open_start = None

    def add(self, start, end):
        if end > start:
            self.intervals.append((start, end))


@st.composite
def tracker_calls(draw):
    """begin/end/add calls at non-decreasing ticks, ends matched."""
    calls = []
    now = 0
    depth = 0
    for _ in range(draw(st.integers(0, 40))):
        now += draw(st.sampled_from((0, 0, 1, 3, 10)))
        op = draw(st.sampled_from(("begin", "end", "add")))
        if op == "end" and depth == 0:
            op = "begin"
        if op == "add":
            start = draw(st.integers(0, now + 5))
            calls.append(("add", start, start + draw(st.integers(0, 8))))
            continue
        depth += 1 if op == "begin" else -1
        calls.append((op, now))
    return calls


@given(tracker_calls(), intervals, intervals)
def test_coalesced_tracker_matches_append_only(calls, flush, dma):
    coalesced = IntervalTracker()
    reference = _AppendOnlyTracker()
    for op, *args in calls:
        getattr(coalesced, op)(*args)
        getattr(reference, op)(*args)
        # Equal after every call, not only once the tracker is idle.
        assert coalesced.merged() == merge_intervals(reference.intervals)
        assert coalesced.total_busy() == total_covered(reference.intervals)
        assert coalesced.busy == (reference._depth > 0)
    assert len(coalesced.intervals) <= len(reference.intervals)
    span = max([end for _s, end in coalesced.intervals + flush + dma],
               default=0) + 5
    for role in range(3):
        mine = [flush, dma, coalesced.intervals]
        theirs = [flush, dma, reference.intervals]
        mine[role], mine[2] = mine[2], mine[role]
        theirs[role], theirs[2] = theirs[2], theirs[role]
        assert (classify_breakdown(span, *mine)
                == classify_breakdown(span, *theirs))


def test_back_to_back_busy_periods_share_one_interval():
    tracker = IntervalTracker()
    for start in (0, 10, 20):
        tracker.begin(start)
        tracker.end(start + 10)
    assert tracker.intervals == [(0, 30)]
    tracker.begin(40)
    tracker.end(50)
    assert tracker.intervals == [(0, 30), (40, 50)]
