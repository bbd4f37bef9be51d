"""Activity-interval statistics.

The paper decomposes runtime by classifying every cycle according to which
engines were active (flush-only, DMA+flush, compute+DMA, compute-only —
Section IV-C).  Components record busy intervals with an
:class:`IntervalTracker`; the metrics layer merges and intersects them.
"""


class IntervalTracker:
    """Records [start, end) busy intervals in tick units.

    Components call :meth:`begin` / :meth:`end` around activity.  Nested
    begins are reference-counted so overlapping activations (e.g. several
    outstanding DMA blocks) merge into one interval.
    """

    def __init__(self, name=""):
        self.name = name
        self.intervals = []
        self._depth = 0
        self._open_start = None
        self._extending = None   # index of the interval the open one extends

    def begin(self, now):
        """Open (or nest into) a busy interval at tick ``now``.  Busy
        again at the tick the last interval closed, it extends that one
        when it closes instead of recording a new one."""
        if self._depth == 0:
            intervals = self.intervals
            if intervals and intervals[-1][1] == now:
                self._extending = len(intervals) - 1
                self._open_start = intervals[-1][0]
            else:
                self._open_start = now
        self._depth += 1

    def end(self, now):
        """Close one nesting level; records the interval at depth zero."""
        if self._depth <= 0:
            raise ValueError(f"IntervalTracker {self.name!r}: end without begin")
        self._depth -= 1
        if self._depth == 0:
            if self._extending is not None:
                self.intervals[self._extending] = (self._open_start, now)
                self._extending = None
            elif now > self._open_start:
                self.intervals.append((self._open_start, now))
            self._open_start = None

    def add(self, start, end):
        """Directly record a busy interval."""
        if end > start:
            self.intervals.append((start, end))

    @property
    def busy(self):
        return self._depth > 0

    def merged(self):
        """The recorded intervals, merged and sorted."""
        return merge_intervals(self.intervals)

    def total_busy(self):
        """Total ticks covered by at least one recorded interval."""
        return total_covered(self.intervals)


def merge_intervals(intervals):
    """Merge overlapping/adjacent [start, end) intervals.

    >>> merge_intervals([(0, 10), (5, 20), (30, 40)])
    [(0, 20), (30, 40)]
    """
    if not intervals:
        return []
    out = []
    for start, end in sorted(intervals):
        if out and start <= out[-1][1]:
            prev_start, prev_end = out[-1]
            out[-1] = (prev_start, max(prev_end, end))
        else:
            out.append((start, end))
    return out


def total_covered(intervals):
    """Total length covered by a set of possibly-overlapping intervals."""
    return sum(end - start for start, end in merge_intervals(intervals))


def intersect(a, b):
    """Intersection of two merged interval lists.

    >>> intersect([(0, 10)], [(5, 20)])
    [(5, 10)]
    """
    a = merge_intervals(a)
    b = merge_intervals(b)
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        start = max(a[i][0], b[j][0])
        end = min(a[i][1], b[j][1])
        if start < end:
            out.append((start, end))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


def subtract(a, b):
    """Intervals of ``a`` not covered by ``b`` (both as interval lists).

    >>> subtract([(0, 10)], [(3, 5)])
    [(0, 3), (5, 10)]
    """
    a = merge_intervals(a)
    b = merge_intervals(b)
    out = []
    j = 0
    for start, end in a:
        cur = start
        while j < len(b) and b[j][1] <= cur:
            j += 1
        k = j
        while k < len(b) and b[k][0] < end:
            if b[k][0] > cur:
                out.append((cur, b[k][0]))
            cur = max(cur, b[k][1])
            k += 1
        if cur < end:
            out.append((cur, end))
    return out
