"""Strided hardware prefetcher.

Figure 3 lists "Hardware prefetchers: Strided" among the swept parameters.
We implement a reference-prediction-table prefetcher: streams are keyed by
the static access site (the trace's array name stands in for the PC); once
a stream shows a stable stride across two consecutive demand accesses, the
prefetcher issues fills ``degree`` strides ahead.
"""


class StridePrefetcher:
    """Per-stream stride detection with configurable lookahead degree."""

    def __init__(self, degree=2, table_size=16):
        self.degree = degree
        self.table_size = table_size
        # stream key -> [last_addr, last_stride, confidence], updated in place
        self._table = {}
        self.issued = 0
        self.useful_hint = 0

    def observe(self, stream, addr, line_size):
        """Record a demand access; returns line addresses worth prefetching.

        A stream's entry is updated in place, so the table keeps its
        insertion order and a full table evicts the oldest-inserted
        stream, however recently it was updated."""
        entry = self._table.get(stream)
        if entry is None:
            if len(self._table) >= self.table_size:
                # Evict an arbitrary (oldest-inserted) stream.
                self._table.pop(next(iter(self._table)))
            self._table[stream] = [addr, 0, 0]
            return []
        stride = addr - entry[0]
        entry[0] = addr
        if stride == 0 or stride != entry[1]:
            # Not confirmed: remember the stride, start over.
            entry[1] = stride
            entry[2] = 0
            return []
        if entry[2] < 3:
            entry[2] += 1
        targets = []
        own = addr - addr % line_size
        for i in range(1, self.degree + 1):
            target = addr + stride * i
            line = target - target % line_size
            if line != own and line not in targets:
                targets.append(line)
        self.issued += len(targets)
        return targets


class NullPrefetcher:
    """Disabled prefetcher (always returns no candidates)."""

    def __init__(self):
        self.issued = 0

    def observe(self, stream, addr, line_size):
        """Record nothing; never prefetches."""
        return []
