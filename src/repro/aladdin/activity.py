"""The activity record the power and area models price.

One run of an accelerator — simulated event by event or predicted by the
calibrated fast tier — reduces to the same plain record: datapath width
and op mix, scratchpad geometry and per-array access counts, and (for
cache designs) cache geometry and traffic counts plus TLB size and
lookups.  :mod:`repro.aladdin.power` and :mod:`repro.aladdin.area` read
nothing else, so both fidelity tiers share one cost model: the exact tier
fills the record from its live components (:func:`measured`), the fast
tier from trace counts and the functional cache model.
"""

from collections import namedtuple

from repro.aladdin.ir import OP_INFO, FuClass


class SpadActivity:
    """Scratchpad geometry plus accepted accesses per array.

    ``banks`` maps each array, in declaration order, to ``(word_bytes,
    bank_bytes)``; ``accesses`` holds the same arrays' access counts —
    the scratchpad's own counters, or ``accesses`` when given (a dict
    from array name to count; arrays it omits count zero).
    """

    __slots__ = ("partitions", "total_bytes", "banks", "accesses")

    def __init__(self, spad, accesses=None):
        if accesses is None:
            accesses = spad.access_by_array
        self.partitions = spad.partitions
        self.total_bytes = spad.total_bytes
        self.banks = {name: (spec.word_bytes, spad.partition_bytes(name))
                      for name, spec in spad.arrays.items()}
        self.accesses = {name: accesses.get(name, 0) for name in self.banks}


#: Cache geometry, port and MSHR counts, and line traffic.
CacheActivity = namedtuple(
    "CacheActivity", ("size_bytes", "assoc", "ports", "mshrs", "reads",
                      "writes", "fills", "prefetch_fills", "writebacks"))

#: TLB size and lookup outcomes.
TlbActivity = namedtuple("TlbActivity", ("num_entries", "hits", "misses"))


class Activity:
    """Everything one run exposes to pricing; absent parts are ``None``."""

    __slots__ = ("lanes", "op_histogram", "fu_classes", "spad", "cache",
                 "tlb")

    def __init__(self, lanes, op_histogram, spad=None, cache=None, tlb=None):
        self.lanes = lanes
        self.op_histogram = dict(op_histogram)
        self.spad = spad
        self.cache = cache
        self.tlb = tlb
        # The FU inventory: every class the kernel's ops use, plus the
        # memory issue logic every accelerator has.
        used = set()
        for op, count in self.op_histogram.items():
            if count > 0:
                used.add(OP_INFO[op].fu)
        used.add(FuClass.MEM)
        self.fu_classes = used


def measured(lanes, op_histogram, spad, cache=None, tlb=None, cache_ports=1):
    """The activity of a finished run, read off its live components."""
    if cache is not None:
        cache = CacheActivity(cache.size_bytes, cache.assoc, cache_ports,
                              cache.mshrs.num_entries, cache.reads,
                              cache.writes, cache.fills, cache.prefetch_fills,
                              cache.writebacks)
    if tlb is not None:
        tlb = TlbActivity(tlb.entries, tlb.hits, tlb.misses)
    return Activity(lanes, op_histogram, SpadActivity(spad), cache, tlb)
