"""Accelerator area models (40 nm class).

Aladdin reports area alongside power and performance; we reproduce that
third axis so design-space studies can weigh silicon cost.  The model
mirrors :mod:`repro.aladdin.power`'s structure:

* functional units: per-class footprints, one unit per class per lane;
* SRAM: an analytic bits-plus-periphery model — per-bank overhead makes
  heavy partitioning pay for its bandwidth in area;
* caches: the SRAM model on data + ~6% tags, multiplied by a per-port
  wiring factor (multi-ported caches grow superlinearly), plus MSHR and
  controller overhead;
* TLB: a small CAM.

Units are square micrometers (um^2); constants are representative of
40 nm standard-cell/compiler-SRAM implementations and documented for
re-characterization.
"""

import math

from repro.aladdin.ir import FuClass

# Functional-unit footprints, um^2 (40 nm).
FU_AREA_UM2 = {
    FuClass.ALU: 320.0,
    FuClass.IMUL: 1800.0,
    FuClass.FADD: 2900.0,
    FuClass.FMUL: 4100.0,
    FuClass.FDIV: 6200.0,
    FuClass.MEM: 450.0,       # load/store queue slice + address path
}

# SRAM model: bit cells plus sqrt-scaling periphery, plus per-bank overhead.
SRAM_UM2_PER_BIT = 0.45
SRAM_PERIPHERY_COEFF = 18.0   # x sqrt(bits)
SRAM_BANK_OVERHEAD_UM2 = 700.0

CACHE_TAG_FRACTION = 0.06
CACHE_PORT_AREA_FACTOR = 0.35     # extra area per port beyond the first
CACHE_MSHR_UM2 = 260.0            # per MSHR entry
CACHE_CONTROL_UM2 = 2400.0
TLB_UM2_PER_ENTRY = 180.0

REGISTER_UM2_PER_LANE = 900.0     # pipeline registers + FSM control


def sram_area_um2(capacity_bytes, banks=1):
    """Area of ``capacity_bytes`` of SRAM split across ``banks``.

    >>> sram_area_um2(0) == 0.0
    True
    """
    if capacity_bytes <= 0:
        return 0.0
    bits = capacity_bytes * 8
    cells = bits * SRAM_UM2_PER_BIT
    periphery = banks * SRAM_PERIPHERY_COEFF * math.sqrt(bits / banks)
    return cells + periphery + banks * SRAM_BANK_OVERHEAD_UM2


class AreaBreakdown:
    """Per-component accelerator area (um^2)."""

    def __init__(self):
        self.fu = 0.0
        self.registers = 0.0
        self.spad = 0.0
        self.cache = 0.0
        self.tlb = 0.0

    @property
    def total_um2(self):
        return self.fu + self.registers + self.spad + self.cache + self.tlb

    @property
    def total_mm2(self):
        return self.total_um2 / 1e6

    def as_dict(self):
        """Component areas as a plain dict (um^2)."""
        return dict(vars(self))

    @classmethod
    def from_dict(cls, doc):
        """The breakdown :meth:`as_dict` returned ``doc`` for."""
        bd = cls()
        if not isinstance(doc, dict) or doc.keys() != vars(bd).keys():
            raise ValueError(f"not an area breakdown: {doc!r}")
        vars(bd).update(doc)
        return bd


class AreaModel:
    """Prices one :class:`~repro.aladdin.activity.Activity` record in area.

    Area reads only the record's geometry (lanes, FU inventory, array and
    bank sizes, cache/TLB provisioning), never its access counts.
    """

    def __init__(self, activity):
        self.activity = activity

    def fu_area_um2(self):
        """Area of all instantiated FUs (lanes x classes)."""
        per_lane = sum(FU_AREA_UM2[fu] for fu in self.activity.fu_classes)
        return per_lane * self.activity.lanes

    def spad_area_um2(self):
        """Scratchpad array area including banking overhead."""
        spad = self.activity.spad
        if spad is None:
            return 0.0
        total = 0.0
        for _word_bytes, bank_bytes in spad.banks.values():
            total += sram_area_um2(bank_bytes * spad.partitions,
                                   banks=spad.partitions)
        return total

    def cache_area_um2(self):
        """Cache area: data + tags, ports, MSHRs, control."""
        cache = self.activity.cache
        if cache is None:
            return 0.0
        data = sram_area_um2(cache.size_bytes, banks=cache.assoc)
        tags = CACHE_TAG_FRACTION * data
        port_factor = 1.0 + CACHE_PORT_AREA_FACTOR * max(cache.ports - 1, 0)
        mshrs = CACHE_MSHR_UM2 * cache.mshrs
        return (data + tags) * port_factor + mshrs + CACHE_CONTROL_UM2

    def tlb_area_um2(self):
        """TLB CAM area."""
        tlb = self.activity.tlb
        if tlb is None:
            return 0.0
        return TLB_UM2_PER_ENTRY * tlb.num_entries

    def area(self):
        """Full area breakdown for one configured accelerator."""
        bd = AreaBreakdown()
        bd.fu = self.fu_area_um2()
        bd.registers = REGISTER_UM2_PER_LANE * self.activity.lanes
        bd.spad = self.spad_area_um2()
        bd.cache = self.cache_area_um2()
        bd.tlb = self.tlb_area_um2()
        return bd
