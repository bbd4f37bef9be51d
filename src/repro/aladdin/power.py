"""Accelerator power and energy models (TSMC 40 nm class).

The paper reports *accelerator-only* power ("we do not account for CPU power
in any of our results" — Section III-F1), using Aladdin's validated 40 nm
characterization.  We reproduce the model's structure:

* per-operation dynamic energies (see :data:`repro.aladdin.ir.OP_INFO`) plus
  a per-node pipeline-register overhead;
* leakage per instantiated functional unit — an accelerator provisions
  ``lanes`` units of every FU class its kernel uses, so leakage grows with
  parallelism whether or not the units stay busy (this is exactly why
  over-provisioned isolated designs lose EDP once system effects stretch
  runtime);
* an analytic CACTI-style SRAM model: per-access energy grows ~sqrt(bank
  capacity), leakage with total capacity, plus a per-bank overhead so heavy
  partitioning is not free;
* cache overheads on top of the SRAM model: tag reads across ``assoc`` ways,
  per-port wiring overhead, line-wide fill writes, and TLB energy — the
  "tag comparisons, replacements, and address translations" that make
  caches pricier than scratchpads per access (Section IV-A).

Constants are module-level and documented so studies can re-characterize.
"""

import math

from repro.aladdin.ir import OP_INFO, FuClass

# Dynamic energy overhead per scheduled node (pipeline regs + control), pJ.
NODE_OVERHEAD_PJ = 0.05

# Leakage per instantiated functional unit, mW (40 nm, typical corner).
FU_LEAKAGE_MW = {
    FuClass.ALU: 0.006,
    FuClass.IMUL: 0.030,
    FuClass.FADD: 0.045,
    FuClass.FMUL: 0.080,
    FuClass.FDIV: 0.120,
    FuClass.MEM: 0.008,
}

# SRAM analytic model.
SRAM_ACCESS_COEFF_PJ = 0.08       # x sqrt(bank bytes) x word scaling
SRAM_LEAK_MW_PER_KB = 0.020      # 40 nm SRAM leaks ~20 uW/KB
SRAM_BANK_OVERHEAD_MW = 0.004     # per bank: decoders, sense amps
# A line fill/writeback is one wide access: decode and sense amortize, so
# it costs ~2 word accesses rather than line_size/word of them.
LINE_TRANSFER_WORD_EQUIV = 2.0

# Cache overheads.
CACHE_TAG_PJ_PER_WAY = 0.15       # tag read+compare per way probed
CACHE_PORT_LEAK_FACTOR = 0.25     # extra leakage per port beyond the first
CACHE_CONTROL_LEAK_MW = 0.020     # MSHRs, state machines
TLB_ACCESS_PJ = 0.20
TLB_MISS_PJ = 12.0                # page-table walk


def sram_access_energy_pj(bank_bytes, word_bytes=4):
    """Energy of one word access to a bank of ``bank_bytes`` capacity.

    >>> round(sram_access_energy_pj(4096), 2)
    5.12
    """
    return SRAM_ACCESS_COEFF_PJ * math.sqrt(bank_bytes) * (word_bytes / 4.0)


def sram_leakage_mw(total_bytes, banks=1):
    """Static power of ``total_bytes`` of SRAM split across ``banks``."""
    return (SRAM_LEAK_MW_PER_KB * total_bytes / 1024.0
            + SRAM_BANK_OVERHEAD_MW * banks)


class EnergyBreakdown:
    """Per-component accelerator energy (pJ) over one run."""

    def __init__(self):
        self.fu_dynamic = 0.0
        self.fu_leakage = 0.0
        self.spad_dynamic = 0.0
        self.spad_leakage = 0.0
        self.cache_dynamic = 0.0
        self.cache_leakage = 0.0
        self.tlb = 0.0

    @property
    def total_pj(self):
        return (self.fu_dynamic + self.fu_leakage + self.spad_dynamic
                + self.spad_leakage + self.cache_dynamic
                + self.cache_leakage + self.tlb)

    def as_dict(self):
        """Component energies as a plain dict (pJ)."""
        return dict(vars(self))

    @classmethod
    def from_dict(cls, doc):
        """The breakdown :meth:`as_dict` returned ``doc`` for."""
        bd = cls()
        if not isinstance(doc, dict) or doc.keys() != vars(bd).keys():
            raise ValueError(f"not an energy breakdown: {doc!r}")
        vars(bd).update(doc)
        return bd


class PowerModel:
    """Prices one :class:`~repro.aladdin.activity.Activity` record in energy.

    Each component reads only its part of the record and is zero when the
    part is absent (no cache on a DMA design, say).
    """

    def __init__(self, activity):
        self.activity = activity

    # -- dynamic components ---------------------------------------------------

    def fu_dynamic_pj(self):
        """Dynamic FU + pipeline-register energy over the run."""
        total = 0.0
        for op, count in self.activity.op_histogram.items():
            total += count * (OP_INFO[op].energy_pj + NODE_OVERHEAD_PJ)
        return total

    def spad_dynamic_pj(self):
        """Scratchpad access energy, per bank capacity."""
        spad = self.activity.spad
        if spad is None:
            return 0.0
        total = 0.0
        for array, count in spad.accesses.items():
            word_bytes, bank_bytes = spad.banks[array]
            total += count * sram_access_energy_pj(bank_bytes, word_bytes)
        return total

    def cache_dynamic_pj(self):
        """Cache access + tag + fill/writeback energy."""
        cache = self.activity.cache
        if cache is None:
            return 0.0
        accesses = cache.reads + cache.writes
        way_bytes = cache.size_bytes / cache.assoc
        data_pj = sram_access_energy_pj(way_bytes, word_bytes=8)
        tag_pj = CACHE_TAG_PJ_PER_WAY * cache.assoc
        fills = cache.fills + cache.prefetch_fills
        line_pj = LINE_TRANSFER_WORD_EQUIV * sram_access_energy_pj(
            way_bytes, 8)
        return (accesses * (data_pj + tag_pj)
                + (fills + cache.writebacks) * line_pj)

    def tlb_pj(self):
        """TLB lookup and walk energy."""
        tlb = self.activity.tlb
        if tlb is None:
            return 0.0
        return (tlb.hits + tlb.misses) * TLB_ACCESS_PJ + tlb.misses * TLB_MISS_PJ

    def dynamic_pj(self):
        """Every dynamic component, summed in breakdown order."""
        return (self.fu_dynamic_pj() + self.spad_dynamic_pj()
                + self.cache_dynamic_pj() + self.tlb_pj())

    # -- leakage components --------------------------------------------------

    def fu_leakage_mw(self):
        """Leakage of all instantiated FUs (lanes x classes)."""
        per_lane = sum(FU_LEAKAGE_MW[fu] for fu in self.activity.fu_classes)
        return per_lane * self.activity.lanes

    def spad_leakage_mw(self):
        """Scratchpad leakage (capacity + per-bank overhead)."""
        spad = self.activity.spad
        if spad is None:
            return 0.0
        return sram_leakage_mw(spad.total_bytes,
                               banks=spad.partitions * len(spad.banks))

    def cache_leakage_mw(self):
        """Cache leakage including tags, ports, control."""
        cache = self.activity.cache
        if cache is None:
            return 0.0
        base = sram_leakage_mw(cache.size_bytes, banks=cache.assoc)
        # Tags add ~6% capacity; ports add wiring/decoder copies.
        tags = 0.06 * sram_leakage_mw(cache.size_bytes, banks=1)
        port_factor = 1.0 + CACHE_PORT_LEAK_FACTOR * max(cache.ports - 1, 0)
        return (base + tags) * port_factor + CACHE_CONTROL_LEAK_MW

    def leakage_mw(self):
        """Every static component, summed in breakdown order."""
        return (self.fu_leakage_mw() + self.spad_leakage_mw()
                + self.cache_leakage_mw())

    # -- full accounting --------------------------------------------------------

    def energy(self, runtime_ticks):
        """Energy breakdown for one run of ``runtime_ticks`` duration.

        ``runtime_ticks`` should cover the interval the accelerator exists
        as a powered block (for co-designed runs: the full offload,
        including the time it waits for data — idle silicon still leaks).
        """
        from repro.units import ticks_to_seconds
        bd = EnergyBreakdown()
        seconds = ticks_to_seconds(runtime_ticks)
        mw_to_pj = lambda mw: mw * 1e-3 * seconds * 1e12
        bd.fu_dynamic = self.fu_dynamic_pj()
        bd.fu_leakage = mw_to_pj(self.fu_leakage_mw())
        bd.spad_dynamic = self.spad_dynamic_pj()
        bd.spad_leakage = mw_to_pj(self.spad_leakage_mw())
        bd.cache_dynamic = self.cache_dynamic_pj()
        bd.cache_leakage = mw_to_pj(self.cache_leakage_mw())
        bd.tlb = self.tlb_pj()
        return bd
