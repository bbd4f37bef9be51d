"""Run metrics: cycle-class breakdowns, energy, EDP.

Implements the paper's two runtime decompositions:

* Section IV-C (DMA designs): every cycle of the offload is classified as
  flush-only, DMA/flush (DMA running, no compute), compute/DMA (both
  overlapped), compute-only, or other (driver setup, invalidates,
  completion signalling).
* Section IV-E (cache designs): the Burger-style processing / latency /
  bandwidth decomposition, produced by differencing three runs
  (:func:`repro.core.figures` drives those).
"""

from repro.aladdin.area import AreaBreakdown
from repro.aladdin.power import EnergyBreakdown
from repro.core.config import DesignPoint
from repro.errors import ConfigError
from repro.sim.stats import intersect, merge_intervals, subtract, total_covered
from repro.units import edp, power_mw, ticks_to_us


def classify_breakdown(total_span, flush_intervals, dma_intervals,
                       compute_intervals):
    """Partition [0, total_span) ticks into the paper's cycle classes.

    Returns a dict of tick totals:
      ``flush_only``  - flush active, neither DMA nor compute
      ``dma_flush``   - DMA active (flush may overlap), no compute
      ``compute_dma`` - compute and DMA overlapped
      ``compute_only``- compute active, no DMA
      ``other``       - none of the engines active (driver setup, ioctl,
                        invalidates, completion polling)
    """
    flush = merge_intervals(flush_intervals)
    dma = merge_intervals(dma_intervals)
    compute = merge_intervals(compute_intervals)
    compute_dma = total_covered(intersect(compute, dma))
    compute_only = total_covered(subtract(compute, dma))
    dma_flush = total_covered(subtract(dma, compute))
    flush_only = total_covered(subtract(subtract(flush, dma), compute))
    covered = (compute_dma + compute_only + dma_flush + flush_only)
    return {
        "flush_only": flush_only,
        "dma_flush": dma_flush,
        "compute_dma": compute_dma,
        "compute_only": compute_only,
        "other": max(total_span - covered, 0),
    }


class RunResult:
    """Everything measured from one co-designed (or isolated) run."""

    #: How this result was obtained: ``"exact"`` for the event-driven
    #: co-simulation; the calibrated analytic tier overrides this with
    #: ``"fast"`` (see :class:`repro.core.calibrate.FastResult`).
    fidelity = "exact"

    #: The measurement fields of :meth:`to_record`; the rest of a record
    #: is the design's :meth:`~repro.core.config.DesignPoint.to_record`.
    MEASURED = ("workload", "total_ticks", "accel_cycles", "breakdown",
                "energy_pj", "energy_breakdown_pj", "area_breakdown_um2",
                "stats", "fidelity")

    def __init__(self, workload, design, total_ticks, accel_cycles,
                 breakdown, energy, stats=None, area=None, energy_pj=None):
        self.workload = workload
        self.design = design
        self.total_ticks = total_ticks
        self.accel_cycles = accel_cycles
        self.breakdown = breakdown                # tick totals per class
        # EnergyBreakdown, or None when only a total (``energy_pj``) is
        # known — the fast tier's fitted energy has no per-component split.
        self.energy = energy
        self.energy_pj = energy.total_pj if energy is not None else energy_pj
        self.power_mw = power_mw(self.energy_pj, total_ticks)
        self.edp = edp(self.energy_pj, total_ticks)
        self.stats = stats or {}
        self.area = area                          # AreaBreakdown or None

    @property
    def area_mm2(self):
        return self.area.total_mm2 if self.area is not None else None

    @property
    def time_us(self):
        return ticks_to_us(self.total_ticks)

    def breakdown_fractions(self):
        """Cycle-class fractions of total runtime (sums to 1.0)."""
        if self.total_ticks == 0:
            return {k: 0.0 for k in self.breakdown}
        return {k: v / self.total_ticks for k, v in self.breakdown.items()}

    @property
    def compute_fraction(self):
        """Fraction of the offload during which the datapath was computing
        (Figure 2a reports ~25% for md-knn at 16 lanes, baseline DMA)."""
        frac = self.breakdown_fractions()
        return frac["compute_dma"] + frac["compute_only"]

    def to_record(self):
        """The whole result as one flat, JSON-able dict: the design's
        fields beside the measurements, inverted exactly by
        :meth:`from_record`."""
        record = self.design.to_record()
        record.update(
            workload=self.workload,
            total_ticks=self.total_ticks,
            accel_cycles=self.accel_cycles,
            breakdown=dict(self.breakdown),
            energy_pj=self.energy_pj,
            energy_breakdown_pj=(None if self.energy is None
                                 else self.energy.as_dict()),
            area_breakdown_um2=(None if self.area is None
                                else self.area.as_dict()),
            stats=dict(self.stats),
            fidelity=self.fidelity,
        )
        return record

    @classmethod
    def from_record(cls, doc):
        """The result :meth:`to_record` returned ``doc`` for, rebuilt
        through the constructor so the derived power, EDP and area come
        out bit-identical.  A record of another fidelity, or one missing
        or adding a field, raises :class:`ConfigError`."""
        if not isinstance(doc, dict):
            raise ConfigError(f"result must be a JSON object, got {doc!r}")
        fields = dict(doc)
        try:
            got = {name: fields.pop(name) for name in cls.MEASURED}
        except KeyError as exc:
            raise ConfigError(f"result record lacks {exc}") from None
        if got["fidelity"] != cls.fidelity:
            raise ConfigError(
                f"a {got['fidelity']!r} record is not a {cls.__name__}")
        energy, area = got["energy_breakdown_pj"], got["area_breakdown_um2"]
        return cls(
            got["workload"], DesignPoint.from_record(fields),
            got["total_ticks"], got["accel_cycles"], got["breakdown"],
            None if energy is None else EnergyBreakdown.from_dict(energy),
            stats=got["stats"],
            area=None if area is None else AreaBreakdown.from_dict(area),
            energy_pj=got["energy_pj"])

    def summary(self):
        """One-line human-readable summary."""
        return (f"{self.workload:18s} {self.design!r:60s} "
                f"t={self.time_us:9.2f}us p={self.power_mw:7.3f}mW "
                f"edp={self.edp:.3e}")
