"""Standalone accelerator simulation — classic Aladdin.

"Aladdin only focuses on the standalone datapath and local memories.  It
assumes that all data has been preloaded into the local scratchpads"
(Section III-B).  :meth:`Accelerator.run_isolated` reproduces exactly that:
the kernel's DDDG is scheduled against the configured lanes/partitions with
every scratchpad word ready at time zero and no SoC attached.  This is the
"isolated" design style that the co-design experiments (Figs 1, 9, 10)
compare against.
"""

from repro.sim.kernel import Simulator
from repro.sim.clock import ClockDomain, ACCEL_CLOCK_MHZ
from repro.memory.sram import ArraySpec, Scratchpad
from repro.aladdin.ddg import DDDG
from repro.aladdin.modulo import plan_ii
from repro.aladdin.transforms import assign_lanes
from repro.aladdin.scheduler import DatapathScheduler, SpadInterface
from repro.aladdin.activity import measured
from repro.aladdin.area import AreaModel
from repro.aladdin.power import PowerModel
from repro.units import edp, power_mw


class IsolatedResult:
    """Performance/power/area summary of one isolated run."""

    def __init__(self, cycles, ticks, energy, spad, scheduler, area=None):
        self.cycles = cycles
        self.ticks = ticks
        self.energy = energy                      # EnergyBreakdown
        self.energy_pj = energy.total_pj
        self.power_mw = power_mw(self.energy_pj, ticks)
        self.edp = edp(self.energy_pj, ticks)
        self.spad = spad
        self.scheduler = scheduler
        self.area = area                          # AreaBreakdown or None

    @property
    def area_mm2(self):
        return self.area.total_mm2 if self.area is not None else None


def make_scratchpad(trace, partitions, ports_per_partition=1, kinds=None):
    """Build the scratchpad holding the trace's arrays.

    ``kinds`` restricts which array roles get scratchpad storage (cache-based
    designs keep only ``internal`` arrays local).  With no array to hold,
    a minimal stub bank keeps the interfaces (and the cost model) uniform.
    """
    specs = [
        ArraySpec(a.name, a.size_bytes, a.word_bytes)
        for a in trace.arrays.values()
        if kinds is None or a.kind in kinds
    ] or [ArraySpec("__none__", 64, 4)]
    return Scratchpad(specs, partitions, ports_per_partition)


class Accelerator:
    """A fixed-function accelerator: one DDDG plus a datapath configuration."""

    def __init__(self, trace, lanes, partitions, ports_per_partition=1,
                 clock_mhz=ACCEL_CLOCK_MHZ, fu_per_lane=None,
                 pipelining="barriers", ii="auto"):
        self.trace = trace
        self.ddg = DDDG(trace)
        self.lanes = lanes
        self.partitions = partitions
        self.ports_per_partition = ports_per_partition
        self.clock = ClockDomain(clock_mhz)
        self.fu_per_lane = fu_per_lane
        self.pipelining = pipelining
        self.round_barriers = pipelining == "barriers"
        self.ii = ii
        self.assignment = assign_lanes(trace, lanes)
        self.ii_plan = None
        if pipelining == "modulo":
            self.ii_plan = plan_ii(
                self.ddg, self.assignment, fu_per_lane=fu_per_lane,
                mem_slots_per_cycle=partitions * ports_per_partition,
                ii=ii)

    def run_isolated(self):
        """Schedule the DDDG with preloaded scratchpads and no system."""
        sim = Simulator()
        spad = make_scratchpad(self.trace, self.partitions,
                               self.ports_per_partition)
        mem_if = SpadInterface(sim, self.clock, spad)
        plan = self.ii_plan
        sched = DatapathScheduler(sim, self.clock, self.ddg, self.assignment,
                                  mem_if, fu_per_lane=self.fu_per_lane,
                                  pipelining=self.pipelining,
                                  ii=plan.ii if plan else 0,
                                  rec_mii=plan.rec_mii if plan else 0,
                                  res_mii=plan.res_mii if plan else 0)
        sim.add_done_dependency(lambda: sched.done)
        sched.start()
        sim.run()
        sim.release()
        sched.release()
        ticks = sched.done_tick - sched.start_tick
        cycles = self.clock.ticks_to_cycles(ticks)
        activity = measured(self.lanes, self.trace.op_histogram(), spad)
        energy = PowerModel(activity).energy(ticks)
        area = AreaModel(activity).area()
        return IsolatedResult(cycles, ticks, energy, spad, sched, area=area)
