"""Background bus-traffic injector.

Section IV-A's fourth design consideration is behaviour under *shared
resource contention*: "invariably a DMA operation or cache fill will stall
to allow another process to make progress."  The paper proxies contention
by shrinking the bus; this component provides a direct knob as well — a
synthetic agent issuing periodic bulk reads on the system bus, standing in
for other accelerators / CPU traffic in a loaded SoC.
"""

from repro.sim.ports import MemRequest


class TrafficGenerator:
    """Deterministic periodic traffic source on the system bus."""

    def __init__(self, sim, bus, clock, burst_bytes=64,
                 interval_cycles=10, base_addr=0x8000_0000,
                 footprint_bytes=1 << 20, jitter_seed=0x9E3779B9,
                 name="traffic"):
        self.sim = sim
        self.bus = bus
        self.clock = clock
        self.burst_bytes = burst_bytes
        self.interval_cycles = interval_cycles
        self.base_addr = base_addr
        self.footprint = footprint_bytes
        self.name = name
        self._lcg = jitter_seed & 0xFFFFFFFF
        self._running = False
        self._offset = 0
        self.bursts_issued = 0

    def _next_jitter(self):
        # Small deterministic LCG so runs are reproducible.
        self._lcg = (self._lcg * 1664525 + 1013904223) & 0xFFFFFFFF
        return self._lcg % max(self.interval_cycles // 4, 1)

    def start(self, stop_check):
        """Begin injecting; ``stop_check()`` returning True ends the stream."""
        self._running = True
        self._stop_check = stop_check
        self._tick()

    def _tick(self):
        if not self._running or self._stop_check():
            # The stop check is a closure over the owner: forget it so a
            # stopped generator closes no reference cycle.
            self._running = False
            self._stop_check = None
            return
        addr = self.base_addr + self._offset
        self._offset = (self._offset + self.burst_bytes * 4) % self.footprint
        self.bursts_issued += 1
        self.bus.request(MemRequest(addr, self.burst_bytes, is_write=False,
                                    requester=self.name))
        delay = self.clock.cycles_to_ticks(
            self.interval_cycles + self._next_jitter())
        self.sim.schedule(delay, self._tick)

    def stop(self):
        """Stop injecting after the current tick."""
        self._running = False
