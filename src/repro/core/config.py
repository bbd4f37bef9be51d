"""Design-point and SoC configuration (the parameter table of Figure 3).

A :class:`DesignPoint` holds the per-accelerator microarchitecture knobs
(datapath lanes, scratchpad partitioning, memory interface, cache geometry,
DMA optimizations); a :class:`SoCConfig` holds platform-wide parameters
(bus width, clocks, DRAM, driver timing constants).  Both validate their
values against the swept ranges the paper reports.
"""

import operator

from repro.errors import ConfigError

# Figure 3's table, verbatim: the design space swept in this work.
PARAMETER_TABLE = {
    "datapath_lanes": (1, 2, 4, 8, 16),
    "scratchpad_partitions": (1, 2, 4, 8, 16),
    "data_transfer_mechanism": ("dma", "cache"),
    "pipelined_dma": (False, True),
    "dma_triggered_compute": (False, True),
    "cache_size_kb": (2, 4, 8, 16, 32, 64),
    "cache_line_bytes": (16, 32, 64),
    "cache_ports": (1, 2, 4, 8),
    "cache_assoc": (4, 8),
    "cache_line_flush_ns": 84.0,
    "cache_line_invalidate_ns": 71.0,
    "hardware_prefetcher": ("none", "stride"),
    "mshrs": 16,
    "accelerator_tlb_entries": 8,
    "tlb_miss_latency_ns": 200.0,
    "system_bus_width_bits": (32, 64),
}


def _integer(name, value):
    """``value`` as an ``int``: integral floats (``4.0``) collapse, while
    bools, fractions and non-numbers raise :class:`ConfigError`."""
    if type(value) is int:
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def _boolean(name, value):
    """``value`` if it is a ``bool``; anything else (``1``, ``[1]``,
    ``{}``) raises :class:`ConfigError`, since ``1`` would hash to a
    different result-store key than ``True``."""
    if type(value) is bool:
        return value
    raise ConfigError(f"{name} must be a bool, got {value!r}")


#: Largest value of each integer design knob (the smallest is 1).  Each
#: sits far above the swept range of PARAMETER_TABLE and bounds what
#: one design can make the simulator allocate: a cache builds one dict
#: per set, the scheduler keeps state per lane and per memory port.
INTEGER_CEILINGS = {"lanes": 256, "partitions": 256, "cache_size_kb": 1024,
                    "cache_line": 1024, "cache_ports": 64,
                    "cache_assoc": 64, "spad_ports": 64}
#: Largest forced initiation interval under modulo pipelining.
II_CEILING = 1024


class DesignPoint:
    """One accelerator microarchitecture configuration."""

    #: Every field, in constructor order: the one list behind
    #: :meth:`to_record`, :meth:`from_record` and :meth:`replace`.
    FIELDS = ("lanes", "partitions", "mem_interface", "pipelined_dma",
              "dma_triggered_compute", "double_buffer", "cache_size_kb",
              "cache_line", "cache_ports", "cache_assoc", "prefetcher",
              "spad_ports", "perfect_memory", "pipelining", "ii")

    def __init__(self, lanes=4, partitions=4, mem_interface="dma",
                 pipelined_dma=True, dma_triggered_compute=True,
                 double_buffer=False, cache_size_kb=8, cache_line=64,
                 cache_ports=2, cache_assoc=4, prefetcher="stride",
                 spad_ports=1, perfect_memory=False,
                 pipelining="barriers", ii="auto"):
        self.lanes = _integer("lanes", lanes)
        self.partitions = _integer("partitions", partitions)
        self.mem_interface = mem_interface
        self.pipelined_dma = _boolean("pipelined_dma", pipelined_dma)
        self.dma_triggered_compute = _boolean("dma_triggered_compute",
                                              dma_triggered_compute)
        # Section IV-B2: double buffering = full/empty bits tracked at
        # half-array granularity instead of cache-line granularity.
        self.double_buffer = _boolean("double_buffer", double_buffer)
        # Loop-pipelining discipline of the datapath (Section IV-D
        # describes the synchronizing variant):
        #   "barriers" — iteration rounds synchronize (default);
        #   "off"      — rounds overlap freely (classic Aladdin);
        #   "modulo"   — rounds overlap at a modulo-scheduled initiation
        #                interval (see repro.aladdin.modulo); ``ii`` is
        #                "auto" (search for the minimal feasible II) or a
        #                forced cycle count.
        self.pipelining = pipelining
        # ``ii`` only means something under modulo; canonicalize it away
        # otherwise so design keys/caches never split on a dead knob.
        self.ii = ii if pipelining == "modulo" else "auto"
        self.cache_size_kb = _integer("cache_size_kb", cache_size_kb)
        self.cache_line = _integer("cache_line", cache_line)
        self.cache_ports = _integer("cache_ports", cache_ports)
        self.cache_assoc = _integer("cache_assoc", cache_assoc)
        self.prefetcher = prefetcher
        self.spad_ports = _integer("spad_ports", spad_ports)
        # Burger-decomposition idealization (Figure 7 "processing time").
        self.perfect_memory = _boolean("perfect_memory", perfect_memory)
        self.validate()

    def validate(self):
        """Raise ConfigError on out-of-range parameters."""
        for name, ceiling in INTEGER_CEILINGS.items():
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
            if value > ceiling:
                raise ConfigError(f"{name} must be <= {ceiling}, got {value}")
        if self.mem_interface not in ("dma", "cache"):
            raise ConfigError(
                f"mem_interface must be 'dma' or 'cache', "
                f"got {self.mem_interface!r}")
        if self.pipelining not in ("off", "barriers", "modulo"):
            raise ConfigError(
                f"pipelining must be 'off', 'barriers' or 'modulo', "
                f"got {self.pipelining!r}")
        if self.ii != "auto" and (not isinstance(self.ii, int)
                                  or isinstance(self.ii, bool)
                                  or not 1 <= self.ii <= II_CEILING):
            raise ConfigError(
                f"ii must be 'auto' or an integer in [1, {II_CEILING}], "
                f"got {self.ii!r}")
        if self.cache_size_kb * 1024 % (self.cache_line * self.cache_assoc):
            raise ConfigError(
                f"cache {self.cache_size_kb}KB not divisible by "
                f"line({self.cache_line}) x assoc({self.cache_assoc})")
        if self.prefetcher not in ("none", "stride"):
            raise ConfigError(f"unknown prefetcher {self.prefetcher!r}")

    @property
    def is_dma(self):
        return self.mem_interface == "dma"

    def to_record(self):
        """Every field as a plain JSON-able dict, inverted exactly by
        :meth:`from_record`."""
        return {name: getattr(self, name) for name in self.FIELDS}

    @classmethod
    def from_record(cls, doc):
        """The design a record describes; fields it omits keep their
        defaults, and a non-dict or an unknown field raises
        :class:`ConfigError`."""
        if not isinstance(doc, dict):
            raise ConfigError(f"design must be a JSON object, got {doc!r}")
        unknown = sorted(set(doc).difference(cls.FIELDS))
        if unknown:
            raise ConfigError(
                f"unknown design field(s) {unknown}; valid fields: "
                f"{sorted(cls.FIELDS)}")
        return cls(**doc)

    def replace(self, **kwargs):
        """A copy with some fields changed."""
        return DesignPoint(**{**self.to_record(), **kwargs})

    def key(self):
        """Hashable identity (used by sweeps and caches)."""
        if self.is_dma:
            return ("dma", self.lanes, self.partitions, self.pipelined_dma,
                    self.dma_triggered_compute, self.double_buffer,
                    (self.pipelining, self.ii), self.spad_ports)
        return ("cache", self.lanes, self.partitions, self.cache_size_kb,
                self.cache_line, self.cache_ports, self.cache_assoc,
                self.prefetcher, (self.pipelining, self.ii),
                self.perfect_memory)

    def __repr__(self):
        # The interface always, then every field that differs from its
        # default: two designs that print alike are equal.
        fields = [f"mem_interface={self.mem_interface!r}"]
        fields += [f"{name}={value!r}"
                   for name, value in self.to_record().items()
                   if name != "mem_interface" and value != _DEFAULTS[name]]
        return f"DesignPoint({', '.join(fields)})"


_DEFAULTS = DesignPoint().to_record()


class SoCConfig:
    """Platform-wide parameters shared by every accelerator on the SoC."""

    def __init__(self, bus_width_bits=32, accel_clock_mhz=100,
                 cpu_clock_mhz=667, dram_banks=8, dram_row_bytes=4096,
                 dram_row_hit_ns=25.0, dram_row_miss_ns=50.0,
                 flush_ns_per_line=84.0, invalidate_ns_per_line=71.0,
                 ioctl_ns=500.0, poll_interval_ns=100.0,
                 dma_setup_cycles=40, dma_burst_bytes=64,
                 dma_max_outstanding=4, dma_block_bytes=4096,
                 tlb_entries=8, tlb_miss_ns=200.0, mshrs=16,
                 cpu_cache_kb=512, cpu_cache_line=64,
                 background_traffic=False, traffic_interval_cycles=40,
                 traffic_burst_bytes=64, fence_ns=50.0):
        self.bus_width_bits = bus_width_bits
        self.accel_clock_mhz = accel_clock_mhz
        self.cpu_clock_mhz = cpu_clock_mhz
        self.dram_banks = dram_banks
        self.dram_row_bytes = dram_row_bytes
        self.dram_row_hit_ns = dram_row_hit_ns
        self.dram_row_miss_ns = dram_row_miss_ns
        self.flush_ns_per_line = flush_ns_per_line
        self.invalidate_ns_per_line = invalidate_ns_per_line
        self.ioctl_ns = ioctl_ns
        self.poll_interval_ns = poll_interval_ns
        self.dma_setup_cycles = dma_setup_cycles
        self.dma_burst_bytes = dma_burst_bytes
        self.dma_max_outstanding = dma_max_outstanding
        self.dma_block_bytes = dma_block_bytes
        self.tlb_entries = tlb_entries
        self.tlb_miss_ns = tlb_miss_ns
        self.mshrs = mshrs
        self.cpu_cache_kb = cpu_cache_kb
        self.cpu_cache_line = cpu_cache_line
        self.background_traffic = background_traffic
        self.traffic_interval_cycles = traffic_interval_cycles
        self.traffic_burst_bytes = traffic_burst_bytes
        self.fence_ns = fence_ns
        self.validate()

    def validate(self):
        """Raise ConfigError on inconsistent platform parameters."""
        if self.bus_width_bits % 8:
            raise ConfigError("bus width must be a whole number of bytes")
        if self.dma_block_bytes < self.dma_burst_bytes:
            raise ConfigError("DMA block must be at least one burst")
        if self.accel_clock_mhz <= 0 or self.cpu_clock_mhz <= 0:
            raise ConfigError("clock frequencies must be positive")
        if self.background_traffic:
            service_cycles = 1 + -(-self.traffic_burst_bytes
                                   // (self.bus_width_bits // 8))
            if self.traffic_interval_cycles <= service_cycles:
                raise ConfigError(
                    f"traffic interval ({self.traffic_interval_cycles} cy) "
                    f"must exceed the bus service time per burst "
                    f"({service_cycles} cy) or the bus queue diverges")

    def replace(self, **kwargs):
        """A copy with some fields changed."""
        fields = {k: v for k, v in self.__dict__.items()}
        fields.update(kwargs)
        return SoCConfig(**fields)
