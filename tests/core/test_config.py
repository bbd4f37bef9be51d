"""Design points, SoC configuration, and the Figure 3 parameter table."""

import inspect

import pytest

from repro.core.config import PARAMETER_TABLE, DesignPoint, SoCConfig
from repro.errors import ConfigError


class TestParameterTable:
    """The table on the right of Figure 3, verbatim."""

    def test_lanes(self):
        assert PARAMETER_TABLE["datapath_lanes"] == (1, 2, 4, 8, 16)

    def test_partitions(self):
        assert PARAMETER_TABLE["scratchpad_partitions"] == (1, 2, 4, 8, 16)

    def test_transfer_mechanisms(self):
        assert PARAMETER_TABLE["data_transfer_mechanism"] == ("dma", "cache")

    def test_cache_geometry(self):
        assert PARAMETER_TABLE["cache_size_kb"] == (2, 4, 8, 16, 32, 64)
        assert PARAMETER_TABLE["cache_line_bytes"] == (16, 32, 64)
        assert PARAMETER_TABLE["cache_ports"] == (1, 2, 4, 8)
        assert PARAMETER_TABLE["cache_assoc"] == (4, 8)

    def test_measured_constants(self):
        assert PARAMETER_TABLE["cache_line_flush_ns"] == 84.0
        assert PARAMETER_TABLE["cache_line_invalidate_ns"] == 71.0
        assert PARAMETER_TABLE["mshrs"] == 16
        assert PARAMETER_TABLE["accelerator_tlb_entries"] == 8
        assert PARAMETER_TABLE["tlb_miss_latency_ns"] == 200.0

    def test_bus_widths(self):
        assert PARAMETER_TABLE["system_bus_width_bits"] == (32, 64)


class TestDesignPoint:
    def test_defaults_valid(self):
        d = DesignPoint()
        assert d.is_dma

    def test_invalid_interface(self):
        with pytest.raises(ConfigError):
            DesignPoint(mem_interface="nvlink")

    def test_invalid_lanes(self):
        with pytest.raises(ConfigError):
            DesignPoint(lanes=0)

    def test_invalid_cache_geometry(self):
        with pytest.raises(ConfigError):
            DesignPoint(mem_interface="cache", cache_size_kb=2,
                        cache_line=24, cache_assoc=4)

    def test_invalid_prefetcher(self):
        with pytest.raises(ConfigError):
            DesignPoint(prefetcher="oracle")

    def test_replace_copies(self):
        d = DesignPoint(lanes=4)
        d2 = d.replace(lanes=8)
        assert d.lanes == 4
        assert d2.lanes == 8
        assert d2.partitions == d.partitions

    def test_replace_validates(self):
        with pytest.raises(ConfigError):
            DesignPoint().replace(lanes=-1)

    def test_key_distinguishes_interfaces(self):
        dma = DesignPoint(mem_interface="dma")
        cache = DesignPoint(mem_interface="cache")
        assert dma.key() != cache.key()

    def test_key_ignores_irrelevant_fields(self):
        a = DesignPoint(mem_interface="dma", cache_size_kb=2)
        b = DesignPoint(mem_interface="dma", cache_size_kb=64)
        assert a.key() == b.key()

    def test_repr_readable(self):
        assert "dma" in repr(DesignPoint())
        assert "cache" in repr(DesignPoint(mem_interface="cache"))

    def test_fields_are_the_constructor_parameters(self):
        params = inspect.signature(DesignPoint).parameters
        assert DesignPoint.FIELDS == tuple(params)

    def test_record_round_trips_every_field(self):
        d = DesignPoint(mem_interface="cache", perfect_memory=True,
                        spad_ports=2, pipelining="modulo", ii=4)
        record = d.to_record()
        assert tuple(record) == DesignPoint.FIELDS
        assert DesignPoint.from_record(record).to_record() == record

    def test_record_omissions_keep_defaults(self):
        assert DesignPoint.from_record({"lanes": 8}).to_record() == \
            DesignPoint(lanes=8).to_record()


INTEGER_FIELDS = ("lanes", "partitions", "cache_size_kb", "cache_line",
                  "cache_ports", "cache_assoc", "spad_ports")


class TestIntegerFields:
    """Integral floats collapse to ints, so ``4.0`` means exactly ``4``
    everywhere, not only in the result-store key that already treats
    them as equal."""

    @pytest.mark.parametrize("field", INTEGER_FIELDS)
    def test_integral_float_becomes_int(self, field):
        value = getattr(DesignPoint(), field)
        d = DesignPoint(**{field: float(value)})
        assert getattr(d, field) == value
        assert type(getattr(d, field)) is int

    @pytest.mark.parametrize("field", INTEGER_FIELDS)
    @pytest.mark.parametrize("bad", [2.5, True, "4", None])
    def test_non_integers_rejected(self, field, bad):
        with pytest.raises(ConfigError, match=field):
            DesignPoint(**{field: bad})

    def test_float_lanes_run_like_int_lanes(self):
        from repro.core.export import results_to_json
        from repro.core.soc import run_design
        floats = run_design("aes-aes", DesignPoint(lanes=4.0,
                                                   partitions=4.0))
        ints = run_design("aes-aes", DesignPoint(lanes=4, partitions=4))
        assert results_to_json([floats]) == results_to_json([ints])


BOOLEAN_FIELDS = ("pipelined_dma", "dma_triggered_compute", "double_buffer",
                  "perfect_memory")


class TestBooleanFields:
    """Flags take only ``True``/``False``: ``1`` would reach a different
    result-store key than ``True`` and be simulated twice."""

    @pytest.mark.parametrize("field", BOOLEAN_FIELDS)
    @pytest.mark.parametrize("value", [True, False])
    def test_bools_accepted(self, field, value):
        assert getattr(DesignPoint(**{field: value}), field) is value

    @pytest.mark.parametrize("field", BOOLEAN_FIELDS)
    @pytest.mark.parametrize("bad", [1, 0, [1], {}, "yes", None, 1.0])
    def test_non_bools_rejected(self, field, bad):
        with pytest.raises(ConfigError, match=f"{field} must be a bool"):
            DesignPoint(**{field: bad})

    def test_replace_validates_flags(self):
        with pytest.raises(ConfigError, match="double_buffer"):
            DesignPoint().replace(double_buffer=1)


class TestSoCConfig:
    def test_defaults(self):
        cfg = SoCConfig()
        assert cfg.bus_width_bits == 32
        assert cfg.flush_ns_per_line == 84.0
        assert cfg.invalidate_ns_per_line == 71.0
        assert cfg.dma_setup_cycles == 40
        assert cfg.dma_block_bytes == 4096

    def test_bad_bus_width(self):
        with pytest.raises(ConfigError):
            SoCConfig(bus_width_bits=12)

    def test_block_smaller_than_burst(self):
        with pytest.raises(ConfigError):
            SoCConfig(dma_block_bytes=32, dma_burst_bytes=64)

    def test_unstable_traffic_rejected(self):
        with pytest.raises(ConfigError):
            SoCConfig(background_traffic=True, traffic_interval_cycles=4)

    def test_replace(self):
        cfg = SoCConfig().replace(bus_width_bits=64)
        assert cfg.bus_width_bits == 64
        assert cfg.flush_ns_per_line == 84.0
