"""Design points, SoC configuration, and the Figure 3 parameter table."""

import inspect

import pytest

from repro.core.config import (II_CEILING, INTEGER_CEILINGS, PARAMETER_TABLE,
                               DesignPoint, SoCConfig)
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

    @pytest.mark.parametrize("field, value", [
        ("cache_line", 0), ("cache_assoc", 0),
        ("cache_size_kb", 0), ("cache_size_kb", -4),
    ])
    def test_nonpositive_cache_geometry_rejected(self, field, value):
        # Regression: zero line or assoc divided by zero in the
        # divisibility rule, and a zero or negative size passed it.
        with pytest.raises(ConfigError, match=f"{field} must be >= 1"):
            DesignPoint(mem_interface="cache", **{field: value})

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

    @pytest.mark.parametrize("a, b", [
        (DesignPoint(pipelining="off"),
         DesignPoint(pipelining="modulo", ii=4, spad_ports=2,
                     double_buffer=True)),
        (DesignPoint(mem_interface="cache"),
         DesignPoint(mem_interface="cache", perfect_memory=True)),
    ])
    def test_repr_tells_designs_apart(self, a, b):
        # Regression: the repr printed a fixed subset of the fields, so
        # these pairs printed alike.
        assert repr(a) != repr(b)

    def test_repr_shows_fields_off_their_defaults(self):
        d = DesignPoint(lanes=8, pipelining="modulo", ii=4)
        assert repr(d) == ("DesignPoint(mem_interface='dma', lanes=8, "
                           "pipelining='modulo', ii=4)")

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


def _drawn_designs():
    """Every design a sweep grid, figure or scenario of the paper draws."""
    from repro.core import figures, scenarios
    from repro.core.sweep import (cache_design_space, dma_design_space,
                                  ii_design_space)

    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    designs = []
    for density in ("quick", "standard", "full"):
        dma = dma_design_space(density)
        designs += dma + cache_design_space(density)
        designs += [d for base in dma for d in ii_design_space(base)]
        for scenario in scenarios.SCENARIOS.values():
            if scenario.mem_interface != "isolated":
                space = scenario.design_space(density)
                designs += [scenarios.naive_design_for("aes-aes", d,
                                                       scenario)
                            for d in space]
    designs += ii_design_space(iis=default(figures.fig11, "iis"))
    lanes = (set(default(figures.fig6b, "lanes_list"))
             | set(default(figures.fig7, "lanes_list"))
             | {16, default(figures.fig6a, "lanes")})
    for n in sorted(lanes):
        designs.append(DesignPoint(lanes=n, partitions=n))
        designs += [DesignPoint(lanes=n, mem_interface="cache",
                                cache_size_kb=size, cache_ports=4,
                                perfect_memory=perfect)
                    for size in default(figures.saturating_cache_size,
                                        "sizes")
                    for perfect in (False, True)]
    return designs


class TestCeilings:
    """Every integer knob has an upper bound, so one request cannot make
    the simulator allocate without limit."""

    def test_every_drawn_design_is_within_the_ceilings(self):
        designs = _drawn_designs()
        assert len(designs) > 1000
        for d in designs:
            DesignPoint.from_record(d.to_record())
            for name, ceiling in INTEGER_CEILINGS.items():
                assert getattr(d, name) <= ceiling, d
            assert d.ii == "auto" or d.ii <= II_CEILING, d

    def test_parameter_table_is_within_the_ceilings(self):
        for table_key, field in (("datapath_lanes", "lanes"),
                                 ("scratchpad_partitions", "partitions"),
                                 ("cache_size_kb", "cache_size_kb"),
                                 ("cache_line_bytes", "cache_line"),
                                 ("cache_ports", "cache_ports"),
                                 ("cache_assoc", "cache_assoc")):
            assert max(PARAMETER_TABLE[table_key]) <= INTEGER_CEILINGS[field]

    @pytest.mark.parametrize("field", sorted(INTEGER_CEILINGS))
    def test_ceiling_itself_is_accepted(self, field):
        d = DesignPoint(mem_interface="cache",
                        **{field: INTEGER_CEILINGS[field]})
        assert getattr(d, field) == INTEGER_CEILINGS[field]

    @pytest.mark.parametrize("field", sorted(INTEGER_CEILINGS))
    def test_value_above_ceiling_rejected(self, field):
        # Rejected at construction, before any cache or lane state is
        # built from the value.
        with pytest.raises(ConfigError, match=f"{field} must be <= "):
            DesignPoint(mem_interface="cache",
                        **{field: INTEGER_CEILINGS[field] + 1})
        with pytest.raises(ConfigError, match=f"{field} must be <= "):
            DesignPoint(**{field: 10 ** 9})

    def test_forced_ii_ceiling(self):
        assert DesignPoint(pipelining="modulo", ii=II_CEILING).ii == \
            II_CEILING
        with pytest.raises(ConfigError, match="ii must be"):
            DesignPoint(pipelining="modulo", ii=II_CEILING + 1)


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
