"""Area models."""

import pytest

from repro.aladdin.activity import Activity, CacheActivity, SpadActivity
from repro.aladdin.area import AreaModel, sram_area_um2
from repro.aladdin.ir import FuClass, Op
from repro.memory.sram import ArraySpec, Scratchpad


class TestSramArea:
    def test_zero_capacity(self):
        assert sram_area_um2(0) == 0.0

    def test_grows_with_capacity(self):
        assert sram_area_um2(8192) > sram_area_um2(1024)

    def test_banking_costs_area(self):
        assert sram_area_um2(8192, banks=16) > sram_area_um2(8192, banks=1)

    def test_roughly_linear_in_bits_at_scale(self):
        # Large arrays are cell-dominated: 4x capacity ~ 3-4x area.
        ratio = sram_area_um2(64 * 1024) / sram_area_um2(16 * 1024)
        assert 3.0 < ratio < 4.5


def _cache(size_bytes, ports, assoc=4):
    return CacheActivity(size_bytes, assoc, ports, mshrs=16, reads=0,
                         writes=0, fills=0, prefetch_fills=0, writebacks=0)


class TestAreaModel:
    def _model(self, lanes=4, **parts):
        return AreaModel(Activity(lanes, {Op.FMUL: 10, Op.LOAD: 10},
                                  **parts))

    def test_fu_area_scales_with_lanes(self):
        assert self._model(8).fu_area_um2() == 2 * self._model(4).fu_area_um2()

    def test_only_used_fu_classes_counted(self):
        just_alu = AreaModel(Activity(1, {Op.ADD: 1}))
        alu_and_fp = AreaModel(Activity(1, {Op.ADD: 1, Op.FMUL: 1}))
        assert just_alu.activity.fu_classes == {FuClass.ALU, FuClass.MEM}
        assert alu_and_fp.fu_area_um2() > just_alu.fu_area_um2()

    def test_breakdown_total(self):
        spad = Scratchpad([ArraySpec("a", 4096, 4)], 4)
        bd = self._model(spad=SpadActivity(spad)).area()
        assert bd.total_um2 == pytest.approx(
            bd.fu + bd.registers + bd.spad)
        assert bd.total_mm2 == pytest.approx(bd.total_um2 / 1e6)

    def test_cache_area_grows_with_ports(self):
        eight = self._model(cache=_cache(8192, ports=8))
        one = self._model(cache=_cache(8192, ports=1))
        assert eight.cache_area_um2() > 2 * one.cache_area_um2()

    def test_multiported_cache_beats_partitioned_scratchpad(self):
        """The paper's Figure 10 asymmetry, in area terms."""
        spad = Scratchpad([ArraySpec("a", 16 * 1024, 4)], 16)
        m = self._model(cache=_cache(16 * 1024, ports=8),
                        spad=SpadActivity(spad))
        assert m.cache_area_um2() > m.spad_area_um2()

    def test_area_ignores_access_counts(self):
        busy = Scratchpad([ArraySpec("a", 4096, 4)], 4)
        for cycle in range(10):
            busy.try_access("a", cycle, cycle)
        idle = Scratchpad([ArraySpec("a", 4096, 4)], 4)
        assert self._model(spad=SpadActivity(busy)).area().spad == \
            self._model(spad=SpadActivity(idle)).area().spad


class TestIntegration:
    def test_isolated_run_reports_area(self):
        from repro.aladdin.accelerator import Accelerator
        from tests.conftest import make_linear_trace
        res = Accelerator(make_linear_trace(16), 4, 4).run_isolated()
        assert res.area_mm2 > 0
        assert res.area.fu > 0
        assert res.area.spad > 0
        assert res.area.cache == 0

    def test_soc_run_reports_area(self):
        from repro.core.config import DesignPoint
        from repro.core.soc import run_design
        dma = run_design("aes-aes", DesignPoint(lanes=2, partitions=2))
        cache = run_design("aes-aes", DesignPoint(lanes=2,
                                                  mem_interface="cache"))
        assert dma.area_mm2 > 0
        assert cache.area.cache > 0
        assert cache.area.tlb > 0
        assert dma.area.cache == 0

    def test_area_scales_with_design_aggressiveness(self):
        from repro.core.config import DesignPoint
        from repro.core.soc import run_design
        small = run_design("gemm-ncubed", DesignPoint(lanes=1, partitions=1))
        big = run_design("gemm-ncubed", DesignPoint(lanes=16, partitions=16))
        assert big.area_mm2 > small.area_mm2
