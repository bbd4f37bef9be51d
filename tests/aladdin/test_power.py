"""Power/energy models."""

import pytest

from repro.aladdin.activity import Activity, CacheActivity, SpadActivity
from repro.aladdin.ir import FuClass, Op
from repro.aladdin.power import (
    EnergyBreakdown,
    PowerModel,
    sram_access_energy_pj,
    sram_leakage_mw,
)
from repro.memory.sram import ArraySpec, Scratchpad


class TestSramModel:
    def test_access_energy_grows_with_capacity(self):
        assert sram_access_energy_pj(16384) > sram_access_energy_pj(1024)

    def test_sublinear_scaling(self):
        # sqrt scaling: 4x the capacity, 2x the energy.
        assert sram_access_energy_pj(4096) == pytest.approx(
            2 * sram_access_energy_pj(1024))

    def test_wider_words_cost_more(self):
        assert sram_access_energy_pj(4096, 8) == pytest.approx(
            2 * sram_access_energy_pj(4096, 4))

    def test_leakage_linear_in_capacity(self):
        base = sram_leakage_mw(1024, banks=1)
        double = sram_leakage_mw(2048, banks=1)
        assert double > base

    def test_banking_overhead(self):
        assert sram_leakage_mw(4096, banks=16) > sram_leakage_mw(4096, banks=1)


def _model(lanes, hist, spad=None, cache=None):
    return PowerModel(Activity(lanes, hist, spad=spad, cache=cache))


def _cache(ports, size_bytes=32 * 1024, assoc=8):
    return CacheActivity(size_bytes, assoc, ports, mshrs=16, reads=0,
                         writes=0, fills=0, prefetch_fills=0, writebacks=0)


class TestPowerModel:
    def _hist(self):
        return {Op.FMUL: 100, Op.FADD: 100, Op.LOAD: 50, Op.STORE: 50}

    def test_fu_classes_inferred_from_ops(self):
        activity = Activity(4, self._hist())
        assert FuClass.FMUL in activity.fu_classes
        assert FuClass.FADD in activity.fu_classes
        assert FuClass.MEM in activity.fu_classes
        assert FuClass.FDIV not in activity.fu_classes

    def test_fu_dynamic_counts_every_op(self):
        model = _model(1, {Op.FMUL: 10})
        # 10 x (1.80 + 0.05 overhead)
        assert model.fu_dynamic_pj() == pytest.approx(18.5)

    def test_leakage_scales_with_lanes(self):
        m1 = _model(1, self._hist())
        m4 = _model(4, self._hist())
        assert m4.fu_leakage_mw() == pytest.approx(4 * m1.fu_leakage_mw())

    def test_energy_breakdown_totals(self):
        spad = Scratchpad([ArraySpec("a", 1024, 4)], 2)
        for _ in range(10):
            spad.try_access("a", 0, 0)
        model = _model(2, self._hist(), spad=SpadActivity(spad))
        bd = model.energy(runtime_ticks=10**6)
        assert bd.total_pj == pytest.approx(
            bd.fu_dynamic + bd.fu_leakage + bd.spad_dynamic
            + bd.spad_leakage)
        assert bd.spad_dynamic > 0
        assert bd.cache_dynamic == 0

    def test_given_counts_price_like_live_counts(self):
        """The fast tier's record (geometry + counted accesses) prices
        exactly like the live scratchpad that made those accesses."""
        spad = Scratchpad([ArraySpec("a", 1024, 4),
                           ArraySpec("b", 256, 8)], 2)
        for cycle in range(7):
            assert spad.try_access("a", 0, cycle)
        live = _model(2, self._hist(), spad=SpadActivity(spad))
        fresh = Scratchpad([ArraySpec("a", 1024, 4),
                            ArraySpec("b", 256, 8)], 2)
        given = _model(2, self._hist(),
                       spad=SpadActivity(fresh, {"a": 7, "unused": 3}))
        assert given.spad_dynamic_pj() == live.spad_dynamic_pj()
        assert given.spad_leakage_mw() == live.spad_leakage_mw()

    def test_longer_runtime_more_leakage_same_dynamic(self):
        model = _model(2, self._hist())
        e1 = model.energy(10**6)
        e2 = model.energy(2 * 10**6)
        assert e2.fu_leakage == pytest.approx(2 * e1.fu_leakage)
        assert e2.fu_dynamic == pytest.approx(e1.fu_dynamic)

    def test_breakdown_as_dict(self):
        bd = EnergyBreakdown()
        d = bd.as_dict()
        assert set(d) == {"fu_dynamic", "fu_leakage", "spad_dynamic",
                          "spad_leakage", "cache_dynamic", "cache_leakage",
                          "tlb"}

    def test_multiported_cache_leaks_more(self):
        """Figure 10's asymmetry: big multi-ported caches are much more
        expensive than partitioned scratchpads."""
        eight = _model(4, self._hist(), cache=_cache(ports=8))
        one = _model(4, self._hist(), cache=_cache(ports=1))
        assert eight.cache_leakage_mw() > 2 * one.cache_leakage_mw()

    def test_sums_follow_breakdown_order(self):
        spad = Scratchpad([ArraySpec("a", 1024, 4)], 2)
        spad.try_access("a", 0, 0)
        model = _model(2, self._hist(), spad=SpadActivity(spad),
                       cache=_cache(ports=2))
        assert model.dynamic_pj() == (
            model.fu_dynamic_pj() + model.spad_dynamic_pj()
            + model.cache_dynamic_pj() + model.tlb_pj())
        assert model.leakage_mw() == (
            model.fu_leakage_mw() + model.spad_leakage_mw()
            + model.cache_leakage_mw())
