"""Helpers inside the figures module."""

import pytest

from repro.core import figures


class TestGeomean:
    def test_single(self):
        assert figures._geomean([2.0]) == pytest.approx(2.0)

    def test_pair(self):
        assert figures._geomean([1.0, 4.0]) == pytest.approx(2.0)

    def test_scale_invariance(self):
        a = figures._geomean([1.0, 2.0, 4.0])
        b = figures._geomean([2.0, 4.0, 8.0])
        assert b == pytest.approx(2 * a)


class TestSaturatingCacheSize:
    def test_small_footprint_saturates_small(self):
        # aes touches <1 KB: the smallest cache must already saturate.
        size = figures.saturating_cache_size("aes-aes", lanes=2,
                                             sizes=(2, 8))
        assert size == 2

    def test_returns_swept_size(self):
        size = figures.saturating_cache_size("kmp", lanes=2, sizes=(2, 4))
        assert size in (2, 4)


class TestMemo:
    def test_memo_caches_and_clears(self):
        figures.clear_memo()
        calls = []

        def expensive():
            calls.append(1)
            return 42

        assert figures._memoized("k", expensive) == 42
        assert figures._memoized("k", expensive) == 42
        assert len(calls) == 1
        figures.clear_memo()
        figures._memoized("k", expensive)
        assert len(calls) == 2

    def test_new_sweep_options_drop_memoized_sweeps(self):
        # A sweep memoized under one set of options must not answer for
        # the next: the fault-injected sweep collects 8 of 9 points, the
        # default one all 9.
        figures.clear_memo()
        figures.set_sweep_options(fault="raise@0", on_error="collect")
        try:
            faulted = figures._scenario_sweep("aes-aes", "dma32", "quick")
        finally:
            figures.set_sweep_options()
        assert len(faulted) == 8
        assert len(figures._scenario_sweep("aes-aes", "dma32",
                                           "quick")) == 9
        figures.clear_memo()


class TestFigureSubsets:
    def test_fig6_workloads_span_dma_time_range(self):
        """The paper picks benchmarks 'whose DMA times span the range shown
        in Figure 2b' — our subset must include compute-bound and
        data-bound members."""
        rows = figures.fig2b(figures.FIG6_WORKLOADS)
        fracs = [r.compute_fraction for r in rows]
        assert max(fracs) > 0.5
        assert min(fracs) < 0.3
