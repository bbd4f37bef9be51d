"""Strided prefetcher."""

from repro.memory.prefetch import NullPrefetcher, StridePrefetcher


class TestStrideDetection:
    def test_no_candidates_on_first_touch(self):
        p = StridePrefetcher()
        assert p.observe("s", 0x100, 64) == []

    def test_needs_two_matching_strides(self):
        p = StridePrefetcher(degree=1)
        p.observe("s", 0, 64)
        assert p.observe("s", 64, 64) == []     # first stride observed
        assert p.observe("s", 128, 64) == [192]  # stride confirmed

    def test_degree_controls_lookahead(self):
        p = StridePrefetcher(degree=3)
        for addr in (0, 64, 128):
            out = p.observe("s", addr, 64)
        assert out == [192, 256, 320]

    def test_stride_change_resets_confidence(self):
        p = StridePrefetcher(degree=1)
        for addr in (0, 64, 128):
            p.observe("s", addr, 64)
        assert p.observe("s", 1000, 64) == []
        assert p.observe("s", 1064, 64) == []   # rebuilding confidence
        assert p.observe("s", 1128, 64) == [1128 + 64 - (1128 + 64) % 64]

    def test_zero_stride_never_prefetches(self):
        p = StridePrefetcher()
        for _ in range(5):
            out = p.observe("s", 0x100, 64)
        assert out == []

    def test_large_stride_skips_own_line(self):
        p = StridePrefetcher(degree=2)
        for addr in (0, 512, 1024):
            out = p.observe("s", addr, 64)
        assert out == [1536, 2048]

    def test_streams_tracked_independently(self):
        p = StridePrefetcher(degree=1)
        for i in range(3):
            p.observe("x", i * 64, 64)
            out_y = p.observe("y", i * 128, 64)
        assert out_y == [3 * 128 - (3 * 128) % 64]

    def test_table_eviction(self):
        p = StridePrefetcher(table_size=2)
        p.observe("a", 0, 64)
        p.observe("b", 0, 64)
        p.observe("c", 0, 64)  # evicts oldest
        assert len(p._table) == 2

    def test_table_evicts_oldest_insertion_not_oldest_update(self):
        p = StridePrefetcher(table_size=2)
        p.observe("s1", 0, 64)
        p.observe("s2", 0, 64)
        p.observe("s1", 64, 64)   # updates s1; its table place stays first
        p.observe("s3", 0, 64)
        assert list(p._table) == ["s2", "s3"]


class TestNullPrefetcher:
    def test_never_issues(self):
        p = NullPrefetcher()
        for i in range(10):
            assert p.observe("s", i * 64, 64) == []
        assert p.issued == 0
