"""Tests for eviction-set construction."""

from repro.memory import (
    CacheHierarchy,
    HierarchyConfig,
    LevelConfig,
    build_eviction_set,
    find_eviction_set_by_timing,
)


def hierarchy(slices=2):
    cfg = HierarchyConfig(
        l1i=LevelConfig(8, 2, latency=3),
        l1d=LevelConfig(8, 2, latency=3),
        l2=LevelConfig(16, 2, latency=12),
        llc=LevelConfig(32, 4, latency=40, policy="qlru", num_slices=slices),
        dram_latency=200,
    )
    return CacheHierarchy(2, cfg)


class TestOmniscientBuilder:
    def test_all_lines_congruent(self):
        h = hierarchy()
        target = 0x12345
        evs = build_eviction_set(h, target, 8)
        layout = h.llc.layout
        assert len(set(evs)) == 8
        for line in evs:
            assert layout.same_set(target, line)
            assert line != layout.line_addr(target)

    def test_skip_produces_disjoint_sets(self):
        h = hierarchy()
        target = 0x4000
        evs1 = build_eviction_set(h, target, 6)
        evs2 = build_eviction_set(h, target, 6, skip=6)
        assert not set(evs1) & set(evs2)

    def test_avoid_list_respected(self):
        h = hierarchy()
        target = 0x4000
        first = build_eviction_set(h, target, 3)
        second = build_eviction_set(h, target, 3, avoid=first)
        assert not set(first) & set(second)

    def test_eviction_set_actually_evicts(self):
        h = hierarchy()
        target = 0x8000
        evs = build_eviction_set(h, target, h.llc.num_ways + 1)
        h.access(0, target)
        for _ in range(3):
            for line in evs:
                h.access(0, line)
        assert not h.llc.contains(target)


class TestTimingBuilder:
    def test_finds_congruent_lines(self):
        h = hierarchy()
        target = 0x6000
        evs = find_eviction_set_by_timing(h, target, h.llc.num_ways, core=1)
        layout = h.llc.layout
        assert len(evs) == h.llc.num_ways
        for line in evs:
            assert layout.same_set(target, line)

    def test_single_slice_trivial(self):
        h = hierarchy(slices=1)
        target = 0x6000
        evs = find_eviction_set_by_timing(h, target, 4, core=1)
        assert len(evs) == 4
