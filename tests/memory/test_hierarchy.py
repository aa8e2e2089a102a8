"""Tests for the multi-level hierarchy, visible/invisible semantics,
the C(E) visible-access log, and cross-core sharing."""

from repro.memory import AccessKind, CacheHierarchy, HierarchyConfig, LevelConfig


def small_hierarchy(cores=2, **overrides):
    cfg = HierarchyConfig(
        l1i=LevelConfig(8, 2, latency=3),
        l1d=LevelConfig(8, 2, latency=3),
        l2=LevelConfig(16, 2, latency=12),
        llc=LevelConfig(16, 4, latency=40, policy="qlru"),
        dram_latency=200,
        l1d_mshrs=4,
        **overrides,
    )
    return CacheHierarchy(cores, cfg)


class TestLatencies:
    def test_cold_access_goes_to_dram(self):
        h = small_hierarchy()
        r = h.access(0, 0x1000)
        assert r.hit_level == "DRAM"
        assert r.latency == 3 + 12 + 40 + 200

    def test_second_access_hits_l1(self):
        h = small_hierarchy()
        h.access(0, 0x1000)
        r = h.access(0, 0x1000)
        assert r.hit_level == "L1"
        assert r.latency == 3

    def test_cross_core_hits_llc(self):
        h = small_hierarchy()
        h.access(0, 0x1000)
        r = h.access(1, 0x1000)
        assert r.hit_level == "LLC"
        assert r.latency == 3 + 12 + 40

    def test_l2_hit_after_l1_eviction(self):
        h = small_hierarchy()
        h.access(0, 0x1000)
        # evict from tiny L1 set (2 ways) with two conflicting lines
        l1_stride = 8 * 64
        h.access(0, 0x1000 + l1_stride)
        h.access(0, 0x1000 + 2 * l1_stride)
        r = h.access(0, 0x1000)
        assert r.hit_level in ("L2", "LLC")

    def test_inst_vs_data_l1s_are_separate(self):
        h = small_hierarchy()
        h.access(0, 0x1000, AccessKind.DATA)
        r = h.access(0, 0x1000, AccessKind.INST)
        assert r.hit_level != "L1"

    def test_miss_threshold_separates_llc_from_dram(self):
        h = small_hierarchy()
        t = h.miss_threshold()
        assert h.llc_hit_latency < t < h.dram_floor_latency


class TestVisibleLog:
    def test_l1_hits_do_not_log(self):
        h = small_hierarchy()
        h.access(0, 0x1000)
        n = len(h.visible_log)
        h.access(0, 0x1000)
        assert len(h.visible_log) == n

    def test_misses_log_with_cycle_and_core(self):
        h = small_hierarchy()
        h.access(1, 0x2000, cycle=55)
        entry = h.visible_log[-1]
        assert entry.core == 1
        assert entry.cycle == 55
        assert entry.line == 0x2000
        assert not entry.hit

    def test_llc_hit_logged_as_hit(self):
        h = small_hierarchy()
        h.access(0, 0x2000)
        h.access(1, 0x2000)
        assert h.visible_log[-1].hit

    def test_invisible_never_logs(self):
        h = small_hierarchy()
        h.access(0, 0x3000, visible=False)
        assert h.visible_log == []

    def test_clear_and_slice(self):
        h = small_hierarchy()
        h.access(0, 0x1000)
        idx = len(h.visible_log)
        h.access(0, 0x2000)
        assert [e.line for e in h.log_since(idx)] == [0x2000]
        h.clear_log()
        assert h.visible_log == []


class TestInvisibleSemantics:
    def test_invisible_does_not_fill(self):
        h = small_hierarchy()
        r = h.access(0, 0x1000, visible=False)
        assert r.hit_level == "DRAM"
        assert h.hit_level(0, 0x1000) == "DRAM"

    def test_invisible_reports_current_residence(self):
        h = small_hierarchy()
        h.access(0, 0x1000)          # fills everywhere for core 0
        r = h.access(1, 0x1000, visible=False)
        assert r.hit_level == "LLC"

    def test_invisible_does_not_update_replacement(self):
        h = small_hierarchy()
        sets = h.l1d[0].layout.num_sets
        stride = sets * 64
        a, b, c = 0x1000, 0x1000 + stride, 0x1000 + 2 * stride
        h.access(0, a)
        h.access(0, b)  # L1 set (2-way) now {a, b}, b MRU
        h.access(0, a, visible=False)  # must NOT promote a
        h.access(0, c)
        assert not h.l1d[0].contains(a)


class TestFlushAndInclusivity:
    def test_flush_removes_everywhere(self):
        h = small_hierarchy()
        h.access(0, 0x1000)
        h.access(1, 0x1000)
        h.flush(0x1000)
        assert h.hit_level(0, 0x1000) == "DRAM"
        assert h.hit_level(1, 0x1000) == "DRAM"

    def test_llc_eviction_back_invalidates(self):
        h = small_hierarchy()
        target = 0x1000
        h.access(0, target)
        layout = h.llc.layout
        filler = []
        n = 1
        while len(filler) < h.llc.num_ways + 1:
            cand = layout.congruent_address(target, n)
            filler.append(cand)
            n += 1
        for line in filler:
            for _ in range(3):
                h.access(1, line)
        assert not h.l1d[0].contains(target)

    def test_flush_all(self):
        h = small_hierarchy()
        h.access(0, 0x1000)
        h.flush_all()
        assert h.hit_level(0, 0x1000) == "DRAM"


class TestWrite:
    def test_write_updates_memory_and_fills(self):
        h = small_hierarchy()
        h.write(0, 0x4000, 77)
        assert h.memory.peek(0x4000) == 77
        assert h.l1_hit(0, 0x4000)

    def test_values_flow_through_reads(self):
        h = small_hierarchy()
        h.write(0, 0x4000, 12)
        assert h.access(1, 0x4000).value == 12


class TestTouchL1:
    def test_deferred_touch_promotes(self):
        h = small_hierarchy()
        h.access(0, 0x1000)
        assert h.touch_l1(0, 0x1000)

    def test_touch_absent_line(self):
        h = small_hierarchy()
        assert not h.touch_l1(0, 0x9000)
