"""Tests for the MESI-style coherence layer."""

from hypothesis import given, settings, strategies as st

from repro.memory import CacheHierarchy, CoherenceDirectory, CoherenceState

from tests.conftest import small_hierarchy_config

LINE = 0x4_0000


class TestDirectoryStates:
    def test_first_reader_gets_exclusive(self):
        d = CoherenceDirectory(2)
        assert d.on_read(0, LINE) == 0
        assert d.state(0, LINE) is CoherenceState.EXCLUSIVE

    def test_second_reader_shares(self):
        d = CoherenceDirectory(2)
        d.on_read(0, LINE)
        d.on_read(1, LINE)
        assert d.state(0, LINE) is CoherenceState.SHARED
        assert d.state(1, LINE) is CoherenceState.SHARED

    def test_write_modifies_and_invalidates(self):
        d = CoherenceDirectory(3)
        d.on_read(0, LINE)
        d.on_read(1, LINE)
        invalidated, penalty = d.on_write(2, LINE)
        assert sorted(invalidated) == [0, 1]
        assert penalty == 0  # no remote M copy
        assert d.state(2, LINE) is CoherenceState.MODIFIED
        assert d.state(0, LINE) is None

    def test_read_of_remote_modified_pays_writeback(self):
        d = CoherenceDirectory(2, writeback_penalty=30)
        d.on_write(0, LINE)
        penalty = d.on_read(1, LINE)
        assert penalty == 30
        assert d.state(0, LINE) is CoherenceState.SHARED
        assert d.state(1, LINE) is CoherenceState.SHARED

    def test_write_to_remote_modified_pays_writeback(self):
        d = CoherenceDirectory(2, writeback_penalty=30)
        d.on_write(0, LINE)
        invalidated, penalty = d.on_write(1, LINE)
        assert invalidated == [0]
        assert penalty == 30
        assert d.owner(LINE) == 1

    def test_own_rewrite_is_free(self):
        d = CoherenceDirectory(2)
        d.on_write(0, LINE)
        invalidated, penalty = d.on_write(0, LINE)
        assert invalidated == []
        assert penalty == 0

    def test_evict_and_flush(self):
        d = CoherenceDirectory(2)
        d.on_read(0, LINE)
        d.on_read(1, LINE)
        d.on_evict(0, LINE)
        assert d.sharers(LINE) == [1]
        d.on_flush(LINE)
        assert d.sharers(LINE) == []

    @settings(max_examples=50, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["r", "w", "e"]),
                st.integers(0, 2),
                st.integers(0, 3),
            ),
            min_size=1,
            max_size=50,
        )
    )
    def test_mesi_invariant_under_random_traffic(self, ops):
        """M or E always implies a sole sharer."""
        d = CoherenceDirectory(3)
        for op, core, line_idx in ops:
            line = line_idx * 64
            if op == "r":
                d.on_read(core, line)
            elif op == "w":
                d.on_write(core, line)
            else:
                d.on_evict(core, line)
            assert d.invariant_ok(line)


class TestHierarchyIntegration:
    def make(self):
        return CacheHierarchy(2, small_hierarchy_config())

    def test_store_invalidates_remote_copy(self):
        h = self.make()
        h.access(1, LINE)  # core 1 caches the line
        assert h.l1_hit(1, LINE)
        h.write(0, LINE, 5)  # core 0 stores
        assert not h.l1_hit(1, LINE)
        assert h.coherence.owner(LINE) == 0

    def test_remote_modified_read_costs_more(self):
        h = self.make()
        h.write(0, LINE, 5)
        # flush core 1's path is empty; its read pays the writeback
        baseline = CacheHierarchy(2, small_hierarchy_config())
        baseline.write(0, LINE, 5)
        cfg_penalty = h.config.coherence_writeback_penalty
        lat_with = h.access(1, LINE).latency
        # same topology without a remote M copy:
        baseline.access(0, LINE)  # owner reads own line (free)
        lat_owner = baseline.access(0, LINE).latency
        assert lat_with >= cfg_penalty

    def test_invisible_access_leaves_coherence_untouched(self):
        h = self.make()
        h.write(0, LINE, 5)
        h.access(1, LINE, visible=False)
        assert h.coherence.state(1, LINE) is None
        assert h.coherence.owner(LINE) == 0

    def test_flush_clears_directory(self):
        h = self.make()
        h.write(0, LINE, 5)
        h.flush(LINE)
        assert h.coherence.sharers(LINE) == []

    def test_values_remain_correct_across_cores(self):
        h = self.make()
        h.write(0, LINE, 42)
        assert h.access(1, LINE).value == 42
        h.write(1, LINE, 43)
        assert h.access(0, LINE).value == 43

    def test_can_disable_coherence(self):
        from dataclasses import replace

        cfg = replace(small_hierarchy_config(), enable_coherence=False)
        h = CacheHierarchy(2, cfg)
        assert h.coherence is None
        h.access(1, LINE)
        h.write(0, LINE, 5)
        assert h.l1_hit(1, LINE)  # stale presence: the old behaviour

    def test_producer_consumer_ping_pong_counts(self):
        h = self.make()
        for i in range(4):
            h.write(i % 2, LINE, i)
        assert h.coherence.stats.writeback_penalties >= 3
        assert h.coherence.stats.invalidations_sent >= 3
