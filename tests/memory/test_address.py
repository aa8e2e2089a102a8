"""Tests for address layout arithmetic."""

import pytest

from repro.core.victims import ATTACK_HIERARCHY
from repro.memory import AddressLayout, Cache, CacheHierarchy, HierarchyConfig
from repro.memory.address import shared_layout


class TestAddressLayout:
    def test_line_addr_masks_offset(self):
        layout = AddressLayout(line_size=64, num_sets=64)
        assert layout.line_addr(0x12345) == 0x12340
        assert layout.line_addr(0x12340) == 0x12340

    def test_set_index_uses_middle_bits(self):
        layout = AddressLayout(line_size=64, num_sets=64)
        assert layout.set_index(0x0) == 0
        assert layout.set_index(64) == 1
        assert layout.set_index(64 * 64) == 0  # wraps into tag

    def test_tag_strips_set_and_offset(self):
        layout = AddressLayout(line_size=64, num_sets=64)
        assert layout.tag(64 * 64) == 1

    def test_single_slice_is_zero(self):
        layout = AddressLayout(num_slices=1)
        assert layout.slice_id(0xABCDEF) == 0

    def test_slice_hash_deterministic_and_bounded(self):
        layout = AddressLayout(num_slices=8)
        for addr in range(0, 1 << 20, 4096):
            s = layout.slice_id(addr)
            assert 0 <= s < 8
            assert s == layout.slice_id(addr)

    def test_slice_hash_spreads(self):
        layout = AddressLayout(num_slices=4, num_sets=64)
        seen = {layout.slice_id(i * 64 * 64) for i in range(64)}
        assert len(seen) == 4

    def test_same_set_requires_slice_and_index(self):
        layout = AddressLayout(num_slices=4, num_sets=64)
        a = 0x10000
        b = layout.congruent_address(a, 1)
        assert layout.same_set(a, b)
        assert not layout.same_set(a, a + 64)

    def test_congruent_addresses_distinct(self):
        layout = AddressLayout(num_slices=4, num_sets=64)
        base = 0x4000
        lines = [layout.congruent_address(base, n) for n in range(8)]
        assert len(set(lines)) == 8
        for line in lines:
            assert layout.same_set(base, line)

    def test_congruent_zero_returns_base_line(self):
        layout = AddressLayout()
        assert layout.congruent_address(0x1234, 0) == layout.line_addr(0x1234)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            AddressLayout(line_size=48)
        with pytest.raises(ValueError):
            AddressLayout(num_sets=100)
        with pytest.raises(ValueError):
            AddressLayout(num_slices=3)

    def test_global_set_disjoint_across_slices(self):
        layout = AddressLayout(num_slices=4, num_sets=16)
        a, b = 0x1000, 0x2000
        if layout.slice_id(a) != layout.slice_id(b):
            assert layout.global_set(a) != layout.global_set(b) or (
                layout.set_index(a) != layout.set_index(b)
            )


def _memoized_global_set(layout, addr, memo):
    """The line -> set memo ``AddressLayout.global_set`` kept per layout
    before layouts were shared."""
    line_id = addr >> layout.offset_bits
    cached = memo.get(line_id)
    if cached is None:
        cached = memo.setdefault(
            line_id,
            layout.slice_id(addr) * layout.num_sets + (line_id & (layout.num_sets - 1)),
        )
    return cached


class TestSharedLayouts:
    def test_equal_geometries_share_one_layout(self):
        a = shared_layout(64, 64, 4)
        assert shared_layout(line_size=64, num_sets=64, num_slices=4) is a
        assert shared_layout(64, 64, 4) == AddressLayout(num_sets=64, num_slices=4)
        assert shared_layout(64, 64) is shared_layout(64, 64, 1)
        assert shared_layout(64, 128, 4) is not a
        assert shared_layout(32, 64, 4) is not a

    def test_caches_of_one_geometry_share_their_layout(self):
        h1, h2 = CacheHierarchy(2), CacheHierarchy(3, ATTACK_HIERARCHY)
        assert h1.l1i[0].layout is h1.l1d[1].layout is h2.l1d[2].layout
        assert h1.llc.layout is not h2.llc.layout  # 4 slices vs 1
        assert Cache("x", num_sets=256, num_ways=4).layout is h1.l2[0].layout

    def test_a_shared_layout_holds_no_mutable_state(self):
        for cache in CacheHierarchy(2).all_caches():
            for value in vars(cache.layout).values():
                assert isinstance(value, int), value

    @pytest.mark.parametrize("config", [HierarchyConfig(), ATTACK_HIERARCHY])
    def test_global_set_matches_the_memoized_answer(self, config):
        """Every set of every slice of every level: the shared layout and
        the cache's own lookup give the old memoized flat index."""
        for cache in CacheHierarchy(2, config).all_caches():
            layout = cache.layout
            memo = {}
            stride = layout.line_size * layout.num_sets
            seen = set()
            for tag in range(8 * layout.num_slices):
                for set_index in range(layout.num_sets):
                    for offset in (0, layout.line_size - 1):
                        addr = tag * stride + set_index * layout.line_size + offset
                        want = _memoized_global_set(layout, addr, memo)
                        assert _memoized_global_set(layout, addr, memo) == want
                        assert layout.global_set(addr) == want
                        assert cache._global_set(addr) == want
                        assert cache._global_set(addr) == want  # memo hit
                        seen.add(want)
            assert seen == set(range(layout.num_sets * layout.num_slices)), cache.name
