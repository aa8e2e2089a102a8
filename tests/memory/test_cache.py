"""Tests for the generic set-associative cache."""

import random

import pytest

from repro.memory import cache as cache_module
from repro.memory.cache import Cache
from repro.memory.replacement import POLICY_NAMES, make_policy, policy_factory


def make_cache(**kw):
    defaults = dict(num_sets=4, num_ways=2, line_size=64, policy="lru")
    defaults.update(kw)
    return Cache("test", **defaults)


class TestBasics:
    def test_miss_then_hit(self):
        c = make_cache()
        assert not c.access(0x100)
        c.fill(0x100)
        assert c.access(0x100)
        assert c.stats.hits == 1
        assert c.stats.misses == 1

    def test_line_granularity(self):
        c = make_cache()
        c.fill(0x100)
        assert c.access(0x100 + 63)
        assert not c.access(0x100 + 64)

    def test_eviction_on_conflict(self):
        c = make_cache(num_sets=1, num_ways=2)
        c.fill(0 * 64)
        c.fill(1 * 64)
        evicted = c.fill(2 * 64)
        assert evicted == 0  # LRU victim
        assert not c.contains(0)
        assert c.stats.evictions == 1

    def test_redundant_fill_is_touch(self):
        c = make_cache(num_sets=1, num_ways=2)
        c.fill(0)
        c.fill(64)
        c.fill(0)  # touch: 0 becomes MRU
        assert c.fill(128) == 64

    def test_invalidate(self):
        c = make_cache()
        c.fill(0x100)
        assert c.invalidate(0x100)
        assert not c.contains(0x100)
        assert not c.invalidate(0x100)

    def test_flush_all(self):
        c = make_cache()
        for i in range(8):
            c.fill(i * 64)
        c.flush_all()
        assert c.resident_lines() == []

    def test_on_evict_callback(self):
        c = make_cache(num_sets=1, num_ways=1)
        seen = []
        c.on_evict = seen.append
        c.fill(0)
        c.fill(64)
        assert seen == [0]

    def test_size_bytes_geometry(self):
        c = Cache("t", size_bytes=32 * 1024, num_ways=8, line_size=64)
        assert c.layout.num_sets == 64

    def test_zero_sets_rejected(self):
        with pytest.raises(ValueError):
            Cache("t", size_bytes=64, num_ways=8, line_size=64)

    def test_requires_some_geometry(self):
        with pytest.raises(ValueError):
            Cache("t", num_ways=4)


class TestInvisibleAccess:
    """update=False accesses must not perturb replacement state (§2.2)."""

    def test_probe_does_not_promote(self):
        c = make_cache(num_sets=1, num_ways=2)
        c.fill(0)
        c.fill(64)
        # invisible access to 0: without it, 0 is LRU and gets evicted
        c.access(0, update=False)
        assert c.fill(128) == 0

    def test_visible_access_promotes(self):
        c = make_cache(num_sets=1, num_ways=2)
        c.fill(0)
        c.fill(64)
        c.access(0, update=True)
        assert c.fill(128) == 64

    def test_contains_is_pure(self):
        c = make_cache()
        c.fill(0)
        before = c.stats.accesses
        assert c.contains(0)
        assert c.stats.accesses == before


class TestTouch:
    def test_touch_promotes_resident_line(self):
        c = make_cache(num_sets=1, num_ways=2)
        c.fill(0)
        c.fill(64)
        assert c.touch(0)
        assert c.fill(128) == 64

    def test_touch_missing_line(self):
        c = make_cache()
        assert not c.touch(0x500)


class TestIntrospection:
    def test_set_contents_ordered_by_way(self):
        c = make_cache(num_sets=1, num_ways=4)
        c.fill(0)
        c.fill(64)
        contents = c.set_contents(0)
        assert contents[0] == 0
        assert contents[1] == 64
        assert contents[2] is None

    def test_policy_state_exposed(self):
        c = make_cache(policy="qlru", num_sets=1, num_ways=4)
        c.fill(0)
        assert c.set_policy_state(0)[0] == 1  # QLRU insert age

    def test_hit_rate(self):
        c = make_cache()
        c.fill(0)
        c.access(0)
        c.access(64)
        assert c.stats.hit_rate == 0.5

    def test_stats_reset(self):
        c = make_cache()
        c.access(0)
        c.stats.reset()
        assert c.stats.accesses == 0


class TestLazySets:
    """Sets are built on first fill; nothing else builds one."""

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_building_a_policy_draws_nothing(self, name):
        """No policy draws from the shared RNG when it is built, so the
        order in which sets appear cannot change results."""
        rng = random.Random(11)
        before = rng.getstate()
        make_policy(name, 8, rng=rng)
        c = make_cache(policy=name, num_ways=8, rng=rng)
        c.fill(0x100)
        assert rng.getstate() == before

    def test_only_a_fill_builds_a_set(self):
        c = make_cache(num_sets=4, num_ways=2)
        sets_before = c.capture()[0]
        assert not c.contains(0x100)
        assert not c.access(0x100)
        assert not c.touch(0x100)
        assert not c.invalidate(0x100)
        c.flush_all()
        assert c.resident_lines() == []
        assert c.set_contents(0x100) == [None, None]
        assert c.set_policy_state(0x100) == make_policy("lru", 2).state_summary()
        assert c.capture()[0] == sets_before
        c.fill(0x100)
        assert len(c.capture()[0]) == len(sets_before) + 1

    def test_restore_rebuilds_exactly_the_captured_sets(self):
        c = make_cache(num_sets=4, num_ways=2, policy="qlru")
        c.fill(0x0)
        c.fill(0x40)
        saved = c.capture()
        c.fill(0x80)
        c.restore(saved)
        assert c.capture() == saved
        fresh = make_cache(num_sets=4, num_ways=2, policy="qlru")
        fresh.restore(saved)
        assert fresh.capture() == saved

    def test_policy_resolved_once_per_cache(self, monkeypatch):
        calls = []
        real = cache_module.policy_factory

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cache_module, "policy_factory", counting)
        c = make_cache(num_sets=4, num_ways=2, policy="qlru")
        for line in range(8):
            c.fill(line * 64)
        c.restore(c.capture())
        assert len(c.capture()[0]) == 4
        assert calls == [("qlru", 2)]

    @pytest.mark.parametrize(
        "policy, num_ways", [("mystery", 4), ("plru", 6), ("lru", 0)]
    )
    def test_bad_policy_or_ways_fail_at_construction(self, policy, num_ways):
        with pytest.raises(ValueError):
            make_cache(num_ways=num_ways, policy=policy)


class TestSharedPolicyFactories:
    def test_a_non_random_pair_resolves_once(self):
        factory = policy_factory("qlru", 16)
        assert policy_factory("QLRU", 16) is factory
        assert policy_factory("qlru", 8) is not factory
        assert policy_factory("lru", 16) is not factory
        assert factory() is not factory()  # each set still gets its own

    def test_random_binds_the_rng_of_its_hierarchy(self):
        rng_a, rng_b = random.Random(1), random.Random(1)
        a = policy_factory("random", 4, rng=rng_a)
        b = policy_factory("random", 4, rng=rng_b)
        assert a is not b
        assert a()._rng is rng_a and b()._rng is rng_b
        state = rng_a.getstate()
        policy_factory("random", 4, rng=rng_a)
        assert rng_a.getstate() == state  # validating draws nothing

    def test_caches_share_the_resolved_factory(self):
        a = make_cache(num_sets=4, num_ways=2, policy="plru")
        b = make_cache(num_sets=8, num_ways=2, policy="plru")
        assert a._new_policy is b._new_policy
