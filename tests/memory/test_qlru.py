"""Tests for QLRU_H11_M1_R0_U0, including the Figure 8 state walk.

The paper's D-cache receiver depends on a specific distinguishing
property of this policy (§4.2.2): after priming a 16-way set with 15
eviction lines (EVS1, promoted to age 0) plus the target line A, the
victim's access order (A-B vs B-A) leaves exactly one of {A, B} resident
after a 15-line probe (EVS2) — and *which one* depends on the order.
"""

from repro.memory.cache import Cache
from repro.memory.qlru import QLRUPolicy, INSERT_AGE, MAX_AGE


class TestQLRUPrimitives:
    def test_insertion_age_is_one(self):
        p = QLRUPolicy(4)
        way = p.select_victim([False] * 4)
        p.on_fill(way)
        assert p.ages()[way] == INSERT_AGE

    def test_hit_promotion_h11(self):
        p = QLRUPolicy(4)
        for age, expected in [(3, 1), (2, 1), (1, 0), (0, 0)]:
            p._age[0] = age
            p.on_hit(0)
            assert p.ages()[0] == expected

    def test_r0_prefers_leftmost_invalid(self):
        p = QLRUPolicy(4)
        assert p.select_victim([True, False, True, False]) == 1

    def test_r0_evicts_leftmost_age3(self):
        p = QLRUPolicy(4)
        p._age = [1, 3, 0, 3]
        assert p.select_victim([True] * 4) == 1

    def test_u0_ages_until_candidate(self):
        p = QLRUPolicy(4)
        p._age = [0, 1, 0, 2]
        victim = p.select_victim([True] * 4)
        # ages incremented by 1 until the max (2) reached 3
        assert victim == 3
        assert p.ages() == [1, 2, 1, MAX_AGE]

    def test_u0_saturates(self):
        p = QLRUPolicy(2)
        p._age = [0, 0]
        victim = p.select_victim([True, True])
        assert victim == 0
        assert p.ages() == [MAX_AGE, MAX_AGE]

    def test_invalidate_resets_age(self):
        p = QLRUPolicy(2)
        p._age = [0, 0]
        p.on_invalidate(1)
        assert p.ages()[1] == MAX_AGE


def make_qlru_set(ways=16):
    """A one-set QLRU cache standing in for one LLC set."""
    return Cache("llc-set", num_sets=1, num_ways=ways, policy="qlru")


LINE = 64


def addr(i):
    """i-th distinct line mapping to the single set."""
    return i * LINE


class TestFigure8Walk:
    """Replays the prime -> victim -> probe protocol of §4.2.2/Fig. 8."""

    WAYS = 16

    def prime(self, cache, evs1, a):
        # "Access EVS1 many times + access A": saturate EVS1 ages at 0.
        for _ in range(4):
            for line in evs1:
                if not cache.access(line):
                    cache.fill(line)
        if not cache.access(a):
            cache.fill(a)

    def run_protocol(self, order):
        cache = make_qlru_set(self.WAYS)
        evs1 = [addr(i) for i in range(self.WAYS - 1)]  # EV0..EV14
        evs2 = [addr(100 + i) for i in range(self.WAYS - 1)]  # EV15..EV29
        a, b = addr(50), addr(51)
        self.prime(cache, evs1, a)
        # victim access pair in the secret-dependent order
        for line in order(a, b):
            if not cache.access(line):
                cache.fill(line)
        # probe
        for line in evs2:
            if not cache.access(line):
                cache.fill(line)
        resident = set(cache.set_contents(a)) - {None}
        return a in resident, b in resident

    def test_prime_state(self):
        cache = make_qlru_set(self.WAYS)
        evs1 = [addr(i) for i in range(self.WAYS - 1)]
        a = addr(50)
        self.prime(cache, evs1, a)
        contents = cache.set_contents(a)
        ages = cache.set_policy_state(a)
        assert set(contents) == set(evs1) | {a}
        # EVS1 lines promoted to age 0; A freshly inserted at age 1.
        way_of_a = contents.index(a)
        assert ages[way_of_a] == INSERT_AGE
        for way, line in enumerate(contents):
            if line != a:
                assert ages[way] == 0

    def test_order_ab_leaves_b_resident(self):
        a_res, b_res = self.run_protocol(lambda a, b: (a, b))
        assert not a_res
        assert b_res

    def test_order_ba_leaves_a_resident(self):
        a_res, b_res = self.run_protocol(lambda a, b: (b, a))
        assert a_res
        assert not b_res

    def test_orders_distinguishable(self):
        """The receiver's decoding rule: residency of A vs B <=> order."""
        ab = self.run_protocol(lambda a, b: (a, b))
        ba = self.run_protocol(lambda a, b: (b, a))
        assert ab != ba

    def test_victim_access_b_after_ab_state(self):
        """Mid-protocol check mirroring Fig. 8(b): after A-B, B is fresh
        (age 1) and every EVS1 line aged to 3."""
        cache = make_qlru_set(self.WAYS)
        evs1 = [addr(i) for i in range(self.WAYS - 1)]
        a, b = addr(50), addr(51)
        self.prime(cache, evs1, a)
        for line in (a, b):
            if not cache.access(line):
                cache.fill(line)
        contents = cache.set_contents(a)
        ages = cache.set_policy_state(a)
        assert b in contents
        assert ages[contents.index(b)] == INSERT_AGE
        # A was hit (age 1 -> 0) then aged by U0 when B's fill needed a victim.
        surviving_evs1 = [w for w, l in enumerate(contents) if l in set(evs1)]
        assert all(ages[w] == MAX_AGE for w in surviving_evs1)
