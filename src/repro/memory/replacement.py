"""Per-set replacement policies.

Each cache set owns one :class:`SetPolicy` instance.  The cache calls:

* :meth:`SetPolicy.on_hit` when an access hits in a way,
* :meth:`SetPolicy.select_victim` when a fill needs a way (the policy may
  mutate its state, e.g. QLRU's U0 aging happens here), and
* :meth:`SetPolicy.on_fill` after the line is installed.

Policies implemented: true LRU, NRU, tree-PLRU, SRRIP, Random, and the
paper's QLRU_H11_M1_R0_U0 (in :mod:`repro.memory.qlru`).  All policies
deliberately expose their internal state via :meth:`state_summary`; the
attack receiver tests use it to validate the Figure 8 state walk.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from functools import lru_cache, partial
from typing import Callable, List, Optional, Sequence, Tuple

#: Bound on the (policy, ways) pairs :func:`policy_factory` keeps resolved.
POLICY_MEMO_SIZE = 64


class SetPolicy(ABC):
    """Replacement policy state for a single cache set."""

    def __init__(self, num_ways: int) -> None:
        if num_ways < 1:
            raise ValueError("a cache set needs at least one way")
        self.num_ways = num_ways

    @abstractmethod
    def on_hit(self, way: int) -> None:
        """An access hit in ``way``."""

    @abstractmethod
    def on_fill(self, way: int) -> None:
        """A new line was installed in ``way``."""

    @abstractmethod
    def select_victim(self, valid: Sequence[bool]) -> int:
        """Choose the way to fill.  Must prefer invalid ways."""

    def on_invalidate(self, way: int) -> None:
        """A line was invalidated (flushed); default: no metadata change."""

    def state_summary(self) -> List[int]:
        """Policy-internal per-way state, for diagnostics and tests."""
        return [0] * self.num_ways

    #: Attributes that are configuration (or shared, like the hierarchy
    #: policy RNG — snapshotted once at hierarchy level), never per-set
    #: mutable state, and thus excluded from snapshots.
    _SNAP_EXCLUDE = frozenset({"num_ways", "_rng", "max_rrpv"})

    def snapshot_state(self) -> Tuple:
        """Flat copy of the mutable per-set policy state.

        Generic over subclasses: every mutable field lives in
        ``__dict__`` as an int or a list of ints, so a sorted
        (name, value) tuple with lists copied out captures all of them.
        Subclasses that rebind their lists (NRU, SRRIP) are covered
        because :meth:`restore_state` rebinds too.
        """
        return tuple(
            (name, list(value) if isinstance(value, list) else value)
            for name, value in sorted(self.__dict__.items())
            if name not in self._SNAP_EXCLUDE
        )

    def restore_state(self, state: Tuple) -> None:
        for name, value in state:
            setattr(self, name, list(value) if isinstance(value, list) else value)

    @staticmethod
    def _first_invalid(valid: Sequence[bool]) -> Optional[int]:
        for way, v in enumerate(valid):
            if not v:
                return way
        return None


class LRUPolicy(SetPolicy):
    """True least-recently-used: per-way recency counters."""

    def __init__(self, num_ways: int) -> None:
        super().__init__(num_ways)
        self._stamp = 0
        self._last_use = [0] * num_ways

    def _touch(self, way: int) -> None:
        self._stamp += 1
        self._last_use[way] = self._stamp

    def on_hit(self, way: int) -> None:
        self._touch(way)

    def on_fill(self, way: int) -> None:
        self._touch(way)

    def select_victim(self, valid: Sequence[bool]) -> int:
        empty = self._first_invalid(valid)
        if empty is not None:
            return empty
        return min(range(self.num_ways), key=lambda w: self._last_use[w])

    def state_summary(self) -> List[int]:
        order = sorted(range(self.num_ways), key=lambda w: self._last_use[w])
        ranks = [0] * self.num_ways
        for rank, way in enumerate(order):
            ranks[way] = rank
        return ranks


class RandomPolicy(SetPolicy):
    """Uniform-random victim selection (used by CleanupSpec's L1)."""

    def __init__(self, num_ways: int, *, rng: Optional[random.Random] = None) -> None:
        super().__init__(num_ways)
        self._rng = rng or random.Random(0)

    def on_hit(self, way: int) -> None:
        pass

    def on_fill(self, way: int) -> None:
        pass

    def select_victim(self, valid: Sequence[bool]) -> int:
        empty = self._first_invalid(valid)
        if empty is not None:
            return empty
        return self._rng.randrange(self.num_ways)


class NRUPolicy(SetPolicy):
    """Not-recently-used: one reference bit per way."""

    def __init__(self, num_ways: int) -> None:
        super().__init__(num_ways)
        self._ref = [0] * num_ways

    def on_hit(self, way: int) -> None:
        self._ref[way] = 1
        if all(self._ref):
            self._ref = [0] * self.num_ways
            self._ref[way] = 1

    def on_fill(self, way: int) -> None:
        self.on_hit(way)

    def select_victim(self, valid: Sequence[bool]) -> int:
        empty = self._first_invalid(valid)
        if empty is not None:
            return empty
        for way, bit in enumerate(self._ref):
            if not bit:
                return way
        return 0

    def state_summary(self) -> List[int]:
        return list(self._ref)


class SRRIPPolicy(SetPolicy):
    """Static re-reference interval prediction (Jaleel et al., ISCA'10)."""

    def __init__(self, num_ways: int, *, bits: int = 2) -> None:
        super().__init__(num_ways)
        self.max_rrpv = (1 << bits) - 1
        self._rrpv = [self.max_rrpv] * num_ways

    def on_hit(self, way: int) -> None:
        self._rrpv[way] = 0

    def on_fill(self, way: int) -> None:
        self._rrpv[way] = self.max_rrpv - 1

    def select_victim(self, valid: Sequence[bool]) -> int:
        empty = self._first_invalid(valid)
        if empty is not None:
            return empty
        while True:
            for way, rrpv in enumerate(self._rrpv):
                if rrpv == self.max_rrpv:
                    return way
            self._rrpv = [min(r + 1, self.max_rrpv) for r in self._rrpv]

    def state_summary(self) -> List[int]:
        return list(self._rrpv)


class TreePLRUPolicy(SetPolicy):
    """Binary-tree pseudo-LRU (requires power-of-two ways)."""

    def __init__(self, num_ways: int) -> None:
        super().__init__(num_ways)
        if num_ways & (num_ways - 1):
            raise ValueError("tree-PLRU needs a power-of-two way count")
        self._bits = [0] * max(num_ways - 1, 1)

    def _update(self, way: int) -> None:
        node = 0
        span = self.num_ways
        while span > 1:
            span //= 2
            left = way % (span * 2) < span
            # Point the bit away from the used side.
            self._bits[node] = 1 if left else 0
            node = 2 * node + (1 if left else 2)

    def on_hit(self, way: int) -> None:
        self._update(way)

    def on_fill(self, way: int) -> None:
        self._update(way)

    def select_victim(self, valid: Sequence[bool]) -> int:
        empty = self._first_invalid(valid)
        if empty is not None:
            return empty
        node = 0
        way = 0
        span = self.num_ways
        while span > 1:
            span //= 2
            go_right = self._bits[node] == 1
            if go_right:
                way += span
            node = 2 * node + (2 if go_right else 1)
        return way

    def state_summary(self) -> List[int]:
        return list(self._bits)


def policy_factory(
    name: str, num_ways: int, *, rng: Optional[random.Random] = None
) -> Callable[[], SetPolicy]:
    """A builder of fresh per-set policies named ``name``.  An unknown
    name or a bad way count raises here, not on the first build.

    Each non-random (name, ways) pair is resolved and validated once per
    process and its builder shared; ``random`` binds ``rng``, the RNG of
    the hierarchy asking, so it is resolved per call."""
    name = name.lower()
    if name == "random":
        factory = partial(RandomPolicy, num_ways, rng=rng)
        factory()  # validate the way count (draws nothing from rng)
        return factory
    return _resolved_policy(name, num_ways)


@lru_cache(maxsize=POLICY_MEMO_SIZE)
def _resolved_policy(name: str, num_ways: int) -> Callable[[], SetPolicy]:
    from repro.memory.qlru import QLRUPolicy  # local import avoids a cycle

    cls = {
        "lru": LRUPolicy,
        "nru": NRUPolicy,
        "srrip": SRRIPPolicy,
        "plru": TreePLRUPolicy,
        "qlru": QLRUPolicy,
    }.get(name)
    if cls is None:
        raise ValueError(f"unknown replacement policy {name!r}")
    factory = partial(cls, num_ways)
    factory()
    return factory


def make_policy(
    name: str, num_ways: int, *, rng: Optional[random.Random] = None
) -> SetPolicy:
    """One policy by name; see :data:`POLICY_NAMES`."""
    return policy_factory(name, num_ways, rng=rng)()


POLICY_NAMES = ("lru", "random", "nru", "srrip", "plru", "qlru")
