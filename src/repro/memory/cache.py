"""Generic set-associative cache with pluggable replacement.

The cache is purely a state container — timing lives in
:mod:`repro.memory.hierarchy`.  Accesses distinguish *updating* lookups
(normal, visible accesses) from *non-updating* probes (invisible
speculation: the line may be read but no replacement metadata changes),
which is exactly the distinction the invisible-speculation schemes rely
on and the interference attacks bypass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.memory.address import AddressLayout, shared_layout
from repro.memory.replacement import SetPolicy, policy_factory
from repro.trace.events import EventKind


@dataclass
class CacheStats:
    __slots__ = ("hits", "misses", "fills", "evictions", "invalidations")

    hits: int
    misses: int
    fills: int
    evictions: int
    invalidations: int

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.fills = 0
        self.evictions = 0
        self.invalidations = 0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.fills = 0
        self.evictions = 0
        self.invalidations = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class _CacheSet:
    """One set: way -> line address, plus policy state."""

    __slots__ = ("lines", "policy")

    def __init__(self, num_ways: int, policy: SetPolicy) -> None:
        self.lines: List[Optional[int]] = [None] * num_ways
        self.policy = policy

    def way_of(self, line_addr: int) -> Optional[int]:
        try:
            return self.lines.index(line_addr)
        except ValueError:
            return None

    def valid_mask(self) -> List[bool]:
        return [line is not None for line in self.lines]


def _global_set_lookup(layout: AddressLayout) -> Callable[[int], int]:
    """``layout.global_set`` for one cache's hot path.

    One slice: the set index is two integer operations.  Several: the
    slice hash is memoized per line in a dict this cache owns (the
    decomposition of an address never changes, and a trial reuses a
    small line set); the shared layout itself keeps no state.  A closure
    rather than a bound method, so a cache holds no reference to itself.
    """
    offset_bits = layout.offset_bits
    set_mask = layout.set_mask
    if layout.num_slices == 1:

        def flat_set(addr: int) -> int:
            return (addr >> offset_bits) & set_mask

        return flat_set
    memo: Dict[int, int] = {}
    slow = layout.global_set

    def sliced_set(addr: int) -> int:
        line_id = addr >> offset_bits
        index = memo.get(line_id)
        if index is None:
            index = memo[line_id] = slow(addr)
        return index

    return sliced_set


class Cache:
    """A single cache level (state only; no latency).

    Sets are built lazily: ``_sets[i]`` stays None until a fill (or a
    :meth:`restore`) builds it, so a cache costs only the sets a trial
    touches.  A lookup on an absent set answers as an empty set and
    builds nothing, so two caches that saw the same fills capture equal.
    """

    def __init__(
        self,
        name: str,
        *,
        size_bytes: Optional[int] = None,
        num_sets: Optional[int] = None,
        num_ways: int = 8,
        line_size: int = 64,
        num_slices: int = 1,
        policy: str = "lru",
        rng: Optional[random.Random] = None,
    ) -> None:
        if num_sets is None:
            if size_bytes is None:
                raise ValueError("provide size_bytes or num_sets")
            num_sets = size_bytes // (line_size * num_ways * num_slices)
        if num_sets < 1:
            raise ValueError(f"{name}: geometry yields zero sets")
        self.name = name
        self.num_ways = num_ways
        self.policy_name = policy
        #: Shared by every cache of this geometry (immutable).
        self.layout: AddressLayout = shared_layout(line_size, num_sets, num_slices)
        # Resolved (and validated) once per (policy, ways); each built set
        # calls it for its policy.
        self._new_policy = policy_factory(policy, num_ways, rng=rng)
        self._sets: List[Optional[_CacheSet]] = [None] * (num_sets * num_slices)
        # Hot-path bindings: access()/fill()/contains() run once per
        # simulated memory reference, so resolve the layout arithmetic
        # (line mask, global-set lookup) once here instead of through two
        # attribute hops per call.
        self._line_mask = ~(line_size - 1)
        self._global_set = _global_set_lookup(self.layout)
        self.stats = CacheStats()
        #: Called with the evicted line address on every eviction
        #: (the hierarchy uses it to enforce LLC inclusivity).
        self.on_evict: Optional[Callable[[int], None]] = None
        #: Optional :class:`repro.trace.Tracer` (cycle/core come from its
        #: context, stamped by the hierarchy).  None = tracing off.
        self.tracer = None
        #: Optional mirror observer (``repro.batch``): consulted after
        #: :meth:`contains` with the answer.  The lockstep engine sets it
        #: only on the LLC, where schemes perform direct presence checks
        #: that bypass the hierarchy-level helpers.
        self.observer = None

    # ------------------------------------------------------------------
    def _set_for(self, addr: int) -> Optional[_CacheSet]:
        return self._sets[self._global_set(addr)]

    def _build_set(self, index: int) -> _CacheSet:
        cset = self._sets[index] = _CacheSet(self.num_ways, self._new_policy())
        return cset

    def holds(self, addr: int) -> bool:
        """Pure lookup that, unlike :meth:`contains`, consults no
        observer: for the hierarchy's own bookkeeping."""
        cset = self._sets[self._global_set(addr)]
        return cset is not None and cset.way_of(addr & self._line_mask) is not None

    def contains(self, addr: int) -> bool:
        """Pure lookup: no state change, no stats."""
        cset = self._sets[self._global_set(addr)]
        present = cset is not None and cset.way_of(addr & self._line_mask) is not None
        observer = self.observer
        if observer is not None:
            observer.on_contains(self, addr, present)
        return present

    def access(self, addr: int, *, update: bool = True) -> bool:
        """Lookup; returns hit.  ``update=False`` leaves metadata untouched."""
        line = addr & self._line_mask
        cset = self._sets[self._global_set(addr)]
        tracer = self.tracer
        if cset is not None:
            way = cset.way_of(line)
            if way is not None:
                self.stats.hits += 1
                if update:
                    cset.policy.on_hit(way)
                if tracer is not None:
                    tracer.emit(
                        EventKind.CACHE_HIT, cache=self.name, line=line, update=update
                    )
                return True
        self.stats.misses += 1
        if tracer is not None:
            tracer.emit(
                EventKind.CACHE_MISS, cache=self.name, line=line, update=update
            )
        return False

    def fill(self, addr: int, *, update: bool = True) -> Optional[int]:
        """Install a line; returns the evicted line address, if any.

        A fill of a line that is already resident is treated as a
        metadata touch (policies see a hit).
        """
        line = addr & self._line_mask
        index = self._global_set(addr)
        cset = self._sets[index]
        if cset is None:
            cset = self._build_set(index)
        way = cset.way_of(line)
        if way is not None:
            if update:
                cset.policy.on_hit(way)
            return None
        way = cset.policy.select_victim(cset.valid_mask())
        evicted = cset.lines[way]
        cset.lines[way] = line
        self.stats.fills += 1
        if update:
            cset.policy.on_fill(way)
        tracer = self.tracer
        if tracer is not None:
            tracer.emit(EventKind.CACHE_FILL, cache=self.name, line=line)
            if evicted is not None:
                tracer.emit(
                    EventKind.CACHE_EVICT,
                    cache=self.name,
                    line=evicted,
                    reason="capacity",
                )
        if evicted is not None:
            self.stats.evictions += 1
            if self.on_evict is not None:
                self.on_evict(evicted)
        return evicted

    def touch(self, addr: int) -> bool:
        """Apply a deferred replacement update (DoM §2.2): promote if
        the line is still resident.  Returns whether it was."""
        line = self.layout.line_addr(addr)
        cset = self._set_for(addr)
        way = None if cset is None else cset.way_of(line)
        if cset is None or way is None:
            return False
        cset.policy.on_hit(way)
        return True

    def invalidate(self, addr: int) -> bool:
        """Drop a line (clflush / inclusivity back-invalidation)."""
        line = self.layout.line_addr(addr)
        cset = self._set_for(addr)
        way = None if cset is None else cset.way_of(line)
        if cset is None or way is None:
            return False
        cset.lines[way] = None
        cset.policy.on_invalidate(way)
        self.stats.invalidations += 1
        if self.tracer is not None:
            self.tracer.emit(
                EventKind.CACHE_EVICT,
                cache=self.name,
                line=line,
                reason="invalidate",
            )
        return True

    def _built_sets(self) -> List[Tuple[int, _CacheSet]]:
        return [(i, cset) for i, cset in enumerate(self._sets) if cset is not None]

    def flush_all(self) -> None:
        for _, cset in self._built_sets():
            for way, line in enumerate(cset.lines):
                if line is not None:
                    cset.lines[way] = None
                    cset.policy.on_invalidate(way)

    # -- introspection ---------------------------------------------------
    def set_contents(self, addr: int) -> List[Optional[int]]:
        """Lines of the set that ``addr`` maps to, leftmost way first."""
        cset = self._set_for(addr)
        return [None] * self.num_ways if cset is None else list(cset.lines)

    def set_policy_state(self, addr: int) -> List[int]:
        """Replacement metadata of the set ``addr`` maps to."""
        cset = self._set_for(addr)
        policy = self._new_policy() if cset is None else cset.policy
        return policy.state_summary()

    def resident_lines(self) -> List[int]:
        return [
            line
            for _, cset in self._built_sets()
            for line in cset.lines
            if line is not None
        ]

    # -- snapshot -------------------------------------------------------
    def capture(self) -> Tuple:
        """Flat state tuple: ``(index, lines, policy state)`` per built
        set, plus stats.

        Geometry and the policy objects themselves are construction-time
        configuration; only line contents, replacement metadata, and the
        counters are mutable.  Absent sets are fresh, so they are left
        out.
        """
        return (
            tuple(
                (index, tuple(cset.lines), cset.policy.snapshot_state())
                for index, cset in self._built_sets()
            ),
            (
                self.stats.hits,
                self.stats.misses,
                self.stats.fills,
                self.stats.evictions,
                self.stats.invalidations,
            ),
        )

    def restore(self, state: Tuple) -> None:
        """Clear every set, then build the captured ones."""
        sets_state, stats = state
        self._sets = [None] * len(self._sets)
        for index, lines, policy_state in sets_state:
            cset = self._build_set(index)
            cset.lines[:] = lines
            cset.policy.restore_state(policy_state)
        (
            self.stats.hits,
            self.stats.misses,
            self.stats.fills,
            self.stats.evictions,
            self.stats.invalidations,
        ) = stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cache({self.name}, sets={self.layout.num_sets}x"
            f"{self.layout.num_slices}, ways={self.num_ways}, "
            f"policy={self.policy_name})"
        )
