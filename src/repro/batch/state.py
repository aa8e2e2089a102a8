"""Structure-of-arrays mirror of N cache-hierarchy snapshots.

:class:`BatchState` holds the memory-system state of N sweep *lanes* as
numpy arrays keyed by lane index.  The layout spec is the Snapshot
protocol: ``BatchState.from_snapshot(hierarchy, capture, n_lanes)``
loads every lane from the exact flat tuple produced by
``CacheHierarchy.capture()``, and ``to_snapshot(lane)`` reproduces it
bit-for-bit — the round trip is property-tested for every replacement
policy, so the SoA layout can never silently drift from the scalar
capture schema.

Array layout per cache level (10 caches in ``all_caches()`` order):

* ``lines[N, total_sets, ways]`` — resident line addresses, ``-1`` for
  an invalid way (the scalar capture uses ``None``).
* ``stats[N, 5]`` — hits, misses, fills, evictions, invalidations.
* per-policy metadata arrays (LRU stamps, RRPV counters, PLRU tree
  bits, ...), mirroring the scalar policies' ``snapshot_state()``.

State that is touched rarely (DRAM contents, coherence sharer maps,
per-lane RNG mirrors, the visible-access log) stays as per-lane Python
objects: the win of the batched engine is skipping N-1 pipeline
simulations, not vectorizing dictionary writes.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Tuple

from repro.batch._numpy import np, require_numpy
from repro.memory.cache import Cache
from repro.memory.coherence import CoherenceDirectory, CoherenceState
from repro.memory.hierarchy import CacheHierarchy, VisibleAccess
from repro.memory.main_memory import MainMemory
from repro.memory.mshr import MSHRFile

#: QLRU constants mirrored from :mod:`repro.memory.qlru`.
QLRU_MAX_AGE = 3
QLRU_INSERT_AGE = 1

#: Per-policy ``SetPolicy.snapshot_state()`` fields, in their (sorted)
#: snapshot order, each with the :class:`LaneCache` array mirroring it.
POLICY_FIELDS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "lru": (("_last_use", "pol_last_use"), ("_stamp", "pol_stamp")),
    "nru": (("_ref", "pol_ref"),),
    "srrip": (("_rrpv", "pol_rrpv"),),
    "plru": (("_bits", "pol_bits"),),
    "qlru": (("_age", "pol_age"),),
    "random": (),
}


class BatchSchemaError(RuntimeError):
    """A scalar component's snapshot layout is not the one this SoA
    mirror was written against.  Raised loudly instead of producing
    silently wrong batched results."""


def _check_snapshot_versions() -> None:
    """The SoA layout below hand-mirrors specific capture-tuple
    versions; fail hard if any component has since been re-versioned.
    (MainMemory v2 = the counter-stream state tuple of
    :mod:`repro.memory.stream`.)"""
    expected = {
        Cache: 1,
        CacheHierarchy: 1,
        MainMemory: 2,
        MSHRFile: 1,
        CoherenceDirectory: 1,
    }
    for cls, version in expected.items():
        actual = getattr(cls, "SNAP_VERSION", None)
        if actual != version:
            raise BatchSchemaError(
                f"{cls.__name__}.SNAP_VERSION is {actual}, but repro.batch "
                f"mirrors capture layout version {version}; update the SoA "
                "layout in repro.batch.state before batching again"
            )


class LaneCache:
    """SoA state of one cache level across all lanes."""

    def __init__(self, template: Cache, n_lanes: int) -> None:
        require_numpy()
        self.name = template.name
        self.policy = template.policy_name.lower()
        self.num_ways = template.num_ways
        self.layout = template.layout
        self.global_set = template.layout.global_set
        self.total_sets = template.layout.num_sets * template.layout.num_slices
        self.n_lanes = n_lanes
        n, s, w = n_lanes, self.total_sets, self.num_ways
        self.lines: Any = np.full((n, s, w), -1, dtype=np.int64)
        self.stats: Any = np.zeros((n, 5), dtype=np.int64)
        #: Per-lane RNG mirrors (the hierarchy's shared policy RNG),
        #: assigned by :class:`BatchState`; drawn only by random-policy
        #: victim selection.
        self.rngs: List[random.Random] = []
        self.max_rrpv = 0
        if self.policy == "lru":
            self.pol_stamp: Any = np.zeros((n, s), dtype=np.int64)
            self.pol_last_use: Any = np.zeros((n, s, w), dtype=np.int64)
        elif self.policy == "nru":
            self.pol_ref: Any = np.zeros((n, s, w), dtype=np.int64)
        elif self.policy == "srrip":
            self.max_rrpv = template._sets[0].policy.max_rrpv  # type: ignore[attr-defined]
            self.pol_rrpv: Any = np.zeros((n, s, w), dtype=np.int64)
        elif self.policy == "plru":
            self.pol_bits: Any = np.zeros((n, s, max(w - 1, 1)), dtype=np.int64)
        elif self.policy == "qlru":
            self.pol_age: Any = np.zeros((n, s, w), dtype=np.int64)
        elif self.policy != "random":
            raise BatchSchemaError(f"unknown replacement policy {self.policy!r}")

    # ------------------------------------------------------------------
    @classmethod
    def from_capture(
        cls, template: Cache, capture: Tuple, n_lanes: int
    ) -> "LaneCache":
        """Build the SoA with every lane loaded from one
        ``Cache.capture()`` tuple.

        Each field is converted to an array once and copied into every
        lane's rows, so lanes own their rows (no broadcast views).
        """
        lc = cls(template, n_lanes)
        sets_state, stats = capture
        if len(sets_state) != lc.total_sets:
            raise BatchSchemaError(
                f"{lc.name}: capture has {len(sets_state)} sets, "
                f"geometry says {lc.total_sets}"
            )
        fields = POLICY_FIELDS[lc.policy]
        expected = tuple(name for name, _ in fields)
        columns: Tuple[List[Any], ...] = tuple([] for _ in fields)
        lines: List[List[Any]] = []
        for set_lines, policy_state in sets_state:
            lines.append([-1 if line is None else line for line in set_lines])
            names = tuple(name for name, _ in policy_state)
            if names != expected:
                raise BatchSchemaError(
                    f"{lc.name}: policy snapshot fields {list(names)} for "
                    f"policy {lc.policy!r}, expected {list(expected)}"
                )
            for column, (_, value) in zip(columns, policy_state, strict=True):
                column.append(value)
        lc.lines[:] = lines
        for (_, attr), column in zip(fields, columns, strict=True):
            getattr(lc, attr)[:] = column
        lc.stats[:] = stats
        return lc

    # ------------------------------------------------------------------
    def _policy_snapshot(self, lane: int, s: int) -> Tuple:
        """Reproduce ``SetPolicy.snapshot_state()`` (sorted name order)."""
        return tuple(
            (name, getattr(self, attr)[lane, s].tolist())
            for name, attr in POLICY_FIELDS[self.policy]
        )

    def to_snapshot(self, lane: int) -> Tuple:
        """Exact ``Cache.capture()`` tuple for one lane."""
        sets_state = []
        for s in range(self.total_sets):
            lines = tuple(
                None if line == -1 else line
                for line in self.lines[lane, s, :].tolist()
            )
            sets_state.append((lines, self._policy_snapshot(lane, s)))
        return (tuple(sets_state), tuple(self.stats[lane, :].tolist()))


class BatchState:
    """All-lane memory-system state; see module docstring."""

    def __init__(self, hierarchy: CacheHierarchy, n_lanes: int) -> None:
        require_numpy()
        _check_snapshot_versions()
        self.hierarchy = hierarchy
        self.config = hierarchy.config
        self.num_cores = hierarchy.num_cores
        self.n_lanes = n_lanes
        #: ``all_caches()`` order: per-core (l1i, l1d, l2), then the LLC.
        self.caches: List[LaneCache] = []
        #: Per-lane sparse DRAM contents / access counters.
        self.mem_data: List[Dict[int, int]] = []
        self.mem_reads: Any = np.zeros(n_lanes, dtype=np.int64)
        self.mem_writes: Any = np.zeros(n_lanes, dtype=np.int64)
        #: Per-lane counter-stream state (``MainMemory`` v2 capture:
        #: ``(seed, last_cycle, last_core, seq)``), kept as numpy arrays
        #: so the mirror draws DRAM jitter vectorized across lanes.
        self.stream_seed: Any = np.zeros(n_lanes, dtype=np.uint64)
        self.stream_cycle: Any = np.full(n_lanes, -1, dtype=np.int64)
        self.stream_core: Any = np.full(n_lanes, -1, dtype=np.int64)
        self.stream_seq: Any = np.full(n_lanes, -1, dtype=np.int64)
        #: Per-lane MSHR-file captures.  MSHR traffic is victim-driven
        #: and therefore uniform across converged lanes; the engine
        #: overwrites these with the leader's final capture at finish.
        self.mshrs: List[Tuple] = []
        self.visible_log: List[List[VisibleAccess]] = []
        #: Per-lane coherence sharer maps (``line -> {core: state}``),
        #: or None when coherence is disabled.
        self.coherence: List[Optional[Dict[int, Dict[int, CoherenceState]]]] = []
        #: invalidations_sent, downgrades, upgrades, writeback_penalties
        self.coh_stats: Any = np.zeros((n_lanes, 4), dtype=np.int64)
        #: Per-lane mirrors of the hierarchy's shared policy RNG.
        self.policy_rng: List[random.Random] = []

    # ------------------------------------------------------------------
    @classmethod
    def from_snapshot(
        cls, hierarchy: CacheHierarchy, capture: Tuple, n_lanes: int
    ) -> "BatchState":
        """Load ``n_lanes`` lanes, each from the one
        ``CacheHierarchy.capture()`` tuple ``capture``."""
        state = cls(hierarchy, n_lanes)
        caches, memory, mshrs, log, coherence, rng_state = capture
        for template, cache_capture in zip(
            hierarchy.all_caches(), caches, strict=True
        ):
            state.caches.append(
                LaneCache.from_capture(template, cache_capture, n_lanes)
            )
        data, stream_state, reads, writes = memory
        seed, last_cycle, last_core, seq = stream_state
        state.stream_seed[:] = seed
        state.stream_cycle[:] = last_cycle
        state.stream_core[:] = last_core
        state.stream_seq[:] = seq
        state.mem_reads[:] = reads
        state.mem_writes[:] = writes
        sharers = None
        if coherence is not None:
            sharers, coh_stats = coherence
            state.coh_stats[:] = coh_stats
        for _ in range(n_lanes):
            state.mem_data.append(dict(data))
            state.mshrs.append(mshrs)
            state.visible_log.append(list(log))
            state.coherence.append(
                None
                if sharers is None
                else {line: dict(entry) for line, entry in sharers}
            )
            rng = random.Random()
            rng.setstate(rng_state)
            state.policy_rng.append(rng)
        for lane_cache in state.caches:
            lane_cache.rngs = state.policy_rng
        return state

    # ------------------------------------------------------------------
    def to_snapshot(self, lane: int) -> Tuple:
        """Exact ``CacheHierarchy.capture()`` tuple for one lane."""
        coherence: Optional[Tuple] = None
        sharer_map = self.coherence[lane]
        if sharer_map is not None:
            coherence = (
                tuple(
                    (line, tuple(entry.items()))
                    for line, entry in sharer_map.items()
                ),
                tuple(self.coh_stats[lane, :].tolist()),
            )
        return (
            tuple(cache.to_snapshot(lane) for cache in self.caches),
            (
                dict(self.mem_data[lane]),
                (
                    int(self.stream_seed[lane]),
                    int(self.stream_cycle[lane]),
                    int(self.stream_core[lane]),
                    int(self.stream_seq[lane]),
                ),
                int(self.mem_reads[lane]),
                int(self.mem_writes[lane]),
            ),
            self.mshrs[lane],
            tuple(self.visible_log[lane]),
            coherence,
            self.policy_rng[lane].getstate(),
        )

    def restore_into(self, hierarchy: CacheHierarchy, lane: int) -> None:
        """Eject one lane back to a scalar hierarchy (divergence exit)."""
        hierarchy.restore(self.to_snapshot(lane))
