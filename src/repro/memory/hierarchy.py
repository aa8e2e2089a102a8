"""Multi-level cache hierarchy shared by all cores.

Geometry mirrors the paper's Kaby Lake target (scaled-down variants are
used in tests for speed): per-core L1-I and L1-D, a private unified L2,
and a shared, sliced, inclusive LLC in front of DRAM.

Two access flavours matter for the paper:

* **visible** accesses update replacement state, fill lines on a miss,
  and — when they reach the shared LLC — append to
  :attr:`CacheHierarchy.visible_log`.  That log *is* the paper's
  "L2 access pattern" ``C(E)`` from the ideal-invisible-speculation
  definition (§5.1): the sequence (without timing) of visible shared-
  cache accesses an attacker can observe.
* **invisible** accesses (issued by invisible-speculation schemes)
  compute a latency from wherever the line currently resides but change
  no cache state and leave no log entry.

Latency is returned to the caller; state changes are applied at request
time.  Request *lifetimes* (MSHR hold periods, data-return cycles) are
managed by the load/store unit, which owns the per-core L1-D MSHR files
exposed here.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from repro.memory.cache import Cache
from repro.memory.coherence import CoherenceDirectory
from repro.memory.main_memory import MainMemory
from repro.memory.mshr import MSHRFile


class AccessKind(enum.Enum):
    DATA = "data"
    INST = "inst"


@dataclass(frozen=True, slots=True)
class VisibleAccess:
    """One attacker-observable shared-cache access (a C(E) element)."""

    cycle: int
    line: int
    kind: AccessKind
    core: int
    hit: bool

    def key(self) -> Tuple[int, str]:
        """Order-insensitive identity (line, kind) used by C(E) compares."""
        return (self.line, self.kind.value)


@dataclass(frozen=True)
class LevelConfig:
    """Geometry + latency of one cache level."""

    num_sets: int
    num_ways: int
    latency: int
    policy: str = "lru"
    num_slices: int = 1
    line_size: int = 64

    def build(self, name: str, rng: Optional[random.Random] = None) -> Cache:
        return Cache(
            name,
            num_sets=self.num_sets,
            num_ways=self.num_ways,
            line_size=self.line_size,
            num_slices=self.num_slices,
            policy=self.policy,
            rng=rng,
        )


@dataclass(frozen=True)
class HierarchyConfig:
    """Full hierarchy parameterization.

    Defaults model the paper's i7-7700 at reduced capacity (capacity is
    irrelevant to the attacks; set geometry and policies are what
    matter) — notably a 16-way QLRU LLC, as required by the §4.2.2
    receiver.
    """

    l1i: LevelConfig = field(default_factory=lambda: LevelConfig(64, 8, latency=3))
    l1d: LevelConfig = field(default_factory=lambda: LevelConfig(64, 8, latency=3))
    l2: LevelConfig = field(default_factory=lambda: LevelConfig(256, 4, latency=12))
    llc: LevelConfig = field(
        default_factory=lambda: LevelConfig(
            256, 16, latency=40, policy="qlru", num_slices=4
        )
    )
    dram_latency: int = 200
    dram_jitter: int = 0
    l1d_mshrs: int = 10
    inclusive_llc: bool = True
    #: MESI-style coherence over the private data caches: stores
    #: invalidate remote copies; reading a remotely-Modified line pays a
    #: writeback penalty.
    enable_coherence: bool = True
    coherence_writeback_penalty: int = 30
    seed: int = 0


@dataclass(slots=True)
class AccessResult:
    """Outcome of one hierarchy access."""

    latency: int
    hit_level: str  # "L1" | "L2" | "LLC" | "DRAM"
    value: int
    line: int
    reached_llc: bool


class CacheHierarchy:
    """Private L1s/L2s + shared LLC + DRAM, for ``num_cores`` cores."""

    LEVELS = ("L1", "L2", "LLC", "DRAM")

    def __init__(self, num_cores: int, config: Optional[HierarchyConfig] = None):
        if num_cores < 1:
            raise ValueError("need at least one core")
        self.config = config or HierarchyConfig()
        self.num_cores = num_cores
        cfg = self.config
        # Seeded policy RNG: randomized-replacement levels (CleanupSpec
        # ablation) vary per hierarchy seed yet stay reproducible.  Kept
        # as an attribute because it is shared by every random-policy
        # set, so snapshots capture its state once, here, rather than
        # per set.
        self.policy_rng = policy_rng = random.Random(cfg.seed * 2654435761 + 17)
        self.l1i = [cfg.l1i.build(f"L1I.{c}", rng=policy_rng) for c in range(num_cores)]
        self.l1d = [cfg.l1d.build(f"L1D.{c}", rng=policy_rng) for c in range(num_cores)]
        self.l2 = [cfg.l2.build(f"L2.{c}", rng=policy_rng) for c in range(num_cores)]
        self.llc = cfg.llc.build("LLC", rng=policy_rng)
        self.memory = MainMemory(
            latency=cfg.dram_latency, jitter=cfg.dram_jitter, seed=cfg.seed
        )
        self.l1d_mshrs = [MSHRFile(cfg.l1d_mshrs) for _ in range(num_cores)]
        #: Per core, the lines its visible data accesses reached since
        #: that core's LSU last cleared the set (the LSU also adds each
        #: line it allocates an MSHR for).  Parked loads on these lines
        #: are the ones whose answer may have changed.
        self.wake_lines: List[Set[int]] = [set() for _ in range(num_cores)]
        self.visible_log: List[VisibleAccess] = []
        #: Optional :class:`repro.trace.Tracer`; installed by
        #: ``repro.trace.install_tracer`` (None = tracing off, free).
        self.tracer = None
        #: Optional mirror observer (``repro.batch``): consulted *after*
        #: each hierarchy operation with the arguments and the real
        #: result, so a batched lockstep engine can replay the operation
        #: against follower lanes and compare.  None = off (one attribute
        #: load per operation, same contract as :attr:`tracer`).
        self.observer = None
        self.coherence: Optional[CoherenceDirectory] = None
        if cfg.enable_coherence:
            self.coherence = CoherenceDirectory(
                num_cores, writeback_penalty=cfg.coherence_writeback_penalty
            )
        if cfg.inclusive_llc:
            self.llc.on_evict = self._back_invalidate

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _back_invalidate(self, line: int) -> None:
        """Inclusive LLC: an LLC eviction removes private copies."""
        for c in range(self.num_cores):
            self.l1i[c].invalidate(line)
            self.l1d[c].invalidate(line)
            self.l2[c].invalidate(line)
            if self.coherence is not None:
                self.coherence.on_evict(c, line)

    def _l1(self, core: int, kind: AccessKind) -> Cache:
        return self.l1i[core] if kind is AccessKind.INST else self.l1d[core]

    # ------------------------------------------------------------------
    # primary access paths
    # ------------------------------------------------------------------
    def access(
        self,
        core: int,
        addr: int,
        kind: AccessKind = AccessKind.DATA,
        *,
        visible: bool = True,
        cycle: int = 0,
    ) -> AccessResult:
        """Perform one access from ``core``.

        Visible accesses fill/update every level they traverse and are
        logged at the LLC.  Invisible accesses only *measure*: they find
        the line and report the latency it would have taken, with no
        state change anywhere.
        """
        result = self._access_impl(core, addr, kind, visible, cycle)
        observer = self.observer
        if observer is not None:
            observer.on_access(core, addr, kind, visible, cycle, result)
        return result

    def _access_impl(
        self,
        core: int,
        addr: int,
        kind: AccessKind,
        visible: bool,
        cycle: int,
    ) -> AccessResult:
        tracer = self.tracer
        if tracer is not None:
            # Stamp the tracer's context so the leaf caches/MSHR files
            # (which do not know the cycle or requester) attribute their
            # events correctly.  Single-threaded lockstep makes this sound.
            tracer.cycle = cycle
            tracer.core = core
        line = self.llc.layout.line_addr(addr)
        l1 = self._l1(core, kind)
        l2 = self.l2[core]
        value = self.memory.read(addr)

        latency = self.config.l1i.latency if kind is AccessKind.INST else self.config.l1d.latency
        if visible and kind is AccessKind.DATA:
            self.wake_lines[core].add(line)
            if self.coherence is not None:
                # MESI read: join the sharers; a remote Modified copy
                # costs a writeback round trip.  (Invisible accesses
                # deliberately leave coherence state untouched — part of
                # the schemes' invisibility contract.)
                latency += self.coherence.on_read(core, line)
        if visible:
            if l1.access(addr):
                return AccessResult(latency, "L1", value, line, reached_llc=False)
            latency += self.config.l2.latency
            if l2.access(addr):
                l1.fill(addr)
                return AccessResult(latency, "L2", value, line, reached_llc=False)
            latency += self.config.llc.latency
            llc_hit = self.llc.access(addr)
            self.visible_log.append(
                VisibleAccess(cycle=cycle, line=line, kind=kind, core=core, hit=llc_hit)
            )
            if llc_hit:
                l2.fill(addr)
                l1.fill(addr)
                return AccessResult(latency, "LLC", value, line, reached_llc=True)
            latency += self.memory.access_latency(cycle, core)
            self.llc.fill(addr)
            l2.fill(addr)
            l1.fill(addr)
            return AccessResult(latency, "DRAM", value, line, reached_llc=True)

        # Invisible probe: latency only, zero state change.
        if l1.access(addr, update=False):
            return AccessResult(latency, "L1", value, line, reached_llc=False)
        latency += self.config.l2.latency
        if l2.access(addr, update=False):
            return AccessResult(latency, "L2", value, line, reached_llc=False)
        latency += self.config.llc.latency
        if self.llc.access(addr, update=False):
            return AccessResult(latency, "LLC", value, line, reached_llc=True)
        latency += self.memory.access_latency(cycle, core)
        return AccessResult(latency, "DRAM", value, line, reached_llc=True)

    def write(self, core: int, addr: int, value: int, *, cycle: int = 0) -> AccessResult:
        """A committed store: functional write + visible write-allocate.

        Under coherence, remote copies are invalidated (they would
        otherwise serve stale presence) and a remotely-Modified line
        costs a writeback before ownership transfers."""
        tracer = self.tracer
        if tracer is not None:
            tracer.cycle = cycle
            tracer.core = core
        self.memory.write(addr, value)
        penalty = 0
        if self.coherence is not None:
            line = self.llc.layout.line_addr(addr)
            invalidated, penalty = self.coherence.on_write(core, line)
            for other in invalidated:
                self.l1d[other].invalidate(line)
                self.l2[other].invalidate(line)
        result = self._access_impl(core, addr, AccessKind.DATA, True, cycle)
        result.latency += penalty
        observer = self.observer
        if observer is not None:
            observer.on_write(core, addr, value, cycle, result)
        return result

    # ------------------------------------------------------------------
    # scheme / attacker helpers
    # ------------------------------------------------------------------
    def all_caches(self) -> List[Cache]:
        """Every cache level in the system (tracer wiring, audits)."""
        caches: List[Cache] = []
        for c in range(self.num_cores):
            caches.extend((self.l1i[c], self.l1d[c], self.l2[c]))
        caches.append(self.llc)
        return caches

    def l1_hit(self, core: int, addr: int, kind: AccessKind = AccessKind.DATA) -> bool:
        """Non-destructive L1 presence check (DoM's hit/miss decision)."""
        hit = self._l1(core, kind).contains(addr)
        observer = self.observer
        if observer is not None:
            observer.on_l1_hit(core, addr, kind, hit)
        return hit

    def hit_level(self, core: int, addr: int, kind: AccessKind = AccessKind.DATA) -> str:
        """Where an access would currently hit (no state change)."""
        level = self._hit_level_impl(core, addr, kind)
        observer = self.observer
        if observer is not None:
            observer.on_hit_level(core, addr, kind, level)
        return level

    def _hit_level_impl(self, core: int, addr: int, kind: AccessKind) -> str:
        if self._l1(core, kind).contains(addr):
            return "L1"
        if self.l2[core].contains(addr):
            return "L2"
        if self.llc.contains(addr):
            return "LLC"
        return "DRAM"

    def touch_l1(self, core: int, addr: int, kind: AccessKind = AccessKind.DATA) -> bool:
        """Apply a deferred L1 replacement update (DoM exposure)."""
        touched = self._l1(core, kind).touch(addr)
        observer = self.observer
        if observer is not None:
            observer.on_touch_l1(core, addr, kind, touched)
        return touched

    def flush(self, addr: int) -> None:
        """clflush: drop the line from every cache in the system.

        Private caches first, then the LLC.  With an inclusive LLC (the
        default) a line the LLC does not hold is in no private cache
        either, so the invalidations stop there; the coherence hook and
        the observer see every flush."""
        line = self.llc.layout.line_addr(addr)
        if self.llc.holds(line) or not self.config.inclusive_llc:
            for c in range(self.num_cores):
                self.l1i[c].invalidate(line)
                self.l1d[c].invalidate(line)
                self.l2[c].invalidate(line)
            self.llc.invalidate(line)
        if self.coherence is not None:
            self.coherence.on_flush(line)
        observer = self.observer
        if observer is not None:
            observer.on_flush(addr)

    def flush_all(self) -> None:
        for c in range(self.num_cores):
            self.l1i[c].flush_all()
            self.l1d[c].flush_all()
            self.l2[c].flush_all()
        self.llc.flush_all()

    def clear_log(self) -> None:
        self.visible_log.clear()

    # -- snapshot -------------------------------------------------------
    def capture(self) -> Tuple:
        """Capture every cache, MSHR file, DRAM, the visible log, the
        coherence directory, and the shared policy RNG."""
        return (
            tuple(cache.capture() for cache in self.all_caches()),
            self.memory.capture(),
            tuple(mshrs.capture() for mshrs in self.l1d_mshrs),
            tuple(self.visible_log),
            self.coherence.capture() if self.coherence is not None else None,
            self.policy_rng.getstate(),
        )

    def restore(self, state: Tuple) -> None:
        caches, memory, mshrs, log, coherence, rng_state = state
        for cache, cache_state in zip(self.all_caches(), caches, strict=False):
            cache.restore(cache_state)
        self.memory.restore(memory)
        for mshr_file, mshr_state in zip(self.l1d_mshrs, mshrs, strict=False):
            mshr_file.restore(mshr_state)
        # Slice-assign: the harness and agents hold index bookmarks into
        # this exact list object.
        self.visible_log[:] = log
        if self.coherence is not None and coherence is not None:
            self.coherence.restore(coherence)
        self.policy_rng.setstate(rng_state)

    def log_since(self, index: int) -> List[VisibleAccess]:
        return self.visible_log[index:]

    # -- timing constants -------------------------------------------------
    @property
    def llc_hit_latency(self) -> int:
        """Total latency of an access served by the LLC."""
        return (
            self.config.l1d.latency + self.config.l2.latency + self.config.llc.latency
        )

    @property
    def dram_floor_latency(self) -> int:
        """Minimum latency of an access served by DRAM (before jitter)."""
        return self.llc_hit_latency + self.config.dram_latency

    def miss_threshold(self) -> int:
        """Latency threshold separating LLC hits from DRAM accesses."""
        return self.llc_hit_latency + self.config.dram_latency // 2
