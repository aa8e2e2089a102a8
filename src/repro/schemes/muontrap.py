"""MuonTrap (Ainsworth & Jones, ISCA'20).

Speculative loads fill a small per-core *filter cache* (L0) instead of
the main hierarchy.  Hits in the filter are fast; misses fetch from the
hierarchy invisibly (allocating MSHRs — GDMSHR applies, Table 1).  When
a load becomes non-speculative its line is promoted into the real
hierarchy with a visible access; on a squash the filter is flushed.
Loads become non-speculative only at the head of the ROB (futuristic-
style), so no two unprotected victim loads overlap.  An instruction
filter protects the I-side.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from repro.memory.cache import Cache
from repro.memory.hierarchy import AccessKind
from repro.pipeline.dyninstr import DynInstr
from repro.pipeline.lsu import LS_DONE
from repro.pipeline.scheme_api import LoadDecision, SafetyModel, SpeculationScheme

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.core import Core


class MuonTrap(SpeculationScheme):
    """MuonTrap with a per-core filter cache."""

    name = "muontrap"
    protects_icache = True
    safety = SafetyModel.FUTURISTIC
    #: load_decision accesses (and on a miss fills) the filter on every
    #: call.
    parked_loads_wake_on_events = False

    def __init__(self, *, filter_sets: int = 8, filter_ways: int = 2) -> None:
        self.filter_sets = filter_sets
        self.filter_ways = filter_ways
        self._filters: Dict[int, Cache] = {}
        self.filter_hits = 0
        self.filter_fills = 0
        self.promotions = 0

    def filter_for(self, core_id: int) -> Cache:
        cache = self._filters.get(core_id)
        if cache is None:
            cache = Cache(
                f"muontrap-L0.{core_id}",
                num_sets=self.filter_sets,
                num_ways=self.filter_ways,
                policy="lru",
            )
            self._filters[core_id] = cache
        return cache

    # ------------------------------------------------------------------
    def load_decision(self, core: "Core", load: DynInstr, safe: bool) -> LoadDecision:
        if safe:
            return LoadDecision.VISIBLE
        if load.addr is None:
            # Explicit, not an assert: survives ``python -O``.
            raise RuntimeError(
                f"load #{load.seq} reached load_decision without an address"
            )
        filt = self.filter_for(core.core_id)
        if filt.access(load.addr):
            self.filter_hits += 1
        else:
            filt.fill(load.addr)
            self.filter_fills += 1
        # Either way the main hierarchy sees, at most, an invisible
        # refill request (the LSU charges hierarchy latency on filter
        # misses because the L1 probe misses).
        return LoadDecision.INVISIBLE

    def peek_load_decision(self, core, load, safe):
        # The filter bookkeeping in load_decision is idempotent for a
        # parked load (same line, no interleaving traffic while every
        # core is quiescent), so previewing just the decision is exact.
        return LoadDecision.VISIBLE if safe else LoadDecision.INVISIBLE

    def on_load_safe(self, core: "Core", load: DynInstr) -> None:
        if not load.executed_invisibly or load.exposure_done:
            return
        if load.addr is None or load.load_state != LS_DONE:
            return
        self._promote(core, load)

    def on_load_complete(self, core: "Core", load: DynInstr) -> None:
        if load.executed_invisibly and load.became_safe and not load.exposure_done:
            self._promote(core, load)

    def _promote(self, core: "Core", load: DynInstr) -> None:
        """Move the line from the filter into the visible hierarchy."""
        load.exposure_done = True
        self.promotions += 1
        core.hierarchy.access(
            core.core_id, load.addr, AccessKind.DATA, visible=True, cycle=core.cycle
        )
        self.filter_for(core.core_id).invalidate(load.addr)

    def on_squash(self, core: "Core", squashed: List[DynInstr]) -> None:
        """Flush the speculative filter on every squash."""
        if any(i.is_load for i in squashed):
            self.filter_for(core.core_id).flush_all()

    def reset(self) -> None:
        self._filters.clear()
