"""Conditional Speculation (Li et al., HPCA'19).

Suspect (speculative) loads are allowed to proceed only when they hit in
the cache — a hit cannot leak new occupancy information — and the hit's
replacement update is deferred; speculative misses are delayed.
Functionally close to Delay-on-Miss, but loads are trusted only once
they are effectively non-speculative in the strictest sense (grouped by
the paper with the designs that unprotect a load "only when it becomes
the oldest ... in the ROB", §3.3.1), so no two unprotected victim loads
can be reordered and GDMSHR finds no speculative MSHR pressure.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.memory.hierarchy import AccessKind
from repro.pipeline.dyninstr import DynInstr
from repro.pipeline.scheme_api import LoadDecision, SafetyModel, SpeculationScheme

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.core import Core


class ConditionalSpeculation(SpeculationScheme):
    """Conditional Speculation: hits proceed invisibly, misses wait."""

    name = "condspec"
    protects_icache = True
    safety = SafetyModel.FUTURISTIC
    #: The decision reads only ``safe`` and L1-D presence.
    parked_loads_wake_on_events = True

    def __init__(self) -> None:
        self._deferred_touch: Dict[Tuple[int, int], int] = {}
        self.invisible_hits = 0
        self.delayed_misses = 0

    def load_decision(self, core: "Core", load: DynInstr, safe: bool) -> LoadDecision:
        if safe:
            return LoadDecision.VISIBLE
        if load.addr is None:
            # Explicit, not an assert: survives ``python -O``.
            raise RuntimeError(
                f"load #{load.seq} reached load_decision without an address"
            )
        if core.hierarchy.l1_hit(core.core_id, load.addr, AccessKind.DATA):
            self.invisible_hits += 1
            self._deferred_touch[(core.core_id, load.seq)] = load.addr
            return LoadDecision.INVISIBLE
        self.delayed_misses += 1
        return LoadDecision.DELAY

    def peek_load_decision(self, core, load, safe):
        if safe:
            return LoadDecision.VISIBLE
        if core.hierarchy.l1_hit(core.core_id, load.addr, AccessKind.DATA):
            return LoadDecision.INVISIBLE
        return LoadDecision.DELAY

    def on_load_safe(self, core: "Core", load: DynInstr) -> None:
        addr = self._deferred_touch.pop((core.core_id, load.seq), None)
        if addr is not None:
            core.hierarchy.touch_l1(core.core_id, addr, AccessKind.DATA)

    def on_squash(self, core: "Core", squashed: List[DynInstr]) -> None:
        for instr in squashed:
            self._deferred_touch.pop((core.core_id, instr.seq), None)

    def reset(self) -> None:
        self._deferred_touch.clear()
