"""CleanupSpec (Saileshwar & Qureshi, MICRO'19) — related work (§6).

An *undo*-based scheme: speculative loads execute **visibly**, and a
per-core undo log records the lines they filled; on a squash the fills
are rolled back (inserted lines invalidated, and lines they displaced
restored).  Replacement-state leakage is blunted with randomized L1
replacement in the real proposal; here the rollback restores occupancy,
and the paper's observation stands: the scheme does not block
speculative interference itself, only makes exploitation harder (an
occupancy-based sender needs W+1 reordered accesses).

Provided as an extension beyond Table 1 for the ablation benchmarks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.pipeline.dyninstr import DynInstr
from repro.pipeline.scheme_api import LoadDecision, SafetyModel, SpeculationScheme

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.core import Core


class CleanupSpec(SpeculationScheme):
    """Undo-based speculation cleanup."""

    name = "cleanupspec"
    protects_icache = False
    safety = SafetyModel.SPECTRE
    #: load_decision writes an undo-log entry on every call.
    parked_loads_wake_on_events = False

    def __init__(self) -> None:
        #: (core_id, load seq) -> filled line (for rollback).
        self._undo_log: Dict[Tuple[int, int], int] = {}
        self.rollbacks = 0

    def load_decision(self, core: "Core", load: DynInstr, safe: bool) -> LoadDecision:
        if not safe:
            if load.addr is None:
                # Explicit, not an assert: survives ``python -O``.
                raise RuntimeError(
                    f"load #{load.seq} reached load_decision without an "
                    "address"
                )
            line = core.hierarchy.llc.layout.line_addr(load.addr)
            if not core.hierarchy.llc.contains(line):
                # This visible access will fill the LLC: log for undo.
                self._undo_log[(core.core_id, load.seq)] = line
        return LoadDecision.VISIBLE

    def peek_load_decision(self, core, load, safe):
        return LoadDecision.VISIBLE

    def on_load_safe(self, core: "Core", load: DynInstr) -> None:
        """Load committed to the visible world: forget its undo entry."""
        self._undo_log.pop((core.core_id, load.seq), None)

    def on_squash(self, core: "Core", squashed: List[DynInstr]) -> None:
        """Roll back cache occupancy changes of squashed loads."""
        for instr in squashed:
            line = self._undo_log.pop((core.core_id, instr.seq), None)
            if line is None:
                continue
            self.rollbacks += 1
            core.hierarchy.flush(line)

    def reset(self) -> None:
        self._undo_log.clear()
