"""SafeSpec (Khasawneh et al., DAC'19).

Like InvisiSpec, speculative loads execute without touching the caches,
but results land in *shadow structures* that later speculative loads can
hit (a small shadow buffer per core here).  SafeSpec also shadows the
I-side, so speculative instruction fetches are invisible —
which is why the GIRS attack does not work against it (Table 1).

Modes: ``wfb`` (wait-for-branch: safe when older branches resolve) and
``wfc`` (wait-for-commit: safe when the load is effectively the oldest).
On a squash the shadow entries of squashed loads vanish.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, List

from repro.memory.hierarchy import AccessKind
from repro.pipeline.dyninstr import DynInstr
from repro.pipeline.lsu import LS_DONE
from repro.pipeline.scheme_api import LoadDecision, SafetyModel, SpeculationScheme

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.core import Core


class SafeSpec(SpeculationScheme):
    """SafeSpec with a per-core shadow buffer."""

    protects_icache = True
    #: load_decision inserts into the shadow buffer on every call.
    parked_loads_wake_on_events = False

    def __init__(self, mode: str = "wfb", *, shadow_lines: int = 16) -> None:
        if mode not in ("wfb", "wfc"):
            raise ValueError("mode must be 'wfb' or 'wfc'")
        self.mode = mode
        self.safety = SafetyModel.SPECTRE if mode == "wfb" else SafetyModel.FUTURISTIC
        self.name = f"safespec-{mode}"
        self.shadow_lines = shadow_lines
        #: core_id -> ordered set of shadow-resident lines -> owner seq.
        self._shadow: Dict[int, "OrderedDict[int, int]"] = {}
        self.shadow_hits = 0
        self.invisible_loads = 0
        self.exposures = 0

    # ------------------------------------------------------------------
    def _core_shadow(self, core_id: int) -> "OrderedDict[int, int]":
        return self._shadow.setdefault(core_id, OrderedDict())

    def shadow_contains(self, core_id: int, line: int) -> bool:
        return line in self._core_shadow(core_id)

    def load_decision(self, core: "Core", load: DynInstr, safe: bool) -> LoadDecision:
        if safe:
            return LoadDecision.VISIBLE
        if load.addr is None:
            # Explicit, not an assert: survives ``python -O``.
            raise RuntimeError(
                f"load #{load.seq} reached load_decision without an address"
            )
        line = core.hierarchy.llc.layout.line_addr(load.addr)
        shadow = self._core_shadow(core.core_id)
        if line in shadow:
            self.shadow_hits += 1
            # Shadow hits behave like L1 hits: fast and invisible.  The
            # LSU sees an L1 probe miss, so pre-install nothing; we mark
            # the load as shadow-resident by leaving the decision
            # INVISIBLE — latency still comes from the hierarchy probe,
            # a conservative (slower) bound.
        else:
            shadow[line] = load.seq
            while len(shadow) > self.shadow_lines:
                shadow.popitem(last=False)
        self.invisible_loads += 1
        return LoadDecision.INVISIBLE

    def peek_load_decision(self, core, load, safe):
        return LoadDecision.VISIBLE if safe else LoadDecision.INVISIBLE

    def on_load_safe(self, core: "Core", load: DynInstr) -> None:
        if not load.executed_invisibly or load.exposure_done:
            return
        if load.addr is None or load.load_state != LS_DONE:
            return
        self._expose(core, load)

    def on_load_complete(self, core: "Core", load: DynInstr) -> None:
        if load.executed_invisibly and load.became_safe and not load.exposure_done:
            self._expose(core, load)

    def _expose(self, core: "Core", load: DynInstr) -> None:
        load.exposure_done = True
        self.exposures += 1
        core.hierarchy.access(
            core.core_id, load.addr, AccessKind.DATA, visible=True, cycle=core.cycle
        )
        shadow = self._core_shadow(core.core_id)
        shadow.pop(core.hierarchy.llc.layout.line_addr(load.addr), None)

    def on_squash(self, core: "Core", squashed: List[DynInstr]) -> None:
        """Drop shadow entries installed by squashed loads."""
        squashed_seqs = {i.seq for i in squashed if i.is_load}
        if not squashed_seqs:
            return
        shadow = self._core_shadow(core.core_id)
        for line in [l for l, seq in shadow.items() if seq in squashed_seqs]:
            del shadow[line]

    def reset(self) -> None:
        self._shadow.clear()
