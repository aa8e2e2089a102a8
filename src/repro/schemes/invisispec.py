"""InvisiSpec (Yan et al., MICRO'18).

Speculative loads execute *invisibly*: the request traverses the whole
hierarchy and returns data to a per-load speculative buffer, changing no
cache state.  When the load becomes safe it performs its
validation/exposure access, which fills the caches visibly.  Speculative
L1-D misses allocate MSHRs under the standard policy — the paper's
GDMSHR gadget exploits exactly this (§3.2.2).

Modes: ``spectre`` (loads are safe once older branches resolve) and
``futuristic`` (safe only once every older instruction has completed).
I-cache accesses are not protected.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.memory.hierarchy import AccessKind
from repro.pipeline.dyninstr import DynInstr
from repro.pipeline.lsu import LS_DONE
from repro.pipeline.scheme_api import LoadDecision, SafetyModel, SpeculationScheme

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.core import Core


class InvisiSpec(SpeculationScheme):
    """InvisiSpec in Spectre or Futuristic mode."""

    protects_icache = False
    #: The decision reads only ``safe``.
    parked_loads_wake_on_events = True

    def __init__(self, mode: str = "spectre") -> None:
        if mode not in ("spectre", "futuristic"):
            raise ValueError("mode must be 'spectre' or 'futuristic'")
        self.mode = mode
        self.safety = (
            SafetyModel.SPECTRE if mode == "spectre" else SafetyModel.FUTURISTIC
        )
        self.name = f"invisispec-{mode}"
        self.invisible_loads = 0
        self.exposures = 0

    def load_decision(self, core: "Core", load: DynInstr, safe: bool) -> LoadDecision:
        if safe:
            return LoadDecision.VISIBLE
        self.invisible_loads += 1
        return LoadDecision.INVISIBLE

    def peek_load_decision(self, core, load, safe):
        return LoadDecision.VISIBLE if safe else LoadDecision.INVISIBLE

    def on_load_safe(self, core: "Core", load: DynInstr) -> None:
        """Exposure: make the earlier invisible access visible."""
        if not load.executed_invisibly or load.exposure_done:
            return
        if load.addr is None or load.load_state != LS_DONE:
            # Data not back yet: the completion handler exposes instead.
            return
        self._expose(core, load)

    def on_load_complete(self, core: "Core", load: DynInstr) -> None:
        if load.executed_invisibly and load.became_safe and not load.exposure_done:
            self._expose(core, load)

    def _expose(self, core: "Core", load: DynInstr) -> None:
        load.exposure_done = True
        self.exposures += 1
        core.hierarchy.access(
            core.core_id,
            load.addr,
            AccessKind.DATA,
            visible=True,
            cycle=core.cycle,
        )
