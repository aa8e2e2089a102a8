"""The paper's advanced defense sketch (§5.4).

Two rules layered on top of an invisible-speculation base scheme:

1. **No early release** — a speculative instruction holds its hardware
   resources (reservation-station slots here) until it is
   non-speculative or squashed, making occupancy operand-independent.
2. **No delaying older instructions** — resources arbitrate by ROB age,
   and non-pipelined execution units are *squashable*: a younger
   occupant is kicked off (and later re-issued) when an older
   instruction wants the unit.

Together these remove the timing channel the interference gadgets use:
a younger (possibly mis-speculated) instruction can no longer change
*when* an older instruction executes.  The ablation benchmark measures
the cost: extra RS pressure and wasted EU work from preemptions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.pipeline.dyninstr import DynInstr
from repro.pipeline.rob import SafetyFlags, SafetyFrontier
from repro.pipeline.scheme_api import LoadDecision, SpeculationScheme

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.core import Core


class PriorityDefense(SpeculationScheme):
    """Resource-holding + age-priority scheduling over a base scheme."""

    hold_rs_until_safe = True
    preempt_eus = True

    def __init__(self, base: Optional[SpeculationScheme] = None) -> None:
        if base is None:
            from repro.schemes.dom import DelayOnMiss

            base = DelayOnMiss("nontso")
        self.base = base
        self.name = f"priority+{base.name}"
        self.safety = base.safety
        self.protects_icache = base.protects_icache
        self.parked_loads_wake_on_events = base.parked_loads_wake_on_events

    # Delegate the cache-visibility policy to the base scheme.
    def load_decision(self, core: "Core", load: DynInstr, safe: bool) -> LoadDecision:
        return self.base.load_decision(core, load, safe)

    def peek_load_decision(self, core, load, safe):
        return self.base.peek_load_decision(core, load, safe)

    def on_load_complete(self, core: "Core", load: DynInstr) -> None:
        self.base.on_load_complete(core, load)

    def on_load_safe(self, core: "Core", load: DynInstr) -> None:
        self.base.on_load_safe(core, load)

    def may_issue(self, core: "Core", instr: DynInstr, flags: SafetyFlags) -> bool:
        return self.base.may_issue(core, instr, flags)

    def peek_may_issue(self, core, instr, flags):
        return self.base.peek_may_issue(core, instr, flags)

    def issue_gate(self, frontier: SafetyFrontier) -> Optional[int]:
        return self.base.issue_gate(frontier)

    def on_issue_gated(self, core: "Core") -> None:
        self.base.on_issue_gated(core)

    def fetch_visible(self, core: "Core", speculative: bool) -> bool:
        return self.base.fetch_visible(core, speculative)

    def on_squash(self, core: "Core", squashed: List[DynInstr]) -> None:
        self.base.on_squash(core, squashed)

    def on_retire(self, core: "Core", instr: DynInstr) -> None:
        self.base.on_retire(core, instr)

    def reset(self) -> None:
        self.base.reset()
