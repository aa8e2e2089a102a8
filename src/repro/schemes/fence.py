"""The paper's basic defense (§5.2): automatic fences after squashable
instructions.

When an instruction that might cause a mis-speculation enters the ROB,
the hardware conceptually inserts a fence behind it: younger
instructions may be dispatched, but may not *issue* until the fenced
instruction becomes non-speculative.  In the Spectre model the fence
follows branches only; in the Futuristic model it follows anything that
can squash (branches and memory operations here).

This achieves *ideal invisible speculation* (§5.1): nothing executes
under a speculative shadow, so C(E) = C(NoSpec(E)) — at the dramatic
performance cost Figure 12 quantifies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.pipeline.dyninstr import DynInstr
from repro.pipeline.rob import SafetyFlags, SafetyFrontier
from repro.pipeline.scheme_api import LoadDecision, SafetyModel, SpeculationScheme

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.core import Core


class FenceDefense(SpeculationScheme):
    """Fence-after-squashable-instructions, Spectre or Futuristic model."""

    protects_icache = True  # nothing speculative may touch any cache
    parked_loads_wake_on_events = True  # every load is VISIBLE

    def __init__(self, model: str = "spectre") -> None:
        if model not in ("spectre", "futuristic"):
            raise ValueError("model must be 'spectre' or 'futuristic'")
        self.model = model
        self.safety = (
            SafetyModel.SPECTRE if model == "spectre" else SafetyModel.FUTURISTIC
        )
        self.name = f"fence-{model}"
        #: Issue stages in which the fence held back a ready entry.
        self.issue_blocks = 0

    def issue_gate(self, frontier: SafetyFrontier) -> int:
        # Exactly the flags may_issue reads: an entry's older branches
        # (older entries) are all resolved (completed) iff its seq is at
        # most the oldest unresolved branch (incomplete entry).
        if self.model == "spectre":
            return frontier.branches
        return frontier.completed

    def on_issue_gated(self, core: "Core") -> None:
        self.issue_blocks += 1

    def may_issue(self, core: "Core", instr: DynInstr, flags: SafetyFlags) -> bool:
        if self.model == "spectre":
            allowed = flags.older_branches_resolved
        else:
            allowed = flags.older_all_completed
        if not allowed:
            self.issue_blocks += 1
        return allowed

    def peek_may_issue(self, core, instr, flags):
        if self.model == "spectre":
            return flags.older_branches_resolved
        return flags.older_all_completed

    def load_decision(self, core: "Core", load: DynInstr, safe: bool) -> LoadDecision:
        # Loads only ever reach the LSU once non-speculative (issue is
        # gated above), so they are always visible.
        return LoadDecision.VISIBLE

    def peek_load_decision(self, core, load, safe):
        return LoadDecision.VISIBLE
