"""STT — Speculative Taint Tracking (Yu et al., MICRO'19), as discussed
in the paper's related work (§6).

STT takes the *comprehensive* threat-model route the invisible-
speculation schemes avoid: values returned by speculative loads are
tainted, taint propagates through dataflow, and tainted *transmitters*
(instructions whose resource usage or latency depends on their operands
— loads, variable-latency arithmetic, and branches for implicit flows)
may not execute until the taint's root loads become non-speculative.

The paper's §6 claim, which the tests and ablation bench verify:

* STT **blocks** every speculative interference attack that leaks
  *transiently accessed* data — the gadget's transmitter never executes
  with a tainted operand, so no secret-dependent interference forms;
* STT **does not block** interference that leaks *non-transiently
  accessed* (bound-to-retire) data: if the victim architecturally loads
  the secret before the branch, its consumers are untainted and the
  mis-speculated gadget still modulates timing with it
  (:func:`repro.core.victims.gdnpeu_architectural_victim`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, List, Set

from repro.isa.instructions import OpClass
from repro.pipeline.dyninstr import DynInstr
from repro.pipeline.rob import SafetyFlags
from repro.pipeline.scheme_api import (
    LoadDecision,
    SafetyModel,
    SpeculationScheme,
    is_safe,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.core import Core


class STT(SpeculationScheme):
    """Speculative taint tracking with issue-time transmitter gating."""

    protects_icache = False
    parked_loads_wake_on_events = True  # every load is VISIBLE

    def __init__(self, mode: str = "spectre") -> None:
        if mode not in ("spectre", "futuristic"):
            raise ValueError("mode must be 'spectre' or 'futuristic'")
        self.mode = mode
        self.safety = (
            SafetyModel.SPECTRE if mode == "spectre" else SafetyModel.FUTURISTIC
        )
        self.name = f"stt-{mode}"
        #: seq -> root load seqs whose speculative data it derives from.
        self._taint: Dict[int, FrozenSet[int]] = {}
        #: root loads that have become non-speculative.
        self._safe_roots: Set[int] = set()
        self.blocked_issues = 0
        self.tainted_values = 0

    # ------------------------------------------------------------------
    def _live_taint(self, instr: DynInstr) -> FrozenSet[int]:
        """Union of the not-yet-safe taint roots of the operands."""
        roots: Set[int] = set()
        for src in instr.sources:
            if src.producer_seq is None:
                continue
            roots |= self._taint.get(src.producer_seq, frozenset())
        return frozenset(r for r in roots if r not in self._safe_roots)

    @staticmethod
    def _is_transmitter(instr: DynInstr) -> bool:
        """Operand-dependent resource usage: loads (address channel),
        variable-latency arithmetic, and branches (implicit flow)."""
        if instr.opclass in (OpClass.LOAD, OpClass.STORE, OpClass.BRANCH):
            return True
        return instr.static.dynamic_latency is not None

    # ------------------------------------------------------------------
    def may_issue(self, core: "Core", instr: DynInstr, flags: SafetyFlags) -> bool:
        live = self._live_taint(instr)
        if live and self._is_transmitter(instr):
            self.blocked_issues += 1
            return False
        # Record dataflow taint at (imminent) issue: this instruction's
        # result derives from these roots; and a speculative load's own
        # result becomes a fresh root.
        taint = set(live)
        if instr.is_load and not is_safe(self.safety, flags):
            taint.add(instr.seq)
        if taint:
            self._taint[instr.seq] = frozenset(taint)
            self.tainted_values += 1
        return True

    def peek_may_issue(self, core, instr, flags):
        return not (self._live_taint(instr) and self._is_transmitter(instr))

    def load_decision(self, core: "Core", load: DynInstr, safe: bool) -> LoadDecision:
        # Loads with untainted addresses execute normally; their own
        # *values* carry the taint instead (that is STT's bargain).
        return LoadDecision.VISIBLE

    def peek_load_decision(self, core, load, safe):
        return LoadDecision.VISIBLE

    def on_load_safe(self, core: "Core", load: DynInstr) -> None:
        """The root is now bound to retire: its taint dissolves."""
        self._safe_roots.add(load.seq)

    def on_squash(self, core: "Core", squashed: List[DynInstr]) -> None:
        for instr in squashed:
            self._taint.pop(instr.seq, None)
            self._safe_roots.discard(instr.seq)

    def on_retire(self, core: "Core", instr: DynInstr) -> None:
        # Retired instructions can no longer be consumed speculatively
        # for the first time with live taint; tidy up.
        self._taint.pop(instr.seq, None)
        self._safe_roots.discard(instr.seq)

    def reset(self) -> None:
        self._taint.clear()
        self._safe_roots.clear()
