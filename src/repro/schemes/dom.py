"""Delay-on-Miss (Sakalis et al., ISCA'19), per §2.2 of the paper.

Speculative loads that **hit in the L1-D** execute and forward their
result, but the replacement-state update the hit would have made is
deferred until the load becomes non-speculative (and dropped on squash).
Speculative loads that **miss** are delayed outright and re-executed
once safe.

The memory-consistency variant matters for Table 1: under non-TSO, any
load whose older branches have resolved and whose older memory
operations have resolved addresses is unprotected — so two unprotected
victim loads can be in flight and reordered (VD-VD).  Under TSO, a load
additionally waits for all older loads to complete, which serializes
unprotected loads.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.memory.hierarchy import AccessKind
from repro.pipeline.dyninstr import DynInstr
from repro.pipeline.scheme_api import LoadDecision, SafetyModel, SpeculationScheme

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.core import Core


class DelayOnMiss(SpeculationScheme):
    """DoM with a configurable memory model ('nontso' or 'tso').

    ``value_predict=True`` enables the paper's *selective delay with
    value prediction* mode: instead of stalling, a speculative L1 miss
    returns a last-value prediction (no memory request at all — nothing
    to make invisible), which is validated with a real visible access
    when the load becomes non-speculative; a mispredicted value squashes
    and replays the load's consumers.

    Interference note (ablation bench): value prediction happens to
    neutralize the hit/miss *load* transmitter — predicted misses return
    as fast as hits, so GDNPEU's timing differential vanishes — but the
    data-dependent-arithmetic transmitter variant still leaks.
    """

    protects_icache = False  # I-cache accesses are unprotected (§3.2.2)
    #: The decision reads only ``safe`` and L1-D presence.
    parked_loads_wake_on_events = True

    def __init__(
        self, memory_model: str = "nontso", *, value_predict: bool = False
    ) -> None:
        if memory_model not in ("nontso", "tso"):
            raise ValueError("memory_model must be 'nontso' or 'tso'")
        self.memory_model = memory_model
        self.value_predict = value_predict
        self.safety = (
            SafetyModel.NONTSO if memory_model == "nontso" else SafetyModel.TSO
        )
        suffix = "-vp" if value_predict else ""
        self.name = f"dom-{memory_model}{suffix}"
        #: (core_id, seq) -> deferred L1 replacement touch address.
        self._deferred_touch: Dict[Tuple[int, int], int] = {}
        #: last-value predictor, per static load slot.
        self._last_value: Dict[int, int] = {}
        self.delayed_misses = 0
        self.invisible_hits = 0
        self.value_predictions = 0
        self.value_mispredictions = 0

    # ------------------------------------------------------------------
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
        if self.value_predict:
            self.value_predictions += 1
            return LoadDecision.PREDICT
        self.delayed_misses += 1
        return LoadDecision.DELAY

    def peek_load_decision(self, core, load, safe):
        if safe:
            return LoadDecision.VISIBLE
        if core.hierarchy.l1_hit(core.core_id, load.addr, AccessKind.DATA):
            return LoadDecision.INVISIBLE
        return LoadDecision.PREDICT if self.value_predict else LoadDecision.DELAY

    def predict_value(self, core: "Core", load: DynInstr) -> int:
        return self._last_value.get(load.slot, 0)

    def on_load_safe(self, core: "Core", load: DynInstr) -> None:
        """Apply the deferred replacement update for an invisible hit,
        or validate a predicted value with a real (visible) access.

        (A *delayed* load is re-evaluated by the LSU itself once safe —
        nothing to do for it here.)"""
        addr = self._deferred_touch.pop((core.core_id, load.seq), None)
        if addr is not None:
            core.hierarchy.touch_l1(core.core_id, addr, AccessKind.DATA)
        if load.value_predicted and load.value is not None:
            self._validate(core, load)

    def _validate(self, core: "Core", load: DynInstr) -> None:
        result = core.hierarchy.access(
            core.core_id,
            load.addr,
            AccessKind.DATA,
            visible=True,
            cycle=core.cycle,
        )
        self._last_value[load.slot] = result.value
        load.value_predicted = False
        if result.value != load.value:
            self.value_mispredictions += 1
            core.update_value(load, result.value)
            core.replay_younger_than(load, redirect_slot=load.slot + 1)

    def on_squash(self, core: "Core", squashed: List[DynInstr]) -> None:
        for instr in squashed:
            self._deferred_touch.pop((core.core_id, instr.seq), None)

    def reset(self) -> None:
        self._deferred_touch.clear()
        self._last_value.clear()
