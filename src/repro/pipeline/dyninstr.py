"""Dynamic (per-execution) instruction state."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from repro.isa.instructions import Instruction, OpClass


class Phase(enum.Enum):
    FETCHED = "fetched"
    DISPATCHED = "dispatched"  # in ROB + RS, waiting for operands/port
    ISSUED = "issued"          # executing on an EU / in the LSU
    COMPLETED = "completed"    # result broadcast; waiting to retire
    RETIRED = "retired"
    SQUASHED = "squashed"


@dataclass(slots=True)
class SourceOperand:
    """One renamed source: either an in-flight producer or a value."""

    reg: str
    producer_seq: Optional[int]  # None -> value captured at dispatch
    value: Optional[int] = None


@dataclass(slots=True)
class DynInstr:
    """A dynamic instance of a static instruction."""

    seq: int
    slot: int
    static: Instruction
    pc_addr: int
    phase: Phase = Phase.FETCHED
    sources: List[SourceOperand] = field(default_factory=list)
    #: Sources whose producer has not broadcast yet; the RS moves the
    #: entry to its ready list when this reaches 0.
    pending_sources: int = 0
    #: First cycle at which every broadcast source is visible (the
    #: broadcast cycle + 1: one-cycle wakeup delay).
    ready_cycle: int = 0
    value: Optional[int] = None
    #: Effective address (memory ops), set at issue.
    addr: Optional[int] = None
    #: Branch bookkeeping.
    predicted_taken: Optional[bool] = None
    actual_taken: Optional[bool] = None
    resolved: bool = False
    #: Load bookkeeping (managed by the LSU / scheme).
    load_state: Optional[str] = None
    became_safe: bool = False
    executed_invisibly: bool = False
    exposure_done: bool = False
    #: The value delivered was a prediction awaiting validation.
    value_predicted: bool = False
    #: Last scheme ``load_decision`` name seen by the LSU; the tracer
    #: emits ``scheme.decision`` events only on transitions, so traces
    #: are identical with idle fast-forward on or off.
    last_decision: Optional[str] = None

    # ------------------------------------------------------------------
    # Static predicates: each reads one fact the Instruction decoded
    # when it was built (see repro.isa.instructions.Instruction).
    @property
    def opclass(self) -> OpClass:
        return self.static.opclass

    @property
    def is_load(self) -> bool:
        return self.static.is_load

    @property
    def is_store(self) -> bool:
        return self.static.is_store

    @property
    def is_branch(self) -> bool:
        return self.static.is_branch

    @property
    def is_unresolved_branch(self) -> bool:
        """Casts a speculative shadow: a conditional branch that has not
        resolved.  Unconditional jumps have a statically known target
        and never mispredict, so they cast no shadow."""
        return self.static.cond_branch and not self.resolved

    @property
    def name(self) -> str:
        return self.static.label

    def source_values(self) -> List[int]:
        values = []
        for src in self.sources:
            if src.value is None:
                raise RuntimeError(
                    f"seq {self.seq} ({self.name}): source {src.reg} not ready"
                )
            values.append(src.value)
        return values

    def mispredicted(self) -> bool:
        return (
            self.is_branch
            and self.resolved
            and self.actual_taken != self.predicted_taken
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DynInstr(#{self.seq} {self.name} {self.phase.value})"
