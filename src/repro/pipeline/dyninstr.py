"""Dynamic (per-execution) instruction state."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

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
    @property
    def opclass(self) -> OpClass:
        return self.static.opclass

    @property
    def is_load(self) -> bool:
        return self.static.opclass is OpClass.LOAD

    @property
    def is_store(self) -> bool:
        return self.static.opclass is OpClass.STORE

    @property
    def is_branch(self) -> bool:
        return self.static.opclass is OpClass.BRANCH

    @property
    def is_unresolved_branch(self) -> bool:
        """Casts a speculative shadow: a conditional branch that has not
        resolved.  Unconditional jumps have a statically known target
        and never mispredict, so they cast no shadow."""
        return (
            self.is_branch
            and not self.static.unconditional
            and not self.resolved
        )

    @property
    def name(self) -> str:
        return self.static.name or self.static.opclass.value

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


# ----------------------------------------------------------------------
# snapshot codec (used by repro.snapshot via Core.capture/restore)
# ----------------------------------------------------------------------
#: Bump when the capture tuple layout below changes.
DYNINSTR_SNAP_VERSION = 1
DYNINSTR_SNAP_SCHEMA = (
    "seq",
    "slot",
    "pc_addr",
    "phase",
    "sources(reg,producer_seq,value)",
    "value",
    "addr",
    "predicted_taken",
    "actual_taken",
    "resolved",
    "load_state",
    "became_safe",
    "executed_invisibly",
    "exposure_done",
    "value_predicted",
    "last_decision",
)


def capture_dyninstr(instr: DynInstr) -> Tuple:
    """Flat tuple of one dynamic instruction's mutable state.

    ``static`` is deliberately omitted: it is identified by ``slot`` and
    re-resolved against the (immutable) program on restore, so captures
    never hold instruction objects (whose compute lambdas are unhashable
    and unpicklable).
    """
    return (
        instr.seq,
        instr.slot,
        instr.pc_addr,
        instr.phase,
        tuple((s.reg, s.producer_seq, s.value) for s in instr.sources),
        instr.value,
        instr.addr,
        instr.predicted_taken,
        instr.actual_taken,
        instr.resolved,
        instr.load_state,
        instr.became_safe,
        instr.executed_invisibly,
        instr.exposure_done,
        instr.value_predicted,
        instr.last_decision,
    )


def restore_dyninstr(state: Tuple, static: Instruction) -> DynInstr:
    """Rebuild a fresh :class:`DynInstr` from :func:`capture_dyninstr`
    output plus the static instruction resolved from the program."""
    (
        seq,
        slot,
        pc_addr,
        phase,
        sources,
        value,
        addr,
        predicted_taken,
        actual_taken,
        resolved,
        load_state,
        became_safe,
        executed_invisibly,
        exposure_done,
        value_predicted,
        last_decision,
    ) = state
    instr = DynInstr(seq=seq, slot=slot, static=static, pc_addr=pc_addr)
    instr.phase = phase
    instr.sources = [
        SourceOperand(reg=reg, producer_seq=producer, value=val)
        for reg, producer, val in sources
    ]
    instr.value = value
    instr.addr = addr
    instr.predicted_taken = predicted_taken
    instr.actual_taken = actual_taken
    instr.resolved = resolved
    instr.load_state = load_state
    instr.became_safe = became_safe
    instr.executed_invisibly = executed_invisibly
    instr.exposure_done = exposure_done
    instr.value_predicted = value_predicted
    instr.last_decision = last_decision
    return instr
