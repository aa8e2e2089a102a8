"""Static instruction definitions.

Every instruction is an immutable :class:`Instruction` record.  Dynamic
(per-execution) state lives in the pipeline's ``DynInstr`` wrapper, never
here, so a single :class:`Program` can be run on many cores/machines
concurrently.

Semantics of the ``compute`` callable by opclass:

========  =====================================================
opclass   ``compute(src_values)`` returns
========  =====================================================
ALU       the destination value
LOAD      the effective address
STORE     the effective address (value comes from ``value_src``)
BRANCH    truthy if the branch is taken
others    unused
========  =====================================================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple


class OpClass(enum.Enum):
    """Broad instruction classes understood by the pipeline."""

    ALU = "alu"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    FENCE = "fence"
    NOP = "nop"
    HALT = "halt"


#: Default execution-port assignment for ALU operations.
DEFAULT_ALU_PORT = 1
#: Port used by address-generation / load issue.
LOAD_PORT = 2
STORE_PORT = 3
BRANCH_PORT = 4


@dataclass(frozen=True)
class Instruction:
    """A single static instruction.

    Attributes:
        opclass: the broad class of the instruction.
        dst: destination architectural register name, or ``None``.
        srcs: source architectural register names.
        compute: pure function of the source values (see module docstring).
        latency: execution latency in cycles (ALU/BRANCH; loads get their
            latency from the memory system).
        port: execution port the instruction issues to.
        name: human-readable tag used in traces and timelines.
        target: branch-taken destination label (resolved by the program).
        value_src: register holding the value to store (STORE only).
        micro_ops: weight used when accounting reservation-station slots.
    """

    opclass: OpClass
    dst: Optional[str] = None
    srcs: Tuple[str, ...] = ()
    compute: Optional[Callable[..., int]] = None
    latency: int = 1
    port: int = DEFAULT_ALU_PORT
    name: str = ""
    target: Optional[str] = None
    value_src: Optional[str] = None
    micro_ops: int = 1
    #: Unconditional branches never consult (or train) the predictor.
    unconditional: bool = False
    #: Operand-dependent execution time: ``dynamic_latency(*src_values)``
    #: -> cycles, overriding ``latency``.  This models data-dependent
    #: arithmetic (early-terminating multipliers etc.), the alternative
    #: transmitter class of §3.2.2 / [19].
    dynamic_latency: Optional[Callable[..., int]] = None

    def __post_init__(self) -> None:
        if not isinstance(self.srcs, tuple):
            object.__setattr__(self, "srcs", tuple(self.srcs))
        if self.opclass is OpClass.BRANCH and self.target is None:
            raise ValueError("branch instruction requires a target label")
        if self.opclass is OpClass.STORE and self.value_src is None:
            raise ValueError("store instruction requires a value_src")
        if self.latency < 1:
            raise ValueError("latency must be >= 1 cycle")

    @property
    def is_memory(self) -> bool:
        return self.opclass in (OpClass.LOAD, OpClass.STORE)

    @property
    def writes_register(self) -> bool:
        return self.dst is not None

    def describe(self) -> str:
        """Short human-readable rendering for traces."""
        parts = [self.name or self.opclass.value]
        if self.dst:
            parts.append(f"-> {self.dst}")
        if self.srcs:
            parts.append("(" + ", ".join(self.srcs) + ")")
        return " ".join(parts)


def _first(values: Sequence[int]) -> int:
    return values[0]


def alu(
    dst: str,
    srcs: Sequence[str],
    compute: Callable[..., int],
    *,
    latency: int = 1,
    port: int = DEFAULT_ALU_PORT,
    name: str = "",
    micro_ops: int = 1,
    dynamic_latency: Optional[Callable[..., int]] = None,
) -> Instruction:
    """An ALU operation ``dst = compute(*srcs)``."""
    return Instruction(
        opclass=OpClass.ALU,
        dst=dst,
        srcs=tuple(srcs),
        compute=compute,
        latency=latency,
        port=port,
        name=name or "alu",
        micro_ops=micro_ops,
        dynamic_latency=dynamic_latency,
    )


def imm(dst: str, value: int, *, name: str = "") -> Instruction:
    """Load an immediate constant into ``dst`` (1-cycle ALU op)."""
    return Instruction(
        opclass=OpClass.ALU,
        dst=dst,
        srcs=(),
        compute=lambda value=value: value,
        latency=1,
        name=name or f"imm {value:#x}",
    )


def load(
    dst: str,
    srcs: Sequence[str],
    address: Callable[..., int],
    *,
    name: str = "",
    port: int = LOAD_PORT,
) -> Instruction:
    """A load ``dst = MEM[address(*srcs)]``."""
    return Instruction(
        opclass=OpClass.LOAD,
        dst=dst,
        srcs=tuple(srcs),
        compute=address,
        port=port,
        name=name or "load",
    )


def store(
    srcs: Sequence[str],
    address: Callable[..., int],
    value_src: str,
    *,
    name: str = "",
    port: int = STORE_PORT,
) -> Instruction:
    """A store ``MEM[address(*srcs)] = value_src``."""
    return Instruction(
        opclass=OpClass.STORE,
        srcs=tuple(srcs),
        compute=address,
        value_src=value_src,
        port=port,
        name=name or "store",
    )


def branch(
    srcs: Sequence[str],
    condition: Callable[..., bool],
    target: str,
    *,
    name: str = "",
    latency: int = 1,
    port: int = BRANCH_PORT,
    unconditional: bool = False,
) -> Instruction:
    """A conditional branch to ``target`` when ``condition(*srcs)``."""
    return Instruction(
        opclass=OpClass.BRANCH,
        srcs=tuple(srcs),
        compute=condition,
        target=target,
        latency=latency,
        port=port,
        unconditional=unconditional,
        name=name or "branch",
    )


def fence(*, name: str = "") -> Instruction:
    """A full serializing fence (used by software mitigations)."""
    return Instruction(opclass=OpClass.FENCE, name=name or "fence")


def nop(*, name: str = "") -> Instruction:
    return Instruction(opclass=OpClass.NOP, name=name or "nop")


def halt() -> Instruction:
    """Marks the architectural end of the program."""
    return Instruction(opclass=OpClass.HALT, name="halt")
