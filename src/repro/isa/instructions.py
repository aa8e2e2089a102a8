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
from dataclasses import dataclass, field
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


#: The classes that take a reservation-station slot.
_RS_CLASSES = frozenset(
    (OpClass.ALU, OpClass.BRANCH, OpClass.LOAD, OpClass.STORE)
)

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

    ``__post_init__`` also decodes a few facts the pipeline reads for
    every dynamic instance, instead of re-testing the opclass each time
    (``is_load``, ``needs_rs``, ``rename_srcs``, ``label``, ...; see the
    fields below).  They are not constructor arguments, are left out of
    ``==``, ``hash`` and ``repr``, and ``dataclasses.replace`` derives
    them afresh.
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

    # Decoded facts, set by __post_init__ (see the class docstring).
    is_load: bool = field(init=False, repr=False, compare=False)
    is_store: bool = field(init=False, repr=False, compare=False)
    is_branch: bool = field(init=False, repr=False, compare=False)
    #: A conditional branch: indexed by the ROB, casts a speculative
    #: shadow until it resolves.
    cond_branch: bool = field(init=False, repr=False, compare=False)
    #: Takes a reservation-station slot (ALU, BRANCH, LOAD, STORE); the
    #: other classes complete at dispatch.
    needs_rs: bool = field(init=False, repr=False, compare=False)
    #: Register rename maps to this instruction: ``dst``, or ``None``
    #: for a store.
    rename_dst: Optional[str] = field(init=False, repr=False, compare=False)
    #: Registers read at rename: ``srcs``, then a store's ``value_src``.
    rename_srcs: Tuple[str, ...] = field(init=False, repr=False, compare=False)
    #: Trace and timeline tag: ``name``, or the opclass value.
    label: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.srcs, tuple):
            object.__setattr__(self, "srcs", tuple(self.srcs))
        opclass = self.opclass
        is_store = opclass is OpClass.STORE
        is_branch = opclass is OpClass.BRANCH
        value_src = self.value_src
        if is_branch and self.target is None:
            raise ValueError("branch instruction requires a target label")
        if is_store and value_src is None:
            raise ValueError("store instruction requires a value_src")
        if self.latency < 1:
            raise ValueError("latency must be >= 1 cycle")
        srcs = self.srcs
        # object.__setattr__, as the frozen dataclass's own __init__
        # does.  Writing through vars(self) instead would turn the
        # instance's attribute storage into a plain dict, which makes
        # every later attribute read several times slower.
        decode = object.__setattr__
        decode(self, "is_load", opclass is OpClass.LOAD)
        decode(self, "is_store", is_store)
        decode(self, "is_branch", is_branch)
        decode(self, "cond_branch", is_branch and not self.unconditional)
        decode(self, "needs_rs", opclass in _RS_CLASSES)
        decode(self, "rename_dst", None if is_store else self.dst)
        decode(
            self,
            "rename_srcs",
            srcs + (value_src,) if is_store and value_src is not None else srcs,
        )
        decode(self, "label", self.name or opclass.value)

    @property
    def is_memory(self) -> bool:
        return self.is_load or self.is_store

    @property
    def writes_register(self) -> bool:
        return self.dst is not None

    def describe(self) -> str:
        """Short human-readable rendering for traces."""
        parts = [self.label]
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
