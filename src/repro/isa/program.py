"""Program container: a sequence of instructions plus label/address maps.

Instructions live at synthetic code addresses (``code_base + slot *
inst_size``) so that the frontend's I-cache behaviour — which cache line
each fetch touches — is well defined.  Attack kits place interesting
instructions on their own cache lines via
:meth:`repro.isa.builder.ProgramBuilder.align_to_line`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List

from repro.isa.instructions import Instruction, OpClass

#: Default synthetic size of one encoded instruction, in bytes.
DEFAULT_INST_SIZE = 4
#: Default base address of the code segment.
DEFAULT_CODE_BASE = 0x40_0000


@dataclass
class Program:
    """An immutable, fully resolved program.

    Attributes:
        instructions: instruction at each slot (``None`` slots never occur;
            padding uses explicit NOPs).
        labels: label name -> slot index.
        code_base: address of slot 0.
        inst_size: bytes per instruction slot.
    """

    instructions: List[Instruction]
    labels: Dict[str, int] = field(default_factory=dict)
    code_base: int = DEFAULT_CODE_BASE
    inst_size: int = DEFAULT_INST_SIZE

    def __post_init__(self) -> None:
        for label, slot in self.labels.items():
            if not 0 <= slot <= len(self.instructions):
                raise ValueError(f"label {label!r} out of range: {slot}")
        written = {
            inst.dst
            for inst in self.instructions
            if inst.dst is not None and inst.opclass is not OpClass.STORE
        }
        for idx, inst in enumerate(self.instructions):
            if inst.opclass is OpClass.BRANCH and inst.target not in self.labels:
                raise ValueError(
                    f"branch at slot {idx} targets unknown label {inst.target!r}"
                )
            if inst.opclass is OpClass.STORE:
                # Catch a dangling store at build time: a value_src no
                # instruction writes would silently store the rename
                # default (0) at run time.
                if inst.value_src is None:
                    raise ValueError(
                        f"store at slot {idx} has no value_src"
                    )
                if inst.value_src not in written:
                    raise ValueError(
                        f"store at slot {idx} reads value_src "
                        f"{inst.value_src!r}, which no instruction writes"
                    )

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def at(self, slot: int) -> Instruction:
        return self.instructions[slot]

    def address_of_slot(self, slot: int) -> int:
        """Code address of an instruction slot."""
        return self.code_base + slot * self.inst_size

    def slot_addresses(self) -> range:
        """Code address of every slot, indexed by slot: the fetch stage
        reads it instead of calling :meth:`address_of_slot` per fetch."""
        return range(
            self.address_of_slot(0),
            self.address_of_slot(len(self.instructions)),
            self.inst_size,
        )

    def slot_of_address(self, addr: int) -> int:
        offset = addr - self.code_base
        if offset % self.inst_size:
            raise ValueError(f"address {addr:#x} not instruction-aligned")
        return offset // self.inst_size

    def slot_of_label(self, label: str) -> int:
        return self.labels[label]

    def address_of_label(self, label: str) -> int:
        """Code address of a label (useful for I-cache attack targets)."""
        return self.address_of_slot(self.labels[label])

    def branch_target_slot(self, slot: int) -> int:
        """Taken-target slot of the branch at ``slot``."""
        inst = self.instructions[slot]
        if inst.opclass is not OpClass.BRANCH:
            raise ValueError(f"slot {slot} is not a branch")
        return self.labels[inst.target]  # type: ignore[index]

    def listing(self) -> str:
        """Human-readable disassembly-style listing."""
        by_slot: Dict[int, List[str]] = {}
        for label, slot in self.labels.items():
            by_slot.setdefault(slot, []).append(label)
        lines = []
        for idx, inst in enumerate(self.instructions):
            for label in by_slot.get(idx, ()):
                lines.append(f"{label}:")
            lines.append(f"  {idx:4d} {self.address_of_slot(idx):#08x}  {inst.describe()}")
        return "\n".join(lines)
