"""Functional (architectural) interpreter.

Executes a :class:`~repro.isa.program.Program` in program order with no
micro-architecture.  It is the golden model for the out-of-order
pipeline: for any program, the pipeline's retired architectural state
must match the interpreter's final state exactly.  It also records the
dynamic branch-outcome sequence used by the *oracle predictor* when
constructing the paper's ``NoSpec(E)`` executions (§5.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.isa.instructions import OpClass
from repro.isa.program import Program


class InterpreterError(RuntimeError):
    """Raised when a program misbehaves under functional execution."""


@dataclass
class InterpreterResult:
    """Architectural outcome of a functional run."""

    registers: Dict[str, int]
    memory: Dict[int, int]
    #: Taken/not-taken outcome of each dynamically executed conditional
    #: branch, in order (unconditional jumps are omitted: they never
    #: consult a predictor, so an oracle replay must not consume them).
    branch_outcomes: List[bool]
    #: (kind, address) of each architectural memory access, in order.
    memory_trace: List[Tuple[str, int]]
    instructions_executed: int
    halted: bool


class Interpreter:
    """In-order architectural executor with an instruction budget."""

    def __init__(self, program: Program, *, max_instructions: int = 1_000_000):
        self.program = program
        self.max_instructions = max_instructions

    def run(
        self,
        *,
        registers: Optional[Mapping[str, int]] = None,
        memory: Optional[Mapping[int, int]] = None,
    ) -> InterpreterResult:
        regs: Dict[str, int] = dict(registers or {})
        mem: Dict[int, int] = dict(memory or {})
        branch_outcomes: List[bool] = []
        memory_trace: List[Tuple[str, int]] = []
        slot = 0
        executed = 0
        halted = False

        while slot < len(self.program):
            if executed >= self.max_instructions:
                raise InterpreterError(
                    f"instruction budget exceeded ({self.max_instructions})"
                )
            inst = self.program.at(slot)
            executed += 1
            next_slot = slot + 1

            if inst.opclass is OpClass.HALT:
                halted = True
                break
            if inst.opclass in (OpClass.NOP, OpClass.FENCE):
                pass
            elif inst.opclass is OpClass.ALU:
                values = [self._read(regs, r) for r in inst.srcs]
                result = inst.compute(*values)  # type: ignore[misc]
                regs[inst.dst] = result  # type: ignore[index]
            elif inst.opclass is OpClass.LOAD:
                values = [self._read(regs, r) for r in inst.srcs]
                addr = inst.compute(*values)  # type: ignore[misc]
                memory_trace.append(("load", addr))
                regs[inst.dst] = mem.get(addr, 0)  # type: ignore[index]
            elif inst.opclass is OpClass.STORE:
                values = [self._read(regs, r) for r in inst.srcs]
                addr = inst.compute(*values)  # type: ignore[misc]
                memory_trace.append(("store", addr))
                mem[addr] = self._read(regs, inst.value_src)  # type: ignore[arg-type]
            elif inst.opclass is OpClass.BRANCH:
                values = [self._read(regs, r) for r in inst.srcs]
                taken = bool(inst.compute(*values))  # type: ignore[misc]
                if not inst.unconditional:
                    branch_outcomes.append(taken)
                if taken:
                    next_slot = self.program.branch_target_slot(slot)
            else:  # pragma: no cover - exhaustive over OpClass
                raise InterpreterError(f"unknown opclass {inst.opclass}")

            slot = next_slot

        return InterpreterResult(
            registers=regs,
            memory=mem,
            branch_outcomes=branch_outcomes,
            memory_trace=memory_trace,
            instructions_executed=executed,
            halted=halted,
        )

    @staticmethod
    def _read(regs: Dict[str, int], name: str) -> int:
        return regs.get(name, 0)
