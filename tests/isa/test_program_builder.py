"""Tests for Program and ProgramBuilder."""

import pytest

from repro.isa import ProgramBuilder
from repro.isa.instructions import OpClass, nop
from repro.isa.program import Program


def simple_program():
    b = ProgramBuilder()
    b.imm("r1", 5)
    b.label("loop_head")
    b.addi("r2", "r1", 1)
    b.branch_if(["r2"], lambda v: v > 3, "done")
    b.add("r3", "r1", "r2")
    b.label("done")
    b.halt()
    return b.build()


class TestProgramBuilder:
    def test_labels_resolve(self):
        prog = simple_program()
        assert prog.slot_of_label("loop_head") == 1
        assert prog.slot_of_label("done") == 4

    def test_auto_halt_appended(self):
        b = ProgramBuilder()
        b.imm("r1", 1)
        prog = b.build()
        assert prog.at(len(prog) - 1).opclass is OpClass.HALT

    def test_no_double_halt(self):
        b = ProgramBuilder()
        b.halt()
        prog = b.build()
        assert sum(1 for i in prog if i.opclass is OpClass.HALT) == 1

    def test_duplicate_label_rejected(self):
        b = ProgramBuilder()
        b.label("x")
        b.nop()
        with pytest.raises(ValueError):
            b.label("x")

    def test_unknown_branch_target_rejected(self):
        b = ProgramBuilder()
        b.branch_if([], lambda: True, "nowhere")
        with pytest.raises(ValueError):
            b.build()

    def test_addresses(self):
        prog = simple_program()
        assert prog.address_of_slot(0) == prog.code_base
        assert prog.address_of_slot(2) == prog.code_base + 2 * prog.inst_size
        assert prog.slot_of_address(prog.code_base + 4) == 1

    @pytest.mark.parametrize("code_base, inst_size", [(0x40_0000, 4), (0x1000, 8)])
    def test_slot_addresses_follow_address_of_slot(self, code_base, inst_size):
        prog = Program([nop() for _ in range(5)], code_base=code_base, inst_size=inst_size)
        assert list(prog.slot_addresses()) == [
            prog.address_of_slot(slot) for slot in range(len(prog))
        ]

    def test_address_alignment_check(self):
        prog = simple_program()
        with pytest.raises(ValueError):
            prog.slot_of_address(prog.code_base + 2)

    def test_align_to_line_pads_with_nops(self):
        b = ProgramBuilder(line_size=64)
        b.imm("r1", 0)
        b.align_to_line()
        b.label("target")
        b.nop(name="target instr")
        prog = b.build()
        addr = prog.address_of_label("target")
        assert addr % 64 == 0
        # the pad is made of NOPs
        for slot in range(1, prog.slot_of_label("target")):
            assert prog.at(slot).opclass is OpClass.NOP

    def test_branch_target_slot(self):
        prog = simple_program()
        branch_slot = next(
            i for i, inst in enumerate(prog) if inst.opclass is OpClass.BRANCH
        )
        assert prog.branch_target_slot(branch_slot) == prog.slot_of_label("done")

    def test_branch_target_slot_rejects_non_branch(self):
        prog = simple_program()
        with pytest.raises(ValueError):
            prog.branch_target_slot(0)

    def test_listing_contains_labels(self):
        text = simple_program().listing()
        assert "loop_head:" in text
        assert "done:" in text

    def test_jump_is_always_taken_branch(self):
        b = ProgramBuilder()
        b.jump("end")
        b.nop()
        b.label("end")
        prog = b.build()
        assert prog.at(0).compute()


class TestProgramValidation:
    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Program(instructions=[], labels={"x": 5})

    def test_store_of_written_register_accepted(self):
        b = ProgramBuilder()
        b.imm("v", 7)
        b.store_addr(0x1000, "v")
        b.halt()
        prog = b.build()
        assert any(i.opclass is OpClass.STORE for i in prog)

    def test_store_of_unwritten_value_src_rejected(self):
        b = ProgramBuilder()
        b.imm("v", 7)
        b.store_addr(0x1000, "w")  # nothing ever writes 'w'
        b.halt()
        with pytest.raises(ValueError, match="value_src"):
            b.build()

    def test_store_cannot_feed_itself(self):
        # A store writes memory, not a register: another store's output
        # name does not count as a written value source.
        b = ProgramBuilder()
        b.imm("v", 7)
        b.store_addr(0x1000, "v")
        b.store_addr(0x1040, "x")
        b.halt()
        with pytest.raises(ValueError, match="value_src"):
            b.build()
