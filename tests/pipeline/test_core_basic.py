"""Functional correctness of the OoO core against the golden model."""

from repro.analysis.timeline import timeline_rows
from repro.isa import Interpreter, ProgramBuilder
from repro.memory.hierarchy import CacheHierarchy
from repro.pipeline import Core, CoreConfig, StaticTakenPredictor
from repro.trace import EventKind, Tracer, install_tracer

from tests.conftest import small_hierarchy_config


def run_core(program, *, registers=None, predictor=None, tracer=None, config=None):
    hierarchy = CacheHierarchy(1, small_hierarchy_config())
    core = Core(
        0,
        program,
        hierarchy,
        config=config or CoreConfig(),
        predictor=predictor,
        registers=registers,
    )
    if tracer is not None:
        install_tracer(tracer, core=core)
    core.run(max_cycles=100_000)
    return core


def assert_matches_interpreter(program, *, registers=None):
    expected = Interpreter(program).run(registers=registers)
    core = run_core(program, registers=registers)
    for reg, value in expected.registers.items():
        assert core.regfile.get(reg) == value, f"register {reg}"
    for addr, value in expected.memory.items():
        assert core.hierarchy.memory.peek(addr) == value, f"mem {addr:#x}"
    return core


class TestStraightLine:
    def test_arithmetic_chain(self):
        b = ProgramBuilder()
        b.imm("r1", 10)
        b.addi("r2", "r1", 5)
        b.add("r3", "r1", "r2")
        assert_matches_interpreter(b.build())

    def test_many_independent_ops(self):
        b = ProgramBuilder()
        for i in range(50):
            b.imm(f"r{i}", i * 3)
        assert_matches_interpreter(b.build())

    def test_long_dependent_chain(self):
        b = ProgramBuilder()
        b.imm("r0", 1)
        for i in range(1, 40):
            b.addi("r0", "r0", 1)
        core = assert_matches_interpreter(b.build())
        assert core.regfile["r0"] == 40

    def test_load_uninitialized_is_zero(self):
        b = ProgramBuilder()
        b.load_addr("r1", 0xBEEF0)
        core = assert_matches_interpreter(b.build())
        assert core.regfile["r1"] == 0

    def test_store_then_load(self):
        b = ProgramBuilder()
        b.imm("addr", 0x2000)
        b.imm("val", 123)
        b.store(["addr"], lambda a: a, "val")
        b.load("out", ["addr"], lambda a: a)
        core = assert_matches_interpreter(b.build())
        assert core.regfile["out"] == 123

    def test_store_load_forwarding_used(self):
        b = ProgramBuilder()
        b.imm("addr", 0x2000)
        b.imm("val", 7)
        b.store(["addr"], lambda a: a, "val")
        b.load("out", ["addr"], lambda a: a)
        core = run_core(b.build())
        assert core.regfile["out"] == 7
        assert core.lsu.stats_forwards >= 1

    def test_initial_registers(self):
        b = ProgramBuilder()
        b.addi("r2", "seed", 1)
        core = run_core(b.build(), registers={"seed": 41})
        assert core.regfile["r2"] == 42


class TestBranches:
    def test_not_taken_correctly_predicted(self):
        b = ProgramBuilder()
        b.imm("r1", 0)
        b.branch_if(["r1"], lambda v: v == 1, "skip")
        b.imm("r2", 5)
        b.label("skip")
        core = assert_matches_interpreter(b.build())
        assert core.stats.mispredicts == 0  # default predictor: not-taken-ish

    def test_taken_branch(self):
        b = ProgramBuilder()
        b.imm("r1", 1)
        b.branch_if(["r1"], lambda v: v == 1, "skip")
        b.imm("r2", 5)
        b.label("skip")
        b.imm("r3", 9)
        core = assert_matches_interpreter(b.build())
        assert "r2" not in core.regfile
        assert core.regfile["r3"] == 9

    def test_mispredict_squashes_wrong_path(self):
        """Static-taken predictor on a not-taken branch must squash."""
        b = ProgramBuilder()
        b.imm("r1", 0)
        b.branch_if(["r1"], lambda v: v == 1, "wrong")
        b.imm("r2", 5)
        b.jump("end")
        b.label("wrong")
        b.imm("r2", 99)
        b.label("end")
        core = run_core(b.build(), predictor=StaticTakenPredictor(True))
        assert core.regfile["r2"] == 5
        assert core.stats.mispredicts >= 1
        assert core.stats.squashes >= 1

    def test_loop(self):
        b = ProgramBuilder()
        b.imm("i", 0)
        b.imm("acc", 0)
        b.label("head")
        b.add("acc", "acc", "i")
        b.addi("i", "i", 1)
        b.branch_if(["i"], lambda v: v < 10, "head")
        core = assert_matches_interpreter(b.build())
        assert core.regfile["acc"] == sum(range(10))

    def test_nested_mispredicts(self):
        b = ProgramBuilder()
        b.imm("r1", 0)
        b.branch_if(["r1"], lambda v: v == 1, "a")
        b.branch_if(["r1"], lambda v: v == 1, "b")
        b.imm("r2", 1)
        b.label("a")
        b.label("b")
        b.addi("r3", "r2", 1)
        assert_matches_interpreter(b.build())

    def test_squash_restores_rename(self):
        """Wrong path writes r2; after squash, r2 must read the old value."""
        b = ProgramBuilder()
        b.imm("r2", 7)
        b.imm("r1", 0)
        b.branch_if(["r1"], lambda v: v == 1, "wrong")
        b.jump("end")
        b.label("wrong")
        b.imm("r2", 99)
        b.addi("r4", "r2", 0)
        b.label("end")
        b.addi("r3", "r2", 1)
        core = run_core(b.build(), predictor=StaticTakenPredictor(True))
        assert core.regfile["r3"] == 8


class TestMemoryDependencies:
    def test_store_value_dependency(self):
        b = ProgramBuilder()
        b.imm("a", 0x3000)
        b.imm("x", 3)
        b.addi("y", "x", 4)
        b.store(["a"], lambda a: a, "y")
        b.load("z", ["a"], lambda a: a)
        core = assert_matches_interpreter(b.build())
        assert core.regfile["z"] == 7

    def test_two_stores_same_addr_forward_youngest(self):
        b = ProgramBuilder()
        b.imm("a", 0x3000)
        b.imm("v1", 1)
        b.imm("v2", 2)
        b.store(["a"], lambda a: a, "v1")
        b.store(["a"], lambda a: a, "v2")
        b.load("out", ["a"], lambda a: a)
        core = assert_matches_interpreter(b.build())
        assert core.regfile["out"] == 2

    def test_loads_to_distinct_addrs(self):
        b = ProgramBuilder()
        for i in range(6):
            b.load_addr(f"r{i}", 0x4000 + i * 64)
        assert_matches_interpreter(b.build())


class TestPipelineInvariants:
    def test_event_ordering(self):
        b = ProgramBuilder()
        b.imm("r1", 1)
        b.addi("r2", "r1", 1)
        b.load_addr("r3", 0x1000)
        b.store_addr(0x2000, "r2")
        tracer = Tracer()
        run_core(b.build(), tracer=tracer)
        for row in timeline_rows(tracer):
            if row.retire is None:
                continue
            assert row.fetch <= row.dispatch
            if row.issue is not None:
                assert row.dispatch <= row.issue
                assert row.issue < row.complete
            assert row.complete <= row.retire

    def test_retirement_in_program_order(self):
        b = ProgramBuilder()
        b.load_addr("slow", 0x9000)       # DRAM miss: completes late
        b.imm("fast", 1)                  # completes immediately
        tracer = Tracer()
        run_core(b.build(), tracer=tracer)
        seqs = [e.seq for e in tracer.filtered(kinds=[EventKind.COMMIT])]
        assert seqs == sorted(seqs)

    def test_out_of_order_completion(self):
        b = ProgramBuilder()
        b.load_addr("slow", 0x9000)
        b.imm("fast", 1)
        tracer = Tracer()
        run_core(b.build(), tracer=tracer)
        by_name = {row.name: row for row in timeline_rows(tracer)}
        slow = by_name["load"]
        fast = by_name["imm 0x1"]
        assert fast.complete < slow.complete
        assert fast.retire >= slow.retire or fast.retire > fast.complete

    def test_ipc_reported(self):
        b = ProgramBuilder()
        for i in range(20):
            b.imm(f"r{i}", i)
        core = run_core(b.build())
        assert 0 < core.stats.ipc <= core.config.dispatch_width

    def test_fence_serializes(self):
        b = ProgramBuilder()
        b.imm("r1", 1)
        b.fence()
        b.addi("r2", "r1", 1)
        core = run_core(b.build())
        assert core.regfile["r2"] == 2
