"""Robustness / failure-injection tests for the pipeline substrate."""

import pytest

from repro.isa import ProgramBuilder
from repro.memory.hierarchy import CacheHierarchy
from repro.pipeline import Core, CoreConfig, StaticTakenPredictor
from repro.pipeline.config import PortConfig
from repro.pipeline.core import DeadlockError
from repro.pipeline.execution_unit import CommonDataBus, ExecutionUnit
from repro.pipeline.reservation_station import ReservationStation
from repro.pipeline.rob import ROB
from repro.pipeline.dyninstr import DynInstr
from repro.isa import instructions as ins

from tests.conftest import small_hierarchy_config


def dyn(seq, inst=None):
    inst = inst or ins.nop()
    return DynInstr(seq=seq, slot=0, static=inst, pc_addr=0x400000)


class TestConfigValidation:
    def test_core_config_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            CoreConfig(fetch_width=0)
        with pytest.raises(ValueError):
            CoreConfig(rob_size=0)
        with pytest.raises(ValueError):
            CoreConfig(cdb_width=0)

    def test_port_needs_name(self):
        with pytest.raises(ValueError):
            PortConfig("")

    def test_empty_ports_rejected(self):
        with pytest.raises(ValueError):
            CoreConfig(ports=())


class TestStructuralLimits:
    def test_rob_overflow_raises(self):
        rob = ROB(2)
        rob.push(dyn(1))
        rob.push(dyn(2))
        with pytest.raises(RuntimeError, match="overflow"):
            rob.push(dyn(3))

    def test_rob_requires_program_order(self):
        rob = ROB(4)
        rob.push(dyn(5))
        with pytest.raises(RuntimeError, match="program order"):
            rob.push(dyn(3))

    def test_rs_overflow_raises(self):
        rs = ReservationStation(1)
        rs.insert(dyn(1, ins.imm("r1", 0)))
        with pytest.raises(RuntimeError, match="overflow"):
            rs.insert(dyn(2, ins.imm("r2", 0)))

    def test_nonpipelined_eu_rejects_double_issue(self):
        eu = ExecutionUnit(0, PortConfig("np", pipelined=False))
        eu.issue(dyn(1, ins.imm("r", 0)), cycle=1, latency=5)
        assert not eu.can_accept(2)
        with pytest.raises(RuntimeError):
            eu.issue(dyn(2, ins.imm("r", 0)), cycle=2, latency=5)

    def test_pipelined_eu_one_issue_per_cycle(self):
        eu = ExecutionUnit(1, PortConfig("p", pipelined=True))
        eu.issue(dyn(1, ins.imm("r", 0)), cycle=1, latency=5)
        assert not eu.can_accept(1)
        assert eu.can_accept(2)

    def test_cdb_width_positive(self):
        with pytest.raises(ValueError):
            CommonDataBus(0)


class TestDeadlockDetection:
    def test_monotonic_cycles_enforced(self):
        core = Core(
            0,
            ProgramBuilder().build(),
            CacheHierarchy(1, small_hierarchy_config()),
        )
        core.step(1)
        with pytest.raises(ValueError, match="monotonically"):
            core.step(1)

    def test_run_cycle_budget(self):
        b = ProgramBuilder()
        b.label("spin")
        b.jump("spin")
        core = Core(
            0, b.build(), CacheHierarchy(1, small_hierarchy_config())
        )
        with pytest.raises(DeadlockError):
            core.run(max_cycles=2_000)

    def test_progress_watchdog_fires(self):
        """A load that can never complete trips the watchdog rather than
        hanging forever."""
        b = ProgramBuilder()
        b.load_addr("x", 0x9000, name="ld")
        core = Core(0, b.build(), CacheHierarchy(1, small_hierarchy_config()))
        core.deadlock_window = 500

        # sabotage: swallow LSU completions so the load never finishes
        core.lsu.collect_completions = lambda cycle: []
        with pytest.raises(DeadlockError, match="no retirement"):
            core.run(max_cycles=1_000_000)


class TestSquashStorms:
    def test_repeated_mispredicts_recover(self):
        """A loop whose branch mispredicts every iteration (alternating
        outcome) must still compute the right value."""
        b = ProgramBuilder()
        b.imm("i", 0)
        b.imm("acc", 0)
        b.label("head")
        b.addi("i", "i", 1)
        b.branch_if(["i"], lambda v: v % 2 == 0, "even", name="alt")
        b.addi("acc", "acc", 1)  # odd path
        b.jump("next")
        b.label("even")
        b.addi("acc", "acc", 100)
        b.label("next")
        b.branch_if(["i"], lambda v: v < 10, "head")
        core = Core(
            0,
            b.build(),
            CacheHierarchy(1, small_hierarchy_config()),
        )
        core.run()
        assert core.regfile["acc"] == 5 * 1 + 5 * 100
        assert core.stats.mispredicts >= 4

    def test_mispredict_inside_shadow_of_mispredict(self):
        """Nested wrong-path branches: the older squash must win."""
        b = ProgramBuilder()
        b.load_addr("n", 0x48_080, name="slow")
        b.branch_if(["n"], lambda v: v > 10, "wrong1", name="outer")
        b.imm("ok", 1)
        b.jump("end")
        b.label("wrong1")
        b.branch_if(["n"], lambda v: v > 20, "wrong2", name="inner")
        b.imm("bad1", 1)
        b.label("wrong2")
        b.imm("bad2", 1)
        b.label("end")
        core = Core(
            0,
            b.build(),
            CacheHierarchy(1, small_hierarchy_config()),
            predictor=StaticTakenPredictor(True),
        )
        core.run()
        assert core.regfile.get("ok") == 1
        assert "bad1" not in core.regfile
        assert "bad2" not in core.regfile

    def test_halt_on_wrong_path_does_not_stop_machine(self):
        b = ProgramBuilder()
        b.load_addr("n", 0x48_080, name="slow")
        b.branch_if(["n"], lambda v: v > 10, "trap", name="br")
        b.imm("survived", 1)
        b.jump("end")
        b.label("trap")
        b.halt()  # speculatively fetched, must be squashed
        b.label("end")
        core = Core(
            0,
            b.build(),
            CacheHierarchy(1, small_hierarchy_config()),
            predictor=StaticTakenPredictor(True),
        )
        core.run()
        assert core.regfile.get("survived") == 1
