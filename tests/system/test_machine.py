"""Tests for the multi-core machine driver."""

import dataclasses

import pytest

from repro.isa import ProgramBuilder
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import DeadlockError
from repro.system.machine import DEFAULT_CORE_CONFIG, Machine

from tests.conftest import small_hierarchy_config


def counting_program(n, reg="acc"):
    b = ProgramBuilder()
    b.imm(reg, 0)
    for _ in range(n):
        b.addi(reg, reg, 1)
    return b.build()


class TestMachine:
    def test_single_core_runs_to_halt(self):
        m = Machine(2, hierarchy_config=small_hierarchy_config())
        core = m.attach(0, counting_program(10))
        m.run()
        assert core.halted
        assert core.regfile["acc"] == 10

    def test_two_cores_lockstep(self):
        m = Machine(2, hierarchy_config=small_hierarchy_config())
        c0 = m.attach(0, counting_program(10))
        c1 = m.attach(1, counting_program(30))
        m.run()
        assert c0.regfile["acc"] == 10
        assert c1.regfile["acc"] == 30
        assert c0.halted and c1.halted

    def test_attach_validation(self):
        m = Machine(2, hierarchy_config=small_hierarchy_config())
        m.attach(0, counting_program(1))
        with pytest.raises(ValueError):
            m.attach(0, counting_program(1))
        with pytest.raises(ValueError):
            m.attach(5, counting_program(1))

    def test_run_until_predicate(self):
        m = Machine(2, hierarchy_config=small_hierarchy_config())
        m.attach(0, counting_program(50))
        m.run(until=lambda: m.cycle >= 10)
        assert m.cycle == 10

    def test_run_deadlock_guard(self):
        m = Machine(1, hierarchy_config=small_hierarchy_config())
        with pytest.raises(DeadlockError):
            m.run(max_cycles=100, until=lambda: False)

    def test_scheduled_actions_fire_in_order(self):
        m = Machine(1, hierarchy_config=small_hierarchy_config())
        fired = []
        m.schedule(5, lambda: fired.append("b"))
        m.schedule(3, lambda: fired.append("a"))
        m.schedule(5, lambda: fired.append("c"))
        m.run_cycles(10)
        assert fired == ["a", "b", "c"]

    def test_cycle_hooks_run_every_cycle(self):
        m = Machine(1, hierarchy_config=small_hierarchy_config())
        ticks = []
        m.add_cycle_hook(ticks.append)
        m.run_cycles(7)
        assert ticks == list(range(1, 8))

    def test_warm_icache_prevents_fetch_stalls(self):
        m = Machine(1, hierarchy_config=small_hierarchy_config())
        program = counting_program(20)
        m.warm_icache(0, program)
        core = m.attach(0, program)
        m.run()
        assert core.stats.icache_miss_stalls == 0

    def test_warm_data_levels(self):
        m = Machine(1, hierarchy_config=small_hierarchy_config())
        m.warm_data(0, [0x8000], level="L1")
        assert m.hierarchy.l1_hit(0, 0x8000)
        m.warm_data(0, [0x9000], level="LLC")
        assert not m.hierarchy.l1_hit(0, 0x9000)
        assert m.hierarchy.llc.contains(0x9000)

    def test_warm_does_not_pollute_visible_log(self):
        m = Machine(1, hierarchy_config=small_hierarchy_config())
        m.warm_data(0, [0x8000])
        m.warm_icache(0, counting_program(3))
        assert m.hierarchy.visible_log == []

    def test_detach(self):
        m = Machine(2, hierarchy_config=small_hierarchy_config())
        m.attach(0, counting_program(5))
        m.detach(0)
        assert not m.cores

    def test_machines_share_one_frozen_default_core_config(self):
        a = Machine(1, hierarchy_config=small_hierarchy_config())
        b = Machine(3)
        assert a.default_core_config is b.default_core_config is DEFAULT_CORE_CONFIG
        assert DEFAULT_CORE_CONFIG == CoreConfig()
        assert a.attach(0, counting_program(2)).config is DEFAULT_CORE_CONFIG
        with pytest.raises(dataclasses.FrozenInstanceError):
            DEFAULT_CORE_CONFIG.rob_size = 8
        own = CoreConfig(rob_size=32)
        assert Machine(1, core_config=own).default_core_config is own
