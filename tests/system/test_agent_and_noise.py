"""Tests for the attacker agent and the noise injector."""

import pytest

from repro.system.agent import AttackerAgent
from repro.system.machine import Machine
from repro.system.noise import NoiseInjector

from tests.conftest import small_hierarchy_config


@pytest.fixture
def machine():
    return Machine(3, hierarchy_config=small_hierarchy_config())


class TestAttackerAgent:
    def test_timed_read_classifies(self, machine):
        agent = AttackerAgent(machine, 2)
        cold = agent.timed_read(0x7000)
        assert not cold.hit
        agent.evict_own_copy(0x7000)
        warm = agent.timed_read(0x7000)
        assert warm.hit

    def test_flush_then_read_misses(self, machine):
        agent = AttackerAgent(machine, 2)
        agent.read(0x7000)
        agent.flush(0x7000)
        agent.evict_own_copy(0x7000)
        assert not agent.timed_read(0x7000).hit

    def test_evict_own_copy_keeps_llc(self, machine):
        agent = AttackerAgent(machine, 2)
        agent.read(0x7000)
        agent.evict_own_copy(0x7000)
        assert machine.hierarchy.llc.contains(0x7000)
        assert not machine.hierarchy.l1d[2].contains(0x7000)

    def test_busy_cycles_accumulate(self, machine):
        agent = AttackerAgent(machine, 2)
        agent.read(0x7000)
        assert agent.busy_cycles > 0
        before = agent.busy_cycles
        agent.flush(0x7000)
        assert agent.busy_cycles == before + agent.flush_cost

    def test_scheduled_read_happens_at_cycle(self, machine):
        agent = AttackerAgent(machine, 2)
        agent.schedule_read(0x9000, at_cycle=5)
        machine.run_cycles(4)
        assert all(e.line != 0x9000 for e in machine.hierarchy.visible_log)
        machine.run_cycles(2)
        entry = next(e for e in machine.hierarchy.visible_log if e.line == 0x9000)
        assert entry.cycle == 5
        assert entry.core == 2

    def test_scheduled_flush(self, machine):
        agent = AttackerAgent(machine, 2)
        agent.read(0x9000)
        agent.schedule_flush(0x9000, at_cycle=3)
        machine.run_cycles(5)
        assert machine.hierarchy.hit_level(2, 0x9000) == "DRAM"

    def test_core_id_validated(self, machine):
        with pytest.raises(ValueError):
            AttackerAgent(machine, 9)

    def test_prime_lines(self, machine):
        agent = AttackerAgent(machine, 2)
        lines = [0xA000, 0xB000]
        agent.prime_lines(lines, rounds=2)
        for line in lines:
            assert machine.hierarchy.llc.contains(line)


class TestNoiseInjector:
    def test_zero_rate_never_fires(self, machine):
        injector = NoiseInjector(machine, 1, [0x5000], rate=0.0)
        injector.attach()
        machine.run_cycles(100)
        assert injector.injected == 0

    def test_rate_one_fires_every_cycle(self, machine):
        injector = NoiseInjector(machine, 1, [0x5000], rate=1.0)
        injector.attach()
        machine.run_cycles(20)
        assert injector.injected == 20

    def test_deterministic_for_seed(self):
        counts = []
        for _ in range(2):
            m = Machine(2, hierarchy_config=small_hierarchy_config())
            injector = NoiseInjector(m, 1, [0x5000, 0x6000], rate=0.4, seed=9)
            injector.attach()
            m.run_cycles(200)
            counts.append(injector.injected)
        assert counts[0] == counts[1]

    def test_requires_pool_when_active(self):
        m = Machine(1, hierarchy_config=small_hierarchy_config())
        with pytest.raises(ValueError):
            NoiseInjector(m, 0, [], rate=0.5)

    def test_rate_validation(self):
        m = Machine(1, hierarchy_config=small_hierarchy_config())
        with pytest.raises(ValueError):
            NoiseInjector(m, 0, [0x100], rate=1.5)

    def test_attach_idempotent(self, machine):
        injector = NoiseInjector(machine, 1, [0x5000], rate=1.0)
        injector.attach()
        injector.attach()
        machine.run_cycles(10)
        assert injector.injected == 10
