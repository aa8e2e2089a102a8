"""Delay-on-Miss behaviour tests (§2.2)."""

import pytest

from repro.isa import ProgramBuilder
from repro.pipeline.branch import StaticTakenPredictor
from repro.pipeline.scheme_api import SafetyModel
from repro.schemes import DelayOnMiss

from tests.conftest import run_on_scheme, small_hierarchy_config

# distinct L1 sets (16-set L1 in the test hierarchy)
MISS_ADDR = 0x40_0C0
HIT_ADDR = 0x44_040
COND_ADDR = 0x48_080


def speculative_load_program(addr):
    """A load in the shadow of a slow, mispredicted (taken) branch."""
    b = ProgramBuilder()
    b.load_addr("n", COND_ADDR, name="slow cond")  # DRAM miss: long shadow
    b.branch_if(["n"], lambda v: v > 10, "body", name="branch")
    b.jump("end")
    b.label("body")
    b.load_addr("x", addr, name="spec load")
    b.label("end")
    b.halt()
    return b.build()


class TestDelayOnMiss:
    def test_speculative_miss_is_delayed(self):
        """A speculative L1 miss must not access memory until the squash
        resolves it (here: it is squashed, so it never runs)."""
        scheme = DelayOnMiss("nontso")
        program = speculative_load_program(MISS_ADDR)
        machine, core = run_on_scheme(
            program, scheme, predictor=StaticTakenPredictor(True)
        )
        assert scheme.delayed_misses >= 1
        # squashed before becoming safe: the line was never fetched
        assert machine.hierarchy.hit_level(0, MISS_ADDR) == "DRAM"
        assert all(e.line != MISS_ADDR for e in machine.hierarchy.visible_log)

    def test_speculative_hit_serves_data_invisibly(self):
        scheme = DelayOnMiss("nontso")
        program = speculative_load_program(HIT_ADDR)
        hierarchy = small_hierarchy_config()
        machine, core = run_on_scheme(
            program,
            scheme,
            predictor=StaticTakenPredictor(True),
            memory={HIT_ADDR: 55},
            hierarchy=hierarchy,
        )
        assert scheme.invisible_hits == 0  # line was not primed -> miss
        # now with the line primed in L1
        scheme = DelayOnMiss("nontso")
        from repro.system.machine import Machine

        machine = Machine(num_cores=2, hierarchy_config=hierarchy)
        machine.hierarchy.memory.write(HIT_ADDR, 55)
        machine.warm_icache(0, program)
        machine.warm_data(0, [HIT_ADDR], level="L1")
        core = machine.attach(
            0, program, scheme, predictor=StaticTakenPredictor(True)
        )
        machine.run(until=lambda: core.halted, max_cycles=100_000)
        assert scheme.invisible_hits >= 1

    def test_deferred_touch_dropped_on_squash(self):
        """An invisible speculative hit defers its replacement update;
        a squash must drop it (no promotion happens)."""
        scheme = DelayOnMiss("nontso")
        program = speculative_load_program(HIT_ADDR)
        from repro.system.machine import Machine

        machine = Machine(num_cores=2, hierarchy_config=small_hierarchy_config())
        machine.warm_icache(0, program)
        machine.warm_data(0, [HIT_ADDR], level="L1")
        l1 = machine.hierarchy.l1d[0]
        before = l1.set_policy_state(HIT_ADDR)
        core = machine.attach(
            0, program, scheme, predictor=StaticTakenPredictor(True)
        )
        machine.run(until=lambda: core.halted, max_cycles=100_000)
        assert scheme.invisible_hits >= 1
        assert not scheme._deferred_touch  # dropped by the squash
        assert l1.set_policy_state(HIT_ADDR) == before

    def test_safe_load_visible(self):
        """Non-speculative loads behave normally (visible fills)."""
        scheme = DelayOnMiss("nontso")
        b = ProgramBuilder()
        b.load_addr("x", MISS_ADDR, name="plain load")
        machine, core = run_on_scheme(b.build(), scheme)
        assert machine.hierarchy.l1_hit(0, MISS_ADDR)

    def test_delayed_load_reissues_when_safe(self):
        """A delayed speculative load on the *correct* path re-executes
        once the branch resolves, and retires with the right value."""
        scheme = DelayOnMiss("nontso")
        b = ProgramBuilder()
        b.load_addr("n", COND_ADDR, name="slow cond")
        # not-taken branch; body is the fall-through (correct) path
        b.branch_if(["n"], lambda v: v > 10, "skip", name="branch")
        b.load_addr("x", MISS_ADDR, name="correct-path load")
        b.label("skip")
        b.halt()
        machine, core = run_on_scheme(
            b.build(), scheme, memory={MISS_ADDR: 77}
        )
        assert core.regfile["x"] == 77
        assert scheme.delayed_misses >= 1
        assert machine.hierarchy.l1_hit(0, MISS_ADDR)

    def test_memory_model_selects_safety(self):
        assert DelayOnMiss("nontso").safety is SafetyModel.NONTSO
        assert DelayOnMiss("tso").safety is SafetyModel.TSO
        with pytest.raises(ValueError):
            DelayOnMiss("sc")

    def test_icache_unprotected(self):
        scheme = DelayOnMiss("nontso")
        assert not scheme.protects_icache
        assert scheme.fetch_visible(None, speculative=True)
