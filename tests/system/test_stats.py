"""Tests for the machine/core statistics reports."""

import json

from repro.isa import ProgramBuilder
from repro.system.machine import Machine
from repro.system.stats import core_report, machine_report

from tests.conftest import small_hierarchy_config


def run_machine():
    m = Machine(2, hierarchy_config=small_hierarchy_config())
    b = ProgramBuilder()
    b.imm("i", 0)
    b.label("head")
    b.load("x", ["i"], lambda v: 0x40_000 + (v % 4) * 64, name="ld")
    b.addi("i", "i", 1)
    b.branch_if(["i"], lambda v: v < 8, "head")
    program = b.build()
    m.warm_icache(0, program)
    core = m.attach(0, program, None)
    m.run()
    return m, core


class TestCoreReport:
    def test_counters_match_stats(self):
        m, core = run_machine()
        report = core_report(core)
        assert report.cycles == core.stats.cycles
        assert report.retired == core.stats.retired
        assert report.branches == core.stats.branches
        assert report.scheme == "unsafe"

    def test_mispredict_rate(self):
        m, core = run_machine()
        report = core_report(core)
        assert 0.0 <= report.mispredict_rate <= 1.0

    def test_as_dict_round_trips_json(self):
        m, core = run_machine()
        blob = json.dumps(core_report(core).as_dict())
        assert json.loads(blob)["core"] == 0


class TestMachineReport:
    def test_aggregates_all_levels(self):
        m, core = run_machine()
        report = machine_report(m)
        names = {c.name for c in report.caches}
        assert {"L1I.0", "L1D.0", "L2.0", "LLC"} <= names
        assert report.cycles == m.cycle
        assert report.dram_reads > 0

    def test_llc_hit_rate_sane(self):
        m, core = run_machine()
        report = machine_report(m)
        llc = next(c for c in report.caches if c.name == "LLC")
        assert 0.0 <= llc.hit_rate <= 1.0
        assert llc.accesses == llc.hits + llc.misses

    def test_render_mentions_cores_and_caches(self):
        m, core = run_machine()
        text = machine_report(m).render()
        assert "core 0" in text
        assert "LLC" in text
        assert "ipc" in text

    def test_json_serializable(self):
        m, core = run_machine()
        blob = json.dumps(machine_report(m).as_dict())
        parsed = json.loads(blob)
        assert parsed["cycles"] == m.cycle
        assert len(parsed["cores"]) == 1
