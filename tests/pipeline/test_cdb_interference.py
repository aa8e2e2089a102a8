"""Figure 1's CDB interference vector, and why arbitration matters.

Under fixed port-priority bus grants, a stream of younger results from
a high-priority port starves an older instruction's writeback —
interference through the common data bus.  Age-ordered arbitration (the
default, which is §5.4 rule 2 applied to the bus) eliminates it.
"""

import pytest

from repro.analysis.timeline import timeline_rows
from repro.isa import ProgramBuilder
from repro.memory.hierarchy import CacheHierarchy
from repro.pipeline import Core, CoreConfig
from repro.trace import Tracer, install_tracer

from tests.conftest import small_hierarchy_config


def cdb_victim():
    """An older op on port 5 contending with a younger result stream
    from port 0 (pipelined single-cycle ops saturating a width-1 CDB)."""
    b = ProgramBuilder()
    b.alu("z", [], lambda: 7, latency=10, port=1, name="z")
    b.alu("target", ["z"], lambda v: v + 1, latency=1, port=5, name="target op")
    # younger saturating stream: one completion per cycle on port 0
    for i in range(40):
        b.alu(f"n{i}", [], lambda i=i: i, latency=1, port=0, name="stream")
    b.halt()
    return b.build()


def run(arbitration):
    ports = CoreConfig().ports
    # make port 0 pipelined for this test so the stream saturates
    from repro.pipeline.config import PortConfig

    ports = (PortConfig("p0", pipelined=True),) + ports[1:]
    config = CoreConfig(cdb_width=1, cdb_arbitration=arbitration, ports=ports)
    program = cdb_victim()
    hierarchy = CacheHierarchy(1, small_hierarchy_config())
    for slot in range(len(program)):
        hierarchy.l1i[0].fill(program.address_of_slot(slot) & ~63)
    core = Core(0, program, hierarchy, config=config)
    tracer = install_tracer(Tracer(), core=core)
    core.run(max_cycles=100_000)
    rows = {row.name: row for row in timeline_rows(tracer, names=["z", "target op"])}
    # the f(z)->target path time: captures z's writeback starvation
    # rippling into the dependent op (the Fig. 1 interference shape)
    return rows["target op"].complete - rows["z"].issue


class TestCDBInterference:
    def test_port_priority_starves_older_op(self):
        delay_port = run("port")
        # z's broadcast is starved behind ~40 younger stream results
        assert delay_port > 30

    def test_age_arbitration_immune(self):
        delay_age = run("age")
        assert delay_age <= 16  # z latency 10 + bounded pipeline slack

    def test_policies_differ(self):
        assert run("port") > run("age") + 20

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            CoreConfig(cdb_arbitration="coinflip")
