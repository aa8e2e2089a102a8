"""Memory-disambiguation behaviour around stores."""

from repro.analysis.timeline import timeline_rows
from repro.isa import ProgramBuilder
from repro.memory.hierarchy import CacheHierarchy
from repro.pipeline import Core
from repro.trace import EventKind, Tracer, install_tracer

from tests.conftest import small_hierarchy_config


def run(program):
    hierarchy = CacheHierarchy(1, small_hierarchy_config())
    for slot in range(len(program)):
        hierarchy.l1i[0].fill(program.address_of_slot(slot) & ~63)
    core = Core(0, program, hierarchy)
    install_tracer(Tracer(), core=core)
    core.run(max_cycles=100_000)
    return core


class TestStoreAddressResolution:
    def test_register_free_store_address_resolved_at_dispatch(self):
        """A constant-address store must not block younger independent
        loads on disambiguation, even while its data is still brewing."""
        b = ProgramBuilder()
        b.alu("v", [], lambda: 9, latency=40, port=5, name="slow data")
        b.store((), lambda: 0x2000, "v", name="const-addr store")
        b.load_addr("x", 0x3000, name="independent load")
        core = run(b.build())
        rows = {row.name: row for row in timeline_rows(core.tracer)}
        load = rows["independent load"]
        (alloc,) = core.tracer.filtered(kinds=[EventKind.MSHR_ALLOC], seq=load.seq)
        # the load's memory access started long before the store's data
        assert alloc.cycle < rows["const-addr store"].complete
        assert core.hierarchy.memory.peek(0x2000) == 9
        assert core.regfile["x"] == 0

    def test_register_dependent_store_still_blocks(self):
        """An unresolved (register-based) store address conservatively
        stalls younger loads — the correctness guarantee."""
        b = ProgramBuilder()
        b.alu("a", [], lambda: 0x3000, latency=40, port=5, name="slow addr")
        b.imm("v", 7)
        b.store(["a"], lambda addr: addr, "v", name="reg-addr store")
        b.load_addr("x", 0x3000, name="aliasing load")
        core = run(b.build())
        assert core.regfile["x"] == 7  # forwarded, not stale memory

    def test_forwarding_from_const_addr_store(self):
        b = ProgramBuilder()
        b.alu("v", [], lambda: 5, latency=20, port=5, name="data")
        b.store((), lambda: 0x2000, "v", name="store")
        b.load_addr("x", 0x2000, name="match load")
        core = run(b.build())
        assert core.regfile["x"] == 5
        assert core.lsu.stats_forwards >= 1
