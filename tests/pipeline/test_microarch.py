"""Micro-architectural behaviour tests: the properties the paper's
interference gadgets exploit must hold in our pipeline.

These are the unit-level versions of §3.2.2: non-pipelined EU occupancy
delaying older instructions, MSHR exhaustion delaying an unrelated load,
and RS back-pressure throttling the frontend.
"""

from repro.analysis.timeline import timeline_rows
from repro.isa import ProgramBuilder
from repro.memory.hierarchy import CacheHierarchy
from repro.pipeline import Core, CoreConfig
from repro.trace import EventKind, Tracer, install_tracer

from tests.conftest import small_hierarchy_config


def build_core(program, *, config=None, registers=None, mshrs=4, warm_icache=False):
    """A traced core: read its stage cycles with :func:`retired`."""
    hierarchy = CacheHierarchy(1, small_hierarchy_config(l1d_mshrs=mshrs))
    if warm_icache:
        for slot in range(len(program)):
            addr = program.address_of_slot(slot)
            hierarchy.l1i[0].fill(addr & ~63)
    core = Core(
        0,
        program,
        hierarchy,
        config=config or CoreConfig(),
        registers=registers,
    )
    install_tracer(Tracer(), core=core)
    return core


def retired(core, name):
    """Timeline rows of the retired instructions named ``name``."""
    return [
        row
        for row in timeline_rows(core.tracer)
        if row.retire is not None and row.name == name
    ]


class TestNonPipelinedUnit:
    def test_two_sqrts_serialize(self):
        b = ProgramBuilder()
        b.imm("a", 100)
        b.imm("b", 200)
        b.alu("x", ["a"], lambda v: v + 1, latency=15, port=0, name="sqrt1")
        b.alu("y", ["b"], lambda v: v + 1, latency=15, port=0, name="sqrt2")
        core = build_core(b.build())
        core.run()
        s1 = retired(core, "sqrt1")[0]
        s2 = retired(core, "sqrt2")[0]
        assert s2.issue >= s1.issue + 15

    def test_pipelined_port_overlaps(self):
        b = ProgramBuilder()
        b.imm("a", 100)
        b.imm("b", 200)
        b.alu("x", ["a"], lambda v: v + 1, latency=15, port=1, name="op1")
        b.alu("y", ["b"], lambda v: v + 1, latency=15, port=1, name="op2")
        core = build_core(b.build())
        core.run()
        o1 = retired(core, "op1")[0]
        o2 = retired(core, "op2")[0]
        assert o2.issue == o1.issue + 1

    def test_age_ordered_selection(self):
        """When two ops are ready for one port, the older issues first."""
        b = ProgramBuilder()
        b.imm("a", 1)
        b.alu("x", ["a"], lambda v: v, latency=5, port=0, name="older")
        b.alu("y", ["a"], lambda v: v, latency=5, port=0, name="younger")
        core = build_core(b.build())
        core.run()
        assert retired(core, "older")[0].issue < retired(core, "younger")[0].issue

    def test_ready_younger_blocks_waking_older(self):
        """The GDNPEU primitive (Fig. 3): a ready younger op grabs the
        non-pipelined unit while the older dependent op wakes up,
        delaying it by a full occupancy."""
        b = ProgramBuilder()
        # Older chain: z (slow producer) -> f1 -> f2 on port 0.
        b.alu("z", [], lambda: 7, latency=20, port=1, name="z")
        b.alu("f1", ["z"], lambda v: v + 1, latency=15, port=0, name="f1")
        b.alu("f2", ["f1"], lambda v: v + 1, latency=15, port=0, name="f2")
        # Younger, immediately-ready contenders for port 0.
        b.alu("g1", [], lambda: 1, latency=15, port=0, name="g1")
        b.alu("g2", [], lambda: 2, latency=15, port=0, name="g2")
        b.alu("g3", [], lambda: 3, latency=15, port=0, name="g3")
        core = build_core(b.build())
        core.run()
        f1 = retired(core, "f1")[0]
        f2 = retired(core, "f2")[0]
        # Baseline without interference: f2 issues ~16-17 cycles after f1.
        # With g-ops stealing the unit during f1->f2 wakeup, the gap
        # includes a full extra occupancy (15 cycles).
        gap = f2.issue - f1.issue
        assert gap >= 15 + 15, f"no interference cascade, gap={gap}"

    def test_no_interference_without_contenders(self):
        b = ProgramBuilder()
        b.alu("z", [], lambda: 7, latency=20, port=1, name="z")
        b.alu("f1", ["z"], lambda v: v + 1, latency=15, port=0, name="f1")
        b.alu("f2", ["f1"], lambda v: v + 1, latency=15, port=0, name="f2")
        core = build_core(b.build())
        core.run()
        f1 = retired(core, "f1")[0]
        f2 = retired(core, "f2")[0]
        gap = f2.issue - f1.issue
        assert gap <= 18, f"unexpected delay without gadget, gap={gap}"


class TestWakeupDelay:
    def test_dependent_issue_after_broadcast(self):
        b = ProgramBuilder()
        b.imm("a", 1, name="producer")
        b.addi("b", "a", 1, name="consumer")
        core = build_core(b.build())
        core.run()
        producer = retired(core, "producer")[0]
        consumer = retired(core, "consumer")[0]
        assert consumer.issue > producer.complete


class TestCDBContention:
    def test_width_one_serializes_broadcasts(self):
        config = CoreConfig(cdb_width=1)
        b = ProgramBuilder()
        for i in range(6):
            b.imm(f"r{i}", i, name=f"op{i}")
        core = build_core(b.build(), config=config)
        core.run()
        completes = sorted(
            row.complete
            for row in timeline_rows(core.tracer, names=["op"])
            if row.retire is not None
        )
        assert len(set(completes)) == len(completes)  # one per cycle

    def test_wider_cdb_allows_pairs(self):
        config = CoreConfig(cdb_width=2)
        b = ProgramBuilder()
        for i in range(6):
            # alternate ports so pairs finish in the same cycle
            b.alu(f"r{i}", [], lambda i=i: i, port=1 if i % 2 else 5, name=f"op{i}")
        core = build_core(b.build(), config=config)
        core.run()
        completes = [
            row.complete
            for row in timeline_rows(core.tracer, names=["op"])
            if row.retire is not None
        ]
        assert len(completes) - len(set(completes)) >= 1


class TestMSHRPressure:
    def test_mshr_exhaustion_delays_independent_load(self):
        """The GDMSHR primitive (Fig. 4): distinct-line misses exhaust
        MSHRs, delaying a later load; same-line misses coalesce and do
        not."""

        def run(distinct):
            b = ProgramBuilder()
            base = 0x50_000
            for i in range(4):  # == l1d_mshrs
                off = i * 64 if distinct else 0
                b.load_addr(f"g{i}", base + off, name="gadget ld")
            b.load_addr("victim", 0x90_000, name="victim ld")
            core = build_core(b.build(), mshrs=4)
            core.run()
            # The cycle the victim load reached the D-cache: its MSHR
            # allocation (the event's seq is the load's).
            (load,) = retired(core, "victim ld")
            return next(
                e.cycle
                for e in core.tracer.filtered(
                    kinds=[EventKind.MSHR_ALLOC], seq=load.seq
                )
            )

        distinct_start = run(distinct=True)
        coalesced_start = run(distinct=False)
        assert distinct_start > coalesced_start + 100

    def test_mshr_released_on_completion(self):
        b = ProgramBuilder()
        for i in range(8):
            b.load_addr(f"r{i}", 0x60_000 + i * 64, name="ld")
        core = build_core(b.build(), mshrs=2)
        core.run()
        assert len(core.hierarchy.l1d_mshrs[0]) == 0
        assert core.hierarchy.l1d_mshrs[0].peak_occupancy == 2


class TestFrontendBackpressure:
    def test_rs_full_throttles_fetch(self):
        """The GIRS primitive (Fig. 5): a miss-dependent chain fills the
        RS, dispatch stalls, the fetch queue fills, and fetch stops."""
        config = CoreConfig(rs_size=8, fetch_queue_size=4)
        b = ProgramBuilder()
        b.load_addr("x", 0x70_000, name="miss ld")  # DRAM miss
        for i in range(30):
            b.add("x", "x", "x", name="dep add")
        b.imm("marker", 1, name="marker")
        core = build_core(b.build(), config=config, warm_icache=True)
        core.run()
        assert core.stats.rs_full_stalls > 0
        marker = retired(core, "marker")[0]
        miss = retired(core, "miss ld")[0]
        # marker could not even be fetched until the miss returned
        assert marker.fetch >= miss.complete - 5

    def test_no_throttle_when_chain_independent(self):
        config = CoreConfig(rs_size=8, fetch_queue_size=4)
        b = ProgramBuilder()
        b.load_addr("x", 0x70_000, name="miss ld")
        for i in range(30):
            b.imm(f"y{i}", i, name="indep imm")
        b.imm("marker", 1, name="marker")
        core = build_core(b.build(), config=config, warm_icache=True)
        core.run()
        marker = retired(core, "marker")[0]
        miss = retired(core, "miss ld")[0]
        assert marker.fetch < miss.complete


class TestICacheCoupling:
    def test_cold_fetch_stalls(self):
        b = ProgramBuilder()
        b.imm("r1", 1)
        core = build_core(b.build())
        core.run()
        assert core.stats.icache_miss_stalls >= 1

    def test_warm_fetch_does_not_stall(self):
        b = ProgramBuilder()
        b.imm("r1", 1)
        prog = b.build()
        hierarchy = CacheHierarchy(1, small_hierarchy_config())
        # warm all program lines
        line_size = 64
        for slot in range(len(prog)):
            addr = prog.address_of_slot(slot)
            hierarchy.l1i[0].fill(addr & ~(line_size - 1))
        core = Core(0, prog, hierarchy)
        core.run()
        assert core.stats.icache_miss_stalls == 0
