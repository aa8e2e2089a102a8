"""Idle-cycle fast-forward must be cycle-exact.

Every counter in CoreStats (and the architectural state) must be
identical with fast-forwarding on and off: the fast path is a pure
performance optimisation, and figures 3-5 timelines depend on exact
per-cycle accounting.
"""

import pytest

from repro.core.harness import prepare_machine
from repro.core.victims import gdnpeu_victim, victim_by_name
from repro.memory.hierarchy import CacheHierarchy
from repro.pipeline import Core
from repro.schemes import scheme_names
from repro.system.machine import Machine
from repro.workloads.synthetic import synthetic_suite, workload_by_name

from tests.conftest import kernel_machine


def _run_workload_core(name: str, fast_forward: bool) -> Core:
    workload = workload_by_name(name)
    hierarchy = CacheHierarchy(1)
    for addr, value in workload.memory_image.items():
        hierarchy.memory.write(addr, value)
    core = Core(0, workload.program, hierarchy)
    core.run(max_cycles=500_000, fast_forward=fast_forward)
    return core


@pytest.mark.parametrize("name", ["pointer_chase", "mixed"])
def test_fast_forward_core_stats_identical(name):
    slow = _run_workload_core(name, fast_forward=False)
    fast = _run_workload_core(name, fast_forward=True)
    assert fast.halted and slow.halted
    assert fast.stats == slow.stats  # every CoreStats counter, cycle-exact
    assert fast.regfile == slow.regfile
    assert [eu.busy_cycles for eu in fast.eus] == [
        eu.busy_cycles for eu in slow.eus
    ]


@pytest.mark.parametrize(
    "scheme",
    ["unsafe", "dom-nontso", "invisispec-spectre", "muontrap", "fence-futuristic"],
)
def test_fast_forward_machine_trial_identical(scheme):
    """Whole-machine victim trials: same stats and same visible-LLC log
    (the attack's observable) with and without fast-forwarding."""
    results = {}
    for ff in (False, True):
        spec = gdnpeu_victim()
        machine, core, _ = prepare_machine(spec, scheme, 1)
        machine.run(until=lambda: core.halted, max_cycles=20_000, fast_forward=ff)
        results[ff] = (
            core.stats,
            machine.cycle,
            [(e.line, e.cycle) for e in machine.hierarchy.visible_log],
        )
    assert results[True] == results[False]


@pytest.mark.parametrize("secret", (0, 1))
@pytest.mark.parametrize("victim", ["gdmshr", "gdnpeu", "girs"])
@pytest.mark.parametrize("scheme", scheme_names())
def test_fast_forward_mshr_victim_identical(scheme, victim, secret):
    """The LSU counters fast-forward applies in closed form (a parked
    load's ``stats_delayed`` and ``stats_mshr_blocked_cycles`` per
    skipped cycle) equal stepping every cycle, under every scheme."""
    spec = victim_by_name(victim)
    results = {}
    for ff in (False, True):
        machine, core, _ = prepare_machine(spec, scheme, secret)
        machine.run(until=lambda: core.halted, max_cycles=20_000, fast_forward=ff)
        lsu = core.lsu
        results[ff] = (
            core.stats,
            machine.cycle,
            (
                lsu.stats_delayed,
                lsu.stats_mshr_blocked_cycles,
                lsu.stats_invisible,
                lsu.stats_forwards,
                lsu.stats_predicted,
            ),
            [(e.cycle, e.line, e.kind, e.core, e.hit) for e in machine.hierarchy.visible_log],
        )
    assert results[True] == results[False]


@pytest.mark.parametrize("fast_forward", (False, True))
def test_mshr_blocked_cycles_count_each_load_once_per_cycle(fast_forward):
    """``stats_mshr_blocked_cycles`` adds one per load per cycle in
    which the load ends the retry pass MSHR-parked, with fast-forward
    on or off.  The ten Fig. 12 kernels under ``unsafe`` read 132,048;
    counting each such load in ``_evaluate`` and again in the retry
    pass read 264,254."""
    total = 0
    for workload in synthetic_suite():
        machine, core = kernel_machine(workload, "unsafe")
        machine.run(
            until=lambda: core.halted,
            max_cycles=3_000_000,
            fast_forward=fast_forward,
        )
        total += core.lsu.stats_mshr_blocked_cycles
    assert total == 132_048


def test_machine_auto_gating():
    """fast_forward=None means: on for plain runs, off when an `until`
    predicate could observe intermediate cycles."""
    workload = workload_by_name("ilp")
    cycles = {}
    for ff in (None, False):
        machine = Machine(num_cores=1)
        for addr, value in workload.memory_image.items():
            machine.hierarchy.memory.write(addr, value)
        machine.warm_icache(0, workload.program)
        core = machine.attach(0, workload.program)
        machine.run(max_cycles=500_000, fast_forward=ff)
        cycles[ff] = core.stats.cycles
    assert cycles[None] == cycles[False]
