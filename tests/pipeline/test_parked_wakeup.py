"""Event-driven parked loads and the issue gate, checked against the
polls they replaced.

Every trial runs twice.  The first run is the program as it is: parked
loads wake on events, and a fence scheme's issue gate stops the issue
stage.  The second patches every scheme class so that its
``parked_loads_wake_on_events`` is False and its ``issue_gate`` returns
``None``: the LSU re-evaluates every parked load every cycle, and the
issue stage asks ``may_issue`` for every ready entry.  The two runs
must agree on ``CoreStats``, the five LSU counters, the visible log,
the registers, the whole event stream and the number of stepped
cycles.  The runs cover the paper's
backward victims and random forward gadgets under every scheme, and
the Fig. 12 kernels under the three Fig. 12 schemes.
"""

import pytest

from repro.core.harness import run_victim_trial
from repro.core.victims import victim_by_name
from repro.isa import ProgramBuilder
from repro.pipeline.core import Core
from repro.pipeline.rob import EMPTY_FRONTIER
from repro.pipeline.scheme_api import SpeculationScheme
from repro.schemes import make_scheme
from repro.schemes.registry import SCHEME_FACTORIES
from repro.trace import Tracer, install_tracer
from repro.trace.events import EventKind
from repro.workloads import random_forward_gadget
from repro.workloads.synthetic import synthetic_suite

from tests.conftest import kernel_machine, run_on_scheme, small_hierarchy_config
from tests.pipeline.test_safety_frontier import BACKWARD_VICTIMS, FIG12_SCHEMES


def _scheme_classes():
    classes = [SpeculationScheme]
    for cls in classes:
        classes.extend(cls.__subclasses__())
    return dict.fromkeys(classes)


def _poll_everything(mp: pytest.MonkeyPatch) -> None:
    for cls in _scheme_classes():
        mp.setattr(cls, "parked_loads_wake_on_events", False)
        mp.setattr(cls, "issue_gate", lambda self, frontier: None)


def _observe(core, hierarchy, tracer):
    lsu = core.lsu
    return (
        core.stats,
        (
            lsu.stats_delayed,
            lsu.stats_mshr_blocked_cycles,
            lsu.stats_invisible,
            lsu.stats_forwards,
            lsu.stats_predicted,
        ),
        list(hierarchy.visible_log),
        dict(core.regfile),
        list(tracer.events),
    )


def _observe_run(run):
    """Run once, counting stepped (not fast-forwarded) core cycles: the
    fast-forward check must find the same idle windows either way."""
    steps = [0]
    real_step = Core.step

    def step(core, cycle):
        steps[0] += 1
        real_step(core, cycle)

    tracer = Tracer()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Core, "step", step)
        observed = _observe(*run(tracer), tracer)
    return observed + (steps[0],)


def _both_ways(run):
    """``run(tracer) -> (core, hierarchy)``, on the event path and then
    polling; returns the two observations."""
    fast = _observe_run(run)
    with pytest.MonkeyPatch.context() as mp:
        _poll_everything(mp)
        polled = _observe_run(run)
    return fast, polled


def _trial(spec, scheme, secret):
    def run(tracer):
        result = run_victim_trial(spec, scheme, secret, tracer=tracer)
        return result.core, result.machine.hierarchy

    return run


def _kernel(workload, scheme):
    def run(tracer):
        machine, core = kernel_machine(workload, scheme)
        install_tracer(tracer, machine=machine)
        machine.run(
            until=lambda: core.halted, max_cycles=3_000_000, fast_forward=True
        )
        assert core.halted
        return core, machine.hierarchy

    return run


def test_polling_patch_reaches_every_scheme():
    """Only the four schemes whose load_decision has side effects poll
    as shipped, and the patch turns both fast paths off everywhere."""
    polling = {
        name
        for name in SCHEME_FACTORIES
        if not make_scheme(name).parked_loads_wake_on_events
    }
    assert polling == {"cleanupspec", "muontrap", "safespec-wfb", "safespec-wfc"}
    assert make_scheme("fence-spectre").issue_gate(EMPTY_FRONTIER) is not None
    with pytest.MonkeyPatch.context() as mp:
        _poll_everything(mp)
        for name in SCHEME_FACTORIES:
            scheme = make_scheme(name)
            assert not scheme.parked_loads_wake_on_events, name
            assert scheme.issue_gate(EMPTY_FRONTIER) is None, name


@pytest.mark.parametrize("scheme", sorted(SCHEME_FACTORIES))
def test_backward_victims_identical(scheme):
    for victim in BACKWARD_VICTIMS:
        for secret in (0, 1):
            fast, polled = _both_ways(
                _trial(victim_by_name(victim), scheme, secret)
            )
            assert fast == polled, (victim, secret)


@pytest.mark.parametrize("scheme", sorted(SCHEME_FACTORIES))
def test_random_forward_gadgets_identical(scheme):
    for seed in range(40):
        spec = random_forward_gadget(seed)
        for secret in (0, 1):
            fast, polled = _both_ways(_trial(spec, scheme, secret))
            assert fast == polled, (seed, secret)


@pytest.mark.parametrize("scheme", FIG12_SCHEMES)
def test_fig12_kernels_identical(scheme):
    for workload in synthetic_suite():
        fast, polled = _both_ways(_kernel(workload, scheme))
        assert fast == polled, workload.name


def test_invisible_mshr_allocation_wakes_a_same_line_load():
    """Two speculative loads to one line wait on a full two-entry MSHR
    file.  When an entry frees, the older one takes it with an
    invisible access, which leaves no line in the hierarchy's wake set;
    only the LSU's own note of the allocation lets the younger one
    coalesce in the same pass, as the poll does."""
    a, b, x, line = 0x10_000, 0x20_000, 0x30_000, 0x40_000
    pb = ProgramBuilder()
    pb.load_addr("a", a, name="a")
    pb.load("c", ["a"], lambda v: b + v, name="c")
    pb.branch_if(["c"], lambda v: v > 10, "end", name="branch")
    pb.load_addr("x", x, name="x")
    pb.load_addr("y1", line, name="y1")
    pb.load_addr("y2", line + 8, name="y2")
    pb.label("end")
    pb.halt()
    program = pb.build()

    def run(tracer):
        machine, core = run_on_scheme(
            program,
            make_scheme("invisispec-spectre"),
            hierarchy=small_hierarchy_config(l1d_mshrs=2),
            tracer=tracer,
        )
        return core, machine.hierarchy

    fast, polled = _both_ways(run)
    assert fast == polled
    trace = fast[4]
    seqs = {e.instr: e.seq for e in trace if e.instr in ("y1", "y2")}
    allocs = {
        e.seq: (e.cycle, e.arg("coalesced"))
        for e in trace
        if e.kind is EventKind.MSHR_ALLOC
    }
    assert allocs[seqs["y2"]] == (allocs[seqs["y1"]][0], True)


def test_retiring_store_wakes_a_delayed_load_on_its_line():
    """Delay-on-Miss parks a speculative load that misses the L1-D.  An
    older store to the same line retires while the load is still
    speculative; its write-allocate puts the line in the L1-D, and the
    load must turn into an invisible hit at once, as the poll does, not
    when its branch resolves."""
    v, a, a2, line = 0x10_000, 0x20_000, 0x30_000, 0x40_000
    pb = ProgramBuilder()
    pb.load_addr("v", v, name="v")
    pb.store_addr(line, "v", name="store")
    pb.load_addr("a", a, name="a")
    pb.load("a2", ["a"], lambda x: a2 + x, name="a2")
    pb.branch_if(["a2"], lambda x: x > 10, "end", name="branch")
    pb.load_addr("y", line + 8, name="y")
    pb.label("end")
    pb.halt()
    program = pb.build()

    def run(tracer):
        machine, core = run_on_scheme(
            program, make_scheme("dom-nontso"), tracer=tracer
        )
        return core, machine.hierarchy

    fast, polled = _both_ways(run)
    assert fast == polled
    trace = fast[4]
    decisions = [
        (e.cycle, e.arg("decision"))
        for e in trace
        if e.kind is EventKind.SCHEME_DECISION and e.instr == "y"
    ]
    assert [d for _, d in decisions] == ["DELAY", "INVISIBLE"]
    commit = next(
        e.cycle for e in trace if e.kind is EventKind.COMMIT and e.instr == "store"
    )
    safe = next(
        e.cycle for e in trace if e.kind is EventKind.SCHEME_SAFE and e.instr == "y"
    )
    assert commit <= decisions[1][0] < safe
