"""A stepped cycle calls only the stages that can act, checked against
the step that called every stage.

``reference_step`` below is the body ``Core.step`` had before it
learned to skip stages: safety, retire, writeback, parked-load retry,
issue, dispatch and fetch, every stepped cycle.  Every trial runs twice,
once as shipped and once with ``Core.step`` patched to the reference,
and the two runs must agree on ``CoreStats``, the LSU, EU and CDB
counters, the visible log, the final registers, the whole event stream
and the number of stepped cycles.  The runs cover every registry victim
under every scheme with both secrets, and the Fig. 12 kernels under the
three Fig. 12 schemes.
"""

import pytest

from repro.core.harness import run_victim_trial
from repro.core.victims import VICTIM_FACTORIES, victim_by_name
from repro.pipeline.core import Core, DeadlockError
from repro.schemes.registry import SCHEME_FACTORIES
from repro.trace import Tracer, install_tracer
from repro.workloads.synthetic import synthetic_suite

from tests.conftest import kernel_machine
from tests.pipeline.test_safety_frontier import FIG12_SCHEMES


def reference_step(self: Core, cycle: int) -> None:
    """``Core.step`` as it was when every stage ran every stepped cycle."""
    if cycle <= self.cycle:
        raise ValueError("cycles must be monotonically increasing")
    self.cycle = cycle
    self.stats.cycles += 1
    tracer = self.tracer
    if tracer is not None:
        tracer.cycle = cycle
        tracer.core = self.core_id
    if self.fault_injector is not None:
        self.fault_injector.on_core_cycle(self)
    if self.halted:
        return
    self._update_safety()
    self._retire()
    self._writeback()
    self.lsu.retry_parked(self, cycle)
    self._issue()
    self._dispatch()
    self._fetch()
    self.safety_flags = self.rob.safety_flags()
    if (
        self.rob.empty
        and not self.fetch_queue
        and self._pending_redirect is None
        and self.fetch_pc >= len(self.program)
        and self.lsu.outstanding() == 0
    ):
        self.halted = True
        return
    if cycle - self._last_progress_cycle > self.deadlock_window:
        raise DeadlockError(
            f"core {self.core_id}: no retirement for "
            f"{self.deadlock_window} cycles (cycle {cycle}); "
            f"ROB head: {self.rob.head()!r}",
            cycle=cycle,
            context=self.trial_context,
        )


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
        [(eu.issues, eu.busy_cycles) for eu in core.eus],
        (core.cdb.broadcasts, core.cdb.stall_cycles),
        list(hierarchy.visible_log),
        dict(core.regfile),
        list(tracer.events),
    )


def _observe_run(run, step):
    """Run once with ``Core.step`` set to ``step``, counting stepped
    cycles: the fast-forward check must find the same idle windows."""
    steps = [0]

    def counted(core, cycle):
        steps[0] += 1
        step(core, cycle)

    tracer = Tracer()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Core, "step", counted)
        observed = _observe(*run(tracer), tracer)
    return observed + (steps[0],)


def _both_ways(run):
    """``run(tracer) -> (core, hierarchy)`` as shipped and with the
    every-stage reference step; returns the two observations."""
    return _observe_run(run, Core.step), _observe_run(run, reference_step)


def _trial(spec, scheme, secret):
    def run(tracer):
        result = run_victim_trial(spec, scheme, secret, tracer=tracer)
        return result.core, result.machine.hierarchy

    return run


def _kernel(workload, scheme):
    def run(tracer):
        machine, core = kernel_machine(workload, scheme)
        install_tracer(tracer, machine=machine)
        machine.run(until=lambda: core.halted, max_cycles=3_000_000, fast_forward=True)
        assert core.halted
        return core, machine.hierarchy

    return run


@pytest.mark.parametrize("scheme", sorted(SCHEME_FACTORIES))
def test_registry_victims_identical(scheme):
    for victim in sorted(VICTIM_FACTORIES):
        for secret in (0, 1):
            shipped, reference = _both_ways(_trial(victim_by_name(victim), scheme, secret))
            assert shipped == reference, (victim, secret)
            assert shipped[-1] > 0


@pytest.mark.parametrize("scheme", FIG12_SCHEMES)
def test_fig12_kernels_identical(scheme):
    for workload in synthetic_suite():
        shipped, reference = _both_ways(_kernel(workload, scheme))
        assert shipped == reference, workload.name


def test_skipped_stages_are_the_idle_ones():
    """The guards skip calls, not work: on a victim trial each guarded
    stage runs on fewer stepped cycles than there are, and the
    writeback and issue stages still run on every one."""
    calls = {}
    names = ("_update_safety", "_retire", "_writeback", "_issue", "_dispatch", "_fetch")
    with pytest.MonkeyPatch.context() as mp:
        for name in names + ("step",):
            real = getattr(Core, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _real(*args, **kwargs)

            mp.setattr(Core, name, counted)
        run_victim_trial(victim_by_name("gdnpeu"), "dom-nontso", 1)
    steps = calls["step"]
    assert calls["_writeback"] == calls["_issue"] == steps
    for name in ("_update_safety", "_retire", "_dispatch", "_fetch"):
        assert 0 < calls[name] < steps, (name, calls)
