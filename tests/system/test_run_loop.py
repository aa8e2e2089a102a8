"""``Machine.run`` is one loop with the fast-forward target inline,
checked against the loop it replaced.

``reference_run`` below is ``Machine.run`` as it was, with its helper
``_fast_forward_target``.  Each case runs a prepared machine once with
the shipped loop and once with the reference patched in, and the two
must agree on the final cycle (or the cycle a ``CycleBudgetError`` names),
every core's counters, registers and ``Core.step`` and
``next_event_cycle`` calls, the ``Machine.step`` calls, the visible log
and the event stream.
"""

from typing import Optional

import pytest

from repro.core.harness import prepare_machine
from repro.core.victims import victim_by_name
from repro.pipeline.core import Core, CycleBudgetError
from repro.staticcheck.sanitizer import InvariantSanitizer
from repro.system.machine import Machine
from repro.system.noise import NoiseInjector
from repro.trace import Tracer


def reference_run(self, *, max_cycles=1_000_000, until=None, fast_forward=None):
    """``Machine.run`` before the fast-forward target was inlined."""
    if fast_forward is None:
        fast_forward = until is None
    start = self.cycle
    while True:
        if until is not None and until():
            return self.cycle
        if until is None and self.cores and all(c.halted for c in self.cores.values()):
            return self.cycle
        if self.cycle - start >= max_cycles:
            raise CycleBudgetError(
                f"machine exceeded {max_cycles} cycles without finishing",
                cycle=self.cycle,
                context=self.trial_context,
            )
        if fast_forward:
            target = _reference_target(self, start, max_cycles)
            if target is not None:
                for core in self.cores.values():
                    if not core.halted:
                        core.fast_forward(target)
                self.cycle = target
                continue
        self.step()


def _reference_target(self, start: int, max_cycles: int) -> Optional[int]:
    if self._cycle_hooks or self.fault_injector is not None or not self.cores:
        return None
    wake: Optional[int] = None
    for core in self.cores.values():
        if core.halted:
            continue
        core_wake = core.next_event_cycle()
        if core_wake is None:
            return None
        wake = core_wake if wake is None else min(wake, core_wake)
    if wake is None:
        return None
    if self._scheduled:
        at_cycle = self._scheduled[0][0]
        if at_cycle <= self.cycle + 1:
            return None
        wake = min(wake, at_cycle)
    wake = min(wake, start + max_cycles + 1)
    target = wake - 1
    if target <= self.cycle:
        return None
    return target


def _observe(machine, tracer):
    cores = []
    for core_id, core in sorted(machine.cores.items()):
        lsu = core.lsu
        cores.append(
            (
                core_id,
                core.cycle,
                core.halted,
                core.stats,
                (lsu.stats_delayed, lsu.stats_mshr_blocked_cycles, lsu.stats_invisible),
                [(eu.issues, eu.busy_cycles) for eu in core.eus],
                (core.cdb.broadcasts, core.cdb.stall_cycles),
                dict(core.regfile),
            )
        )
    return (
        machine.cycle,
        cores,
        list(machine.hierarchy.visible_log),
        list(tracer.events),
    )


def _observe_run(setup, run_kwargs, run_impl):
    """Prepare with ``setup(tracer) -> machine``, run it through
    ``run_impl``, and observe.  A ``CycleBudgetError`` is part of the
    observation, with the cycle it names."""
    calls = {"machine.step": 0, "core.step": 0, "next_event": 0}
    real_machine_step, real_core_step = Machine.step, Core.step
    real_next_event = Core.next_event_cycle

    def machine_step(machine):
        calls["machine.step"] += 1
        real_machine_step(machine)

    def core_step(core, cycle):
        calls["core.step"] += 1
        real_core_step(core, cycle)

    def next_event(core):
        calls["next_event"] += 1
        return real_next_event(core)

    tracer = Tracer()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Machine, "run", run_impl)
        mp.setattr(Machine, "step", machine_step)
        mp.setattr(Core, "step", core_step)
        mp.setattr(Core, "next_event_cycle", next_event)
        machine = setup(tracer)
        budget = None
        try:
            machine.run(**run_kwargs(machine))
        except CycleBudgetError as exc:
            budget = exc.cycle
    return _observe(machine, tracer), budget, calls


def _both_ways(setup, run_kwargs=lambda machine: {}):
    shipped = _observe_run(setup, run_kwargs, Machine.run)
    reference = _observe_run(setup, run_kwargs, reference_run)
    return shipped, reference


def _victim(name="gdmshr", scheme="dom-nontso", secret=1, *, tracer_on=True):
    def setup(tracer):
        machine, _, _ = prepare_machine(
            victim_by_name(name), scheme, secret, tracer=tracer if tracer_on else None
        )
        return machine

    return setup


def _assert_same(shipped, reference):
    assert shipped == reference
    calls = shipped[2]
    assert calls["machine.step"] > 0
    assert calls["core.step"] >= calls["machine.step"]


@pytest.mark.parametrize("name", ["gdnpeu", "gdmshr", "girs", "fwd-eu"])
@pytest.mark.parametrize("scheme", ["unsafe", "dom-nontso", "fence-spectre"])
def test_plain_and_traced_runs_identical(name, scheme):
    for tracer_on in (False, True):
        shipped, reference = _both_ways(_victim(name, scheme, tracer_on=tracer_on))
        _assert_same(shipped, reference)
        assert shipped[2]["next_event"] > 0  # the loop fast-forwarded


def test_cycle_hook_identical():
    """A cycle hook (the noise injector) turns fast-forward off."""

    def setup(tracer):
        machine = _victim()(tracer)
        NoiseInjector(machine, 2, [0x80_0000 + 64 * i for i in range(8)], rate=0.2).attach()
        return machine

    shipped, reference = _both_ways(setup)
    _assert_same(shipped, reference)
    assert shipped[2]["next_event"] == 0


def test_fault_injector_identical():
    """An installed fault injector (the sanitizer) turns fast-forward off."""

    def setup(tracer):
        machine = _victim()(tracer)
        sanitizer = InvariantSanitizer()
        for core in machine.cores.values():
            sanitizer.attach(core)
        machine.fault_injector = sanitizer
        return machine

    shipped, reference = _both_ways(setup)
    _assert_same(shipped, reference)
    assert shipped[2]["next_event"] == 0


def test_two_attached_cores_identical():
    def setup(tracer):
        machine = _victim("gdnpeu", "unsafe")(tracer)
        other = victim_by_name("gdmshr")
        machine.attach(1, other.program, registers=dict(other.registers))
        return machine

    shipped, reference = _both_ways(setup)
    _assert_same(shipped, reference)
    assert all(core[2] for core in shipped[0][1])  # both halted


@pytest.mark.parametrize("fast_forward", [None, True])
def test_until_predicate_identical(fast_forward):
    def run_kwargs(machine):
        core = machine.cores[0]
        return {"until": lambda: core.halted, "fast_forward": fast_forward}

    shipped, reference = _both_ways(_victim(), run_kwargs)
    _assert_same(shipped, reference)
    assert shipped[0][1][0][2]  # the core halted


def test_until_on_the_cycle_counter_identical():
    def run_kwargs(machine):
        return {"until": lambda: machine.cycle >= 37}

    shipped, reference = _both_ways(_victim(), run_kwargs)
    _assert_same(shipped, reference)
    assert shipped[0][0] == 37


def test_scheduled_action_identical():
    """A scheduled action bounds the jump: it fires at its own cycle."""
    fired = []

    def setup(tracer):
        machine = _victim()(tracer)
        hierarchy = machine.hierarchy

        def probe():
            fired.append(machine.cycle)
            hierarchy.access(2, 0x80_0000, cycle=machine.cycle)

        machine.schedule(150, probe)
        machine.schedule(40, probe)
        return machine

    shipped, reference = _both_ways(setup)
    _assert_same(shipped, reference)
    assert fired == [40, 150, 40, 150]


@pytest.mark.parametrize("max_cycles", [1, 25, 120, 400])
def test_cycle_budget_raised_at_the_same_cycle(max_cycles):
    def run_kwargs(machine):
        return {"max_cycles": max_cycles}

    shipped, reference = _both_ways(_victim("gdnpeu", "unsafe"), run_kwargs)
    assert shipped == reference
    assert shipped[1] == max_cycles


def test_budget_with_no_cores_attached():
    """No core to wait for: the loop steps until the budget runs out."""

    def setup(tracer):
        return Machine(1)

    shipped, reference = _both_ways(setup, lambda machine: {"max_cycles": 30})
    assert shipped == reference
    assert shipped[1] == 30
    assert shipped[2]["machine.step"] == 30
