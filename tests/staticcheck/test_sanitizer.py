"""Invariant sanitizer: clean runs stay silent, seeded breakage raises."""

import dataclasses
from types import SimpleNamespace

import pytest

from repro.core.harness import begin_victim_trial, run_victim_trial
from repro.core.victims import victim_by_name
from repro.isa.instructions import OpClass
from repro.pipeline.execution_unit import ExecutionUnit
from repro.pipeline.lsu import LoadStoreUnit
from repro.pipeline.scheme_api import LoadDecision
from repro.runner.runner import run_trial_spec
from repro.runner.spec import TrialSpec
from repro.schemes import scheme_names
from repro.schemes.fence import FenceDefense
from repro.staticcheck import (
    InvariantSanitizer,
    InvariantViolation,
    compose_hooks,
)
from repro.workloads.synthetic import synthetic_suite

from tests.conftest import kernel_machine

#: Every scheme but ``priority``, whose §5.4 preemption charges a held RS
#: slot twice (an open bug the sanitizer finds).
SCHEMES = [name for name in scheme_names() if name != "priority"]


class TestSanitizedRuns:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("victim", ["gdnpeu", "gdmshr", "girs"])
    def test_no_violations_across_schemes(self, victim, scheme):
        result = run_victim_trial(
            victim_by_name(victim), scheme, 1, sanitize=True, max_cycles=60_000
        )
        sanitizer = result.sanitizer
        assert sanitizer is not None
        assert sanitizer.cycles_checked > 0
        assert sanitizer.invariant_checks > 0

    def test_fig12_kernels_under_unsafe(self):
        """Long kernels reach what the short victims do not: execution
        units squashed with work in flight, and a stalled CDB queue that
        results join out of seq order."""
        for workload in synthetic_suite():
            machine, core = kernel_machine(workload, "unsafe")
            sanitizer = InvariantSanitizer().attach(core)
            machine.fault_injector = sanitizer
            machine.run(until=lambda: core.halted, max_cycles=3_000_000)
            assert core.halted and sanitizer.cycles_checked >= core.cycle

    def test_previews_are_exercised(self):
        result = run_victim_trial(
            victim_by_name("gdnpeu"), "dom-nontso", 1, sanitize=True
        )
        assert result.sanitizer.preview_checks > 0

    def test_unsanitized_run_has_no_sanitizer(self):
        result = run_victim_trial(victim_by_name("gdnpeu"), "unsafe", 1)
        assert result.sanitizer is None

    def test_trial_spec_sanitize_passes_through_runner(self):
        spec = TrialSpec(
            victim="gdnpeu", scheme="unsafe", secret=1, sanitize=True
        )
        summary = run_trial_spec(spec)
        assert summary.cycles > 0


class TestSeededViolations:
    def run_and_keep_handles(self):
        return run_victim_trial(
            victim_by_name("gdnpeu"), "unsafe", 1, sanitize=True
        )

    def test_lsu_slot_leak_raises(self):
        result = self.run_and_keep_handles()
        core = result.core
        core.lsu._occupancy += 1
        with pytest.raises(InvariantViolation, match="LSU slot accounting"):
            result.sanitizer.check_core(core)

    def test_rs_accounting_breakage_raises(self):
        result = self.run_and_keep_handles()
        core = result.core
        core.rs._occupied += 1
        with pytest.raises(InvariantViolation, match="RS slot accounting"):
            result.sanitizer.check_core(core)

    def test_stale_fence_raises(self):
        result = self.run_and_keep_handles()
        core = result.core
        core._fences.add(10_000)
        with pytest.raises(InvariantViolation, match="fence"):
            result.sanitizer.check_core(core)

    def test_stale_waiters_raise(self):
        result = self.run_and_keep_handles()
        core = result.core
        core._waiters[10_000] = []
        with pytest.raises(InvariantViolation, match="wakeup waiters"):
            result.sanitizer.check_core(core)

    def mid_run_core(self):
        """A core paused mid-trial, with loads in the ROB and several
        entries waiting in the RS."""
        setup = begin_victim_trial(victim_by_name("gdnpeu"), "unsafe", 1)
        machine, core = setup.machine, setup.core
        while machine.cycle < 40:
            machine.step()
        assert len(core.rob.loads) >= 2 and len(core.rs) >= 2
        return core

    def test_clean_mid_run_core_passes(self):
        InvariantSanitizer().check_core(self.mid_run_core())

    def test_rob_index_drift_raises(self):
        core = self.mid_run_core()
        core.rob.loads.pop()
        with pytest.raises(InvariantViolation, match="ROB load index drifted"):
            InvariantSanitizer().check_core(core)

    def test_became_safe_out_of_prefix_raises(self):
        """A younger load marked safe before an older one: ``Core.step``
        would then skip the safety stage with a transition still due."""
        core = self.mid_run_core()
        loads = core.rob.loads
        loads[0].became_safe = False
        loads[-1].became_safe = True
        with pytest.raises(InvariantViolation, match="not a prefix"):
            InvariantSanitizer().check_core(core)

    def test_load_decoded_as_other_kind_raises(self):
        """ROB.push files an entry by its decoded facts, while the
        reference filters by opclass: a load whose decoded ``is_load``
        is wrong is caught once it sits in the ROB."""
        spec = victim_by_name("gdnpeu")
        program = spec.program
        slot = next(
            i for i, inst in enumerate(program) if inst.opclass is OpClass.LOAD
        )
        misdecoded = dataclasses.replace(program.at(slot))
        object.__setattr__(misdecoded, "is_load", False)
        instructions = list(program.instructions)
        instructions[slot] = misdecoded
        spec = dataclasses.replace(
            spec, program=dataclasses.replace(program, instructions=instructions)
        )
        with pytest.raises(InvariantViolation, match="ROB load index drifted"):
            run_victim_trial(spec, "unsafe", 1, sanitize=True)

    def test_rs_out_of_order_raises(self):
        core = self.mid_run_core()
        core.rs._entries.reverse()
        with pytest.raises(InvariantViolation, match="RS age order broken"):
            InvariantSanitizer().check_core(core)

    def test_rs_ready_list_drop_raises(self):
        core = self.mid_run_core()
        ready = core.rs.ready
        issuable = [e for e in ready if e.ready_cycle <= core.cycle]
        assert issuable
        ready.remove(issuable[0])
        with pytest.raises(InvariantViolation, match="RS ready list"):
            InvariantSanitizer().check_core(core)

    def test_parked_load_missing_wake_line_raises(self, monkeypatch):
        """Drop each line an MSHR allocation adds to the wake set: a
        younger load parked on that line then sleeps through the
        visible fill that would have woken it, and the poll disagrees."""
        real = LoadStoreUnit._evaluate

        def evaluate_and_forget(self, core, load, cycle, prev=None):
            real(self, core, load, cycle, prev)
            for flight in self._inflight:
                if flight.instr is load and flight.mshr_line is not None:
                    self._wake_lines.discard(flight.mshr_line)

        monkeypatch.setattr(LoadStoreUnit, "_evaluate", evaluate_and_forget)
        with pytest.raises(InvariantViolation, match="sleeps with no wake event"):
            run_victim_trial(
                victim_by_name("gdmshr"), "dom-nontso", 1, sanitize=True
            )

    def test_fence_gate_one_seq_too_far_raises(self, monkeypatch):
        real = FenceDefense.issue_gate
        monkeypatch.setattr(
            FenceDefense, "issue_gate", lambda self, frontier: real(self, frontier) + 1
        )
        with pytest.raises(InvariantViolation, match="issue gate .* admits"):
            run_victim_trial(
                victim_by_name("gdnpeu"), "fence-spectre", 1, sanitize=True
            )

    def test_stale_frontier_raises(self):
        """The frontier of the empty ROB the core was built with, carried
        into a cycle whose ROB holds entries."""
        setup = begin_victim_trial(victim_by_name("gdnpeu"), "unsafe", 1)
        machine, core = setup.machine, setup.core
        stale = core.safety_flags
        while machine.cycle < 40:
            machine.step()
        assert stale != core.safety_flags
        InvariantSanitizer().check_core(core)
        core.safety_flags = stale
        with pytest.raises(InvariantViolation, match="carried safety frontier"):
            InvariantSanitizer().check_core(core)

    def test_next_finish_one_cycle_late_raises(self, monkeypatch):
        real = ExecutionUnit.issue

        def issue_late(self, instr, cycle, latency):
            finish = real(self, instr, cycle, latency)
            self.next_finish += 1
            return finish

        monkeypatch.setattr(ExecutionUnit, "issue", issue_late)
        with pytest.raises(InvariantViolation, match="next_finish"):
            run_victim_trial(
                victim_by_name("gdnpeu"), "unsafe", 1, sanitize=True
            )

    def test_lsu_next_finish_one_cycle_late_raises(self):
        core = self.mid_run_core()
        assert core.lsu.next_finish is not None
        core.lsu.next_finish += 1
        with pytest.raises(InvariantViolation, match="LSU next_finish"):
            InvariantSanitizer().check_core(core)

    def test_out_of_order_cdb_insert_raises(self):
        core = self.mid_run_core()
        older, younger = list(core.rob)[:2]
        core.cdb._queue.extend([younger, older])
        with pytest.raises(InvariantViolation, match="CDB queue out of seq order"):
            InvariantSanitizer().check_core(core)

    def test_violation_carries_cycle_and_context(self):
        result = self.run_and_keep_handles()
        core = result.core
        core.lsu._occupancy += 1
        with pytest.raises(InvariantViolation) as exc:
            result.sanitizer.check_core(core)
        assert exc.value.cycle == core.cycle
        assert "victim=gdnpeu" in str(exc.value)


class _FakeScheme:
    """Minimal scheme double for the peek-agreement wrapper."""

    name = "fake"

    def __init__(self):
        self.peek_load = LoadDecision.VISIBLE
        self.real_load = LoadDecision.VISIBLE
        self.peek_issue = True
        self.real_issue = True

    def load_decision(self, core, load, safe):
        return self.real_load

    def peek_load_decision(self, core, load, safe):
        return self.peek_load

    def may_issue(self, core, instr, flags):
        return self.real_issue

    def peek_may_issue(self, core, instr, flags):
        return self.peek_issue


def _stub_core():
    return SimpleNamespace(cycle=7, trial_context="test")


def _stub_instr():
    return SimpleNamespace(seq=42)


class TestPreviewAgreement:
    def wrapped(self):
        scheme = _FakeScheme()
        sanitizer = InvariantSanitizer()
        sanitizer._wrap_scheme(scheme)
        return scheme, sanitizer

    def test_agreeing_preview_passes(self):
        scheme, sanitizer = self.wrapped()
        decision = scheme.load_decision(_stub_core(), _stub_instr(), False)
        assert decision is LoadDecision.VISIBLE
        assert sanitizer.preview_checks == 1

    def test_disagreeing_load_preview_raises(self):
        scheme, _ = self.wrapped()
        scheme.peek_load = LoadDecision.DELAY
        with pytest.raises(InvariantViolation, match="peek_load_decision"):
            scheme.load_decision(_stub_core(), _stub_instr(), False)

    def test_disagreeing_issue_preview_raises(self):
        scheme, _ = self.wrapped()
        scheme.peek_issue = False
        with pytest.raises(InvariantViolation, match="peek_may_issue"):
            scheme.may_issue(_stub_core(), _stub_instr(), None)

    def test_abstaining_preview_is_not_checked(self):
        scheme, sanitizer = self.wrapped()
        scheme.peek_load = None
        scheme.real_load = LoadDecision.DELAY
        decision = scheme.load_decision(_stub_core(), _stub_instr(), False)
        assert decision is LoadDecision.DELAY
        assert sanitizer.preview_checks == 0

    def test_detach_restores_scheme(self):
        scheme, sanitizer = self.wrapped()
        sanitizer.detach()
        scheme.peek_load = LoadDecision.DELAY
        # Wrapper gone: the disagreement goes unnoticed.
        assert (
            scheme.load_decision(_stub_core(), _stub_instr(), False)
            is LoadDecision.VISIBLE
        )


class TestComposeHooks:
    def test_empty_is_none(self):
        assert compose_hooks() is None
        assert compose_hooks(None, None) is None

    def test_single_hook_unwrapped(self):
        sanitizer = InvariantSanitizer()
        assert compose_hooks(None, sanitizer) is sanitizer

    def test_fan_out(self):
        calls = []
        a = SimpleNamespace(on_cycle=lambda m: calls.append("a"))
        b = SimpleNamespace(on_cycle=lambda m: calls.append("b"))
        composite = compose_hooks(a, b)
        composite.on_cycle(None)
        assert calls == ["a", "b"]
        # Hooks without on_core_cycle are skipped, not crashed on.
        composite.on_core_cycle(None)
