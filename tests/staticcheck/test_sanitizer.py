"""Invariant sanitizer: clean runs stay silent, seeded breakage raises."""

from types import SimpleNamespace

import pytest

from repro.core.harness import begin_victim_trial, run_victim_trial
from repro.core.victims import victim_by_name
from repro.pipeline.scheme_api import LoadDecision
from repro.runner.runner import run_trial_spec
from repro.runner.spec import TrialSpec
from repro.staticcheck import (
    InvariantSanitizer,
    InvariantViolation,
    compose_hooks,
)

SCHEMES = ["unsafe", "dom-nontso", "dom-tso", "invisispec-spectre"]


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

    def test_rs_out_of_order_raises(self):
        core = self.mid_run_core()
        core.rs._entries.reverse()
        with pytest.raises(InvariantViolation, match="RS age order broken"):
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
