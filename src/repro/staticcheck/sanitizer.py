"""Cycle-level invariant sanitizer for the pipeline and schemes.

The static analyzer reasons about programs; this module polices the
*simulator itself*.  An :class:`InvariantSanitizer` is an opt-in
per-cycle hook implementing the :class:`~repro.runner.faults.FaultInjector`
protocol (``on_cycle`` / ``on_core_cycle``), so installing it reuses the
existing Machine/Core hook points — and, like a fault injector, disables
idle fast-forwarding, which is exactly what a cycle-exact checker wants.

Checked once per cycle, per attached core (state is only inspected at
cycle boundaries, where every stage has finished its bookkeeping):

* **ROB age ordering** — entry sequence numbers strictly increase from
  head to tail, and no retired entry lingers in the window.
* **ROB indices** — the in-order load, store and conditional-branch
  indices behind the safety frontier equal the filtered entries.
* **RS age ordering** — the waiting list the issue stage scans
  oldest-first is strictly seq-ascending.
* **RS slot accounting** — occupied micro-ops equal the sum over waiting
  entries plus held (issued-but-speculative) weights, within capacity.
* **No MSHR leaks across squash** — every MSHR consumer is a live
  in-flight LSU load, and the file never exceeds capacity.
* **LSU slot accounting** — LSU occupancy equals the loads in the ROB.
* **Fence/producer bookkeeping** — pending fences and rename producers
  reference only live ROB entries.
* **Scheme ``peek_*`` agreement** — the side-effect-free previews
  (``peek_load_decision`` / ``peek_may_issue``), which license the idle
  fast-forward, must match the real decision whenever they claim to know
  it.  Enforced by wrapping the scheme's methods at attach time.

A violated invariant raises :class:`InvariantViolation` with the cycle
and trial context, so a scheme or fast-forward bug surfaces at the
violating cycle instead of as a silently wrong figure.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional, Tuple

from repro.pipeline.dyninstr import DynInstr, Phase
from repro.pipeline.rob import SafetyFlags
from repro.pipeline.scheme_api import LoadDecision

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.core import Core
    from repro.system.machine import Machine


class InvariantViolation(RuntimeError):
    """A per-cycle pipeline/scheme invariant does not hold.

    Carries the simulated ``cycle`` and the trial ``context`` (victim/
    scheme/secret/seed) like :class:`~repro.pipeline.core.DeadlockError`,
    so a violation inside a sweep is attributable from the record alone.
    """

    def __init__(
        self,
        message: str,
        *,
        cycle: Optional[int] = None,
        context: Optional[str] = None,
    ) -> None:
        if cycle is not None:
            message = f"[cycle {cycle}] {message}"
        if context:
            message = f"{message} [{context}]"
        super().__init__(message)
        self.cycle = cycle
        self.context = context


class InvariantSanitizer:
    """Opt-in per-cycle invariant checker (FaultInjector-compatible)."""

    def __init__(self, *, check_scheme_previews: bool = True) -> None:
        self.check_scheme_previews = check_scheme_previews
        self.cycles_checked = 0
        self.invariant_checks = 0
        self.preview_checks = 0
        self._cores: List["Core"] = []
        #: (scheme, attr_name) pairs wrapped at attach time, for detach.
        self._wrapped: List[Tuple[Any, str]] = []

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def attach(self, core: "Core") -> "InvariantSanitizer":
        """Track ``core`` and wrap its scheme's decision methods so every
        real decision is compared against its ``peek_*`` preview."""
        self._cores.append(core)
        if self.check_scheme_previews:
            self._wrap_scheme(core.scheme)
        return self

    def detach(self) -> None:
        """Undo the scheme wrapping installed by :meth:`attach`."""
        for scheme, attr in self._wrapped:
            try:
                delattr(scheme, attr)
            except AttributeError:
                pass
        self._wrapped.clear()
        self._cores.clear()

    def _wrap_scheme(self, scheme: Any) -> None:
        if any(s is scheme for s, _ in self._wrapped):
            return  # one wrapper per scheme instance
        sanitizer = self

        real_load_decision = scheme.load_decision
        real_may_issue = scheme.may_issue

        def checked_load_decision(
            core: "Core", load: DynInstr, safe: bool
        ) -> LoadDecision:
            # Preview first: load_decision may legally mutate scheme
            # state; the peek must not (and must agree when it answers).
            peek = scheme.peek_load_decision(core, load, safe)
            actual = real_load_decision(core, load, safe)
            if peek is not None:
                sanitizer.preview_checks += 1
                if peek is not actual:
                    raise InvariantViolation(
                        f"scheme '{getattr(scheme, 'name', scheme)}' "
                        f"peek_load_decision={peek.name} disagrees with "
                        f"load_decision={actual.name} for load #{load.seq} "
                        f"(safe={safe})",
                        cycle=core.cycle,
                        context=core.trial_context,
                    )
            return actual

        def checked_may_issue(
            core: "Core", instr: DynInstr, flags: SafetyFlags
        ) -> bool:
            peek = scheme.peek_may_issue(core, instr, flags)
            actual = bool(real_may_issue(core, instr, flags))
            if peek is not None:
                sanitizer.preview_checks += 1
                if bool(peek) != actual:
                    raise InvariantViolation(
                        f"scheme '{getattr(scheme, 'name', scheme)}' "
                        f"peek_may_issue={bool(peek)} disagrees with "
                        f"may_issue={actual} for #{instr.seq}",
                        cycle=core.cycle,
                        context=core.trial_context,
                    )
            return actual

        scheme.load_decision = checked_load_decision
        scheme.may_issue = checked_may_issue
        self._wrapped.append((scheme, "load_decision"))
        self._wrapped.append((scheme, "may_issue"))

    # ------------------------------------------------------------------
    # FaultInjector protocol
    # ------------------------------------------------------------------
    def on_cycle(self, machine: "Machine") -> None:
        for core in self._cores:
            self.check_core(core)

    def on_core_cycle(self, core: "Core") -> None:
        if core not in self._cores:
            self._cores.append(core)
            if self.check_scheme_previews:
                self._wrap_scheme(core.scheme)
        self.check_core(core)

    # ------------------------------------------------------------------
    # the invariants
    # ------------------------------------------------------------------
    def check_core(self, core: "Core") -> None:
        """Validate every invariant on ``core`` right now."""
        self.cycles_checked += 1
        self._check_rob_order(core)
        self._check_rob_indices(core)
        self._check_rs_order(core)
        self._check_rs_accounting(core)
        self._check_mshrs(core)
        self._check_lsu_slots(core)
        self._check_rename_state(core)

    def _fail(self, core: "Core", message: str) -> None:
        raise InvariantViolation(
            message, cycle=core.cycle, context=core.trial_context
        )

    def _check_rob_order(self, core: "Core") -> None:
        self.invariant_checks += 1
        prev: Optional[int] = None
        for entry in core.rob:
            if prev is not None and entry.seq <= prev:
                self._fail(
                    core,
                    f"ROB age order broken: #{entry.seq} follows #{prev}",
                )
            if entry.phase is Phase.RETIRED:
                self._fail(
                    core, f"retired instruction #{entry.seq} still in ROB"
                )
            prev = entry.seq

    def _check_rob_indices(self, core: "Core") -> None:
        self.invariant_checks += 1
        rob = core.rob
        for name, index, keep in (
            ("load", rob.loads, lambda e: e.is_load),
            ("store", rob.stores, lambda e: e.is_store),
            ("branch", rob.branches, lambda e: e.is_branch and not e.static.unconditional),
        ):
            expected = [e for e in rob if keep(e)]
            if len(index) != len(expected) or any(
                got is not want for got, want in zip(index, expected, strict=True)
            ):
                self._fail(
                    core,
                    f"ROB {name} index drifted: holds "
                    f"{[e.seq for e in index]}, entries give "
                    f"{[e.seq for e in expected]}",
                )

    def _check_rs_order(self, core: "Core") -> None:
        self.invariant_checks += 1
        prev: Optional[int] = None
        for entry in core.rs:
            if prev is not None and entry.seq <= prev:
                self._fail(
                    core, f"RS age order broken: #{entry.seq} follows #{prev}"
                )
            prev = entry.seq

    def _check_rs_accounting(self, core: "Core") -> None:
        self.invariant_checks += 1
        rs = core.rs
        expected = sum(e.static.micro_ops for e in rs) + sum(
            rs._held.values()
        )
        if rs.occupied_micro_ops != expected:
            self._fail(
                core,
                f"RS slot accounting broken: occupied="
                f"{rs.occupied_micro_ops} but entries+held sum to {expected}",
            )
        if not 0 <= rs.occupied_micro_ops <= rs.size:
            self._fail(
                core,
                f"RS occupancy {rs.occupied_micro_ops} outside [0, {rs.size}]",
            )
        rob_seqs = {e.seq for e in core.rob}
        stale_held = sorted(s for s in rs._held if s not in rob_seqs)
        if stale_held:
            self._fail(
                core,
                f"RS holds slots for non-ROB instruction(s) {stale_held}",
            )

    def _check_mshrs(self, core: "Core") -> None:
        self.invariant_checks += 1
        mshrs = core.lsu.mshrs
        if len(mshrs) > mshrs.capacity:
            self._fail(
                core,
                f"MSHR file over capacity: {len(mshrs)}/{mshrs.capacity}",
            )
        inflight = {f.instr.seq for f in core.lsu._inflight}
        for line in mshrs.outstanding_lines():
            entry = mshrs._entries[line]
            leaked = sorted(entry.consumers - inflight)
            if leaked:
                self._fail(
                    core,
                    f"MSHR for line {line:#x} leaked consumer(s) {leaked} "
                    "(not in-flight in the LSU — squash should have "
                    "dropped them)",
                )
            if not entry.consumers:
                self._fail(
                    core, f"MSHR for line {line:#x} has no consumers"
                )

    def _check_lsu_slots(self, core: "Core") -> None:
        self.invariant_checks += 1
        rob_loads = sum(1 for e in core.rob if e.is_load)
        if core.lsu._occupancy != rob_loads:
            self._fail(
                core,
                f"LSU slot accounting broken: occupancy="
                f"{core.lsu._occupancy} but the ROB holds {rob_loads} "
                "load(s)",
            )

    def _check_rename_state(self, core: "Core") -> None:
        self.invariant_checks += 1
        rob_seqs = {e.seq for e in core.rob}
        stale_fences = sorted(s for s in core._fences if s not in rob_seqs)
        if stale_fences:
            self._fail(
                core, f"pending fence(s) {stale_fences} not in the ROB"
            )
        stale_producers = sorted(
            (reg, seq)
            for reg, seq in core._producers.items()
            if seq not in rob_seqs
        )
        if stale_producers:
            self._fail(
                core,
                f"rename producer(s) reference squashed/retired "
                f"instruction(s): {stale_producers}",
            )


class _CompositeHook:
    """Fan one FaultInjector-shaped hook point out to several hooks."""

    def __init__(self, hooks: Tuple[Any, ...]) -> None:
        self.hooks = hooks

    def on_cycle(self, machine: "Machine") -> None:
        for hook in self.hooks:
            on_cycle = getattr(hook, "on_cycle", None)
            if on_cycle is not None:
                on_cycle(machine)

    def on_core_cycle(self, core: "Core") -> None:
        for hook in self.hooks:
            on_core_cycle = getattr(hook, "on_core_cycle", None)
            if on_core_cycle is not None:
                on_core_cycle(core)


def compose_hooks(*hooks: Optional[Any]) -> Optional[Any]:
    """Combine per-cycle hooks (fault injectors, sanitizers) into one
    object honoring the FaultInjector protocol; ``None``s are dropped.
    Returns the sole hook unwrapped, or ``None`` when nothing remains."""
    present = tuple(h for h in hooks if h is not None)
    if not present:
        return None
    if len(present) == 1:
        return present[0]
    return _CompositeHook(present)
