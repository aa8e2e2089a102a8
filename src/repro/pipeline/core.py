"""The out-of-order core: fetch, dispatch, issue, writeback, retire.

Stage order within :meth:`Core.step` encodes the timing the attacks
depend on (§3.2): results broadcast on the CDB during cycle *t* wake
dependents no earlier than *t+1* (one-cycle wakeup delay), and the issue
stage selects the **oldest ready** instruction per port — so a ready
younger (speculative) instruction grabs a just-freed non-pipelined unit
while an older instruction is still waking up.  That is the cascade of
Figure 3.

Wakeup is event-driven.  Rename takes each operand whose producer has
already broadcast from the scoreboard, with that broadcast cycle + 1 as
the instruction's ``ready_cycle``, and registers every other operand as
a waiter on its producer.  The broadcast hands the value to each
waiter and sets ``ready_cycle`` to *t+1*; an entry whose last producer
broadcast joins the reservation station's seq-ordered ready list.
Issue walks only that list and skips entries whose ``ready_cycle`` is
still ahead, so the *t+1* rule is unchanged.

A scheme whose issue rule is a prefix of the ROB window (the fence
defenses) states it once per cycle as a seq, its
:meth:`~repro.pipeline.scheme_api.SpeculationScheme.issue_gate`; the
walk stops at the first entry past it or past the oldest pending fence,
and entries below it issue without a per-entry ``may_issue`` call.

A stepped cycle does work per due event.  The safety frontier is built
once per step, after fetch, and carried to the next cycle, whose stages
and whose :meth:`Core.next_event_cycle` check both read it; nothing
between two steps moves the ROB, so it is the start-of-cycle frontier.
A stage is called only when it can act: safety while the youngest ROB
load has not become safe, retire when the ROB head has completed, the
parked-load retry when a load is parked or a wake event is pending,
dispatch when the fetch queue holds an instruction, and fetch while a
redirect is pending or HALT has not been fetched.  Writeback and issue
run every stepped cycle.
Each execution unit and the LSU keep ``next_finish``, their earliest
in-flight finish cycle, so writeback drains only the units due this
cycle and the fast-forward check reads each unit's next completion in
O(1).

Every stage reads the facts each static instruction decoded once, when
it was built (``needs_rs``, ``is_load``, ``rename_dst``,
``rename_srcs``, ...; see :class:`~repro.isa.instructions.Instruction`),
and fetch reads each slot's code address from a table built with the
core, so no dynamic instruction re-derives a fixed fact on its way
through fetch, dispatch, rename, issue and retire.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.isa.instructions import OpClass
from repro.isa.program import Program
from repro.memory.hierarchy import AccessKind, CacheHierarchy
from repro.pipeline.branch import BranchPredictor, TwoBitPredictor
from repro.pipeline.config import CoreConfig
from repro.pipeline.dyninstr import DynInstr, Phase, SourceOperand
from repro.pipeline.execution_unit import CommonDataBus, ExecutionUnit
from repro.pipeline.lsu import LoadStoreUnit
from repro.pipeline.reservation_station import ReservationStation
from repro.pipeline.rob import ROB, SafetyFrontier
from repro.pipeline.scheme_api import SpeculationScheme, is_safe
from repro.trace.bus import Tracer, install_tracer_on_core
from repro.trace.events import EventKind


class DeadlockError(RuntimeError):
    """No instruction retired for an implausibly long window.

    Carries the simulated ``cycle`` the fault was detected at and, when
    the raiser runs inside a sweep trial, a ``context`` string naming
    the victim/scheme/secret/seed — so one failed trial in a 10k-trial
    sweep is attributable from the failure record (or journal) alone.
    """

    def __init__(
        self,
        message: str,
        *,
        cycle: Optional[int] = None,
        context: Optional[str] = None,
    ) -> None:
        if context:
            message = f"{message} [{context}]"
        super().__init__(message)
        self.cycle = cycle
        self.context = context


class CycleBudgetError(DeadlockError):
    """The run exceeded its ``max_cycles`` budget without finishing.

    A :class:`DeadlockError` subclass so existing handlers keep working;
    distinguishable where the difference matters (a budget overrun may
    just mean the budget was too small for the workload)."""


#: Counter names of :class:`CoreStats`, in declaration order (doubles
#: as its ``__slots__``).
CORE_STAT_FIELDS = (
    "cycles",
    "fetched",
    "dispatched",
    "issued",
    "retired",
    "branches",
    "mispredicts",
    "squashes",
    "squashed_instrs",
    "icache_miss_stalls",
    "fetch_stall_cycles",
    "rs_full_stalls",
    "rob_full_stalls",
    "eu_preemptions",
)


@dataclass
class CoreStats:
    __slots__ = CORE_STAT_FIELDS

    cycles: int
    fetched: int
    dispatched: int
    issued: int
    retired: int
    branches: int
    mispredicts: int
    squashes: int
    squashed_instrs: int
    icache_miss_stalls: int
    fetch_stall_cycles: int
    rs_full_stalls: int
    rob_full_stalls: int
    eu_preemptions: int

    def __init__(self) -> None:
        for name in CORE_STAT_FIELDS:
            setattr(self, name, 0)

    @property
    def ipc(self) -> float:
        return self.retired / self.cycles if self.cycles else 0.0


class Core:
    """One out-of-order core executing one program."""

    def __init__(
        self,
        core_id: int,
        program: Program,
        hierarchy: CacheHierarchy,
        scheme: Optional[SpeculationScheme] = None,
        *,
        config: Optional[CoreConfig] = None,
        predictor: Optional[BranchPredictor] = None,
        registers: Optional[Dict[str, int]] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.core_id = core_id
        self.program = program
        self.hierarchy = hierarchy
        self.scheme = scheme or SpeculationScheme()
        self.config = config or CoreConfig()
        self.predictor = predictor or TwoBitPredictor()
        self.regfile: Dict[str, int] = dict(registers or {})
        #: Code address of each program slot, read by fetch.
        self._slot_addrs = program.slot_addresses()

        self.rob = ROB(self.config.rob_size)
        self.rs = ReservationStation(self.config.rs_size)
        self.eus = [
            ExecutionUnit(i, port) for i, port in enumerate(self.config.ports)
        ]
        self.cdb = CommonDataBus(
            self.config.cdb_width, arbitration=self.config.cdb_arbitration
        )
        self.lsu = LoadStoreUnit(core_id, hierarchy, self.scheme, self.config)

        self.cycle = 0
        self.halted = False
        self.stats = CoreStats()
        #: The ROB's safety frontier at the start of the current cycle;
        #: between two steps, that of the next one (see :meth:`step`).
        self.safety_flags: SafetyFrontier = self.rob.safety_flags()

        # frontend state
        self._seq = 0
        self.fetch_pc = 0
        self.fetch_queue: Deque[DynInstr] = deque()
        self._fetch_stall_until = 0
        self._fetch_buffer: Deque[int] = deque(maxlen=self.config.fetch_buffer_lines)
        self._pending_redirect: Optional[Tuple[int, int]] = None
        self._halt_seen = False

        # rename / value plumbing
        self._producers: Dict[str, int] = {}
        self._scoreboard: Dict[int, Tuple[Optional[int], int]] = {}
        #: producer seq -> the (consumer, source) pairs waiting for its
        #: broadcast.
        self._waiters: Dict[int, List[Tuple[DynInstr, SourceOperand]]] = {}
        self._fences: Set[int] = set()

        # diagnostics
        #: Structured event bus (:mod:`repro.trace`); None = tracing off,
        #: in which case every emission site is a single attribute check.
        self.tracer: Optional[Tracer] = None
        install_tracer_on_core(tracer, self)
        self._last_progress_cycle = 0
        self.deadlock_window = 100_000
        #: Human-readable trial identity (victim/scheme/secret/seed),
        #: set by sweep harnesses and baked into DeadlockError messages.
        self.trial_context: Optional[str] = None
        #: Optional deterministic fault source (repro.runner.faults);
        #: consulted once per step when installed.
        self.fault_injector = None

    # ==================================================================
    # public driving API
    # ==================================================================
    def step(self, cycle: int) -> None:
        """Advance one cycle (``cycle`` must increase monotonically).

        The cycle's stages read ``safety_flags``, the frontier built at
        the end of the previous step, after ``_fetch``.  Nothing between
        two steps moves the ROB (scheduled attacker reads, cycle hooks,
        other cores and :meth:`fast_forward` touch only the hierarchy and
        counters), so it equals the start-of-cycle frontier, and
        :meth:`next_event_cycle` reads the same value.
        """
        if cycle <= self.cycle:
            raise ValueError("cycles must be monotonically increasing")
        self.cycle = cycle
        self.stats.cycles += 1
        tracer = self.tracer
        if tracer is not None:
            # Context for components that don't know the cycle/core
            # (CDB, MSHR files, caches); sound under lockstep stepping.
            tracer.cycle = cycle
            tracer.core = self.core_id
        if self.fault_injector is not None:
            self.fault_injector.on_core_cycle(self)
        if self.halted:
            return
        # A stage is called only when it can act; each skipped call is
        # one that would return having changed no state and no counter.
        rob = self.rob
        loads = rob.loads
        if loads and not loads[-1].became_safe:
            # Became-safe loads form a prefix of ``rob.loads``, so a safe
            # youngest load means there is no transition left to fire.
            self._update_safety()
        head = rob.head()
        if head is not None and head.phase is Phase.COMPLETED:
            self._retire()
        self._writeback()  # always: it ticks busy units' busy_cycles
        lsu = self.lsu
        if lsu._parked or lsu._wake_lines or lsu._became_safe:
            lsu.retry_parked(self, cycle)
        self._issue()
        if self.fetch_queue:
            self._dispatch()
        if self._pending_redirect is not None or not self._halt_seen:
            self._fetch()
        self.safety_flags = rob.safety_flags()
        if (
            self.rob.empty
            and not self.fetch_queue
            and self._pending_redirect is None
            and self.fetch_pc >= len(self.program)
            and self.lsu.outstanding() == 0
        ):
            # Control flow ran off the end of the program (e.g. a branch
            # to a trailing label): treat as an implicit halt.
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

    def run(
        self, *, max_cycles: Optional[int] = None, fast_forward: bool = True
    ) -> CoreStats:
        """Run standalone until HALT retires (single-core convenience)."""
        limit = max_cycles or self.config.max_cycles
        if self.fault_injector is not None:
            # The fast-forward oracle cannot see injected faults; step
            # every cycle so a fault at cycle N fires exactly at N.
            fast_forward = False
        while not self.halted:
            if self.cycle >= limit:
                raise CycleBudgetError(
                    f"core {self.core_id} exceeded {limit} cycles",
                    cycle=self.cycle,
                    context=self.trial_context,
                )
            if fast_forward:
                wake = self.next_event_cycle()
                if wake is not None:
                    target = min(wake - 1, limit)
                    if target > self.cycle:
                        self.fast_forward(target)
                        continue
            self.step(self.cycle + 1)
        return self.stats

    @property
    def done(self) -> bool:
        return self.halted

    # ==================================================================
    # idle-cycle fast-forward
    # ==================================================================
    def next_event_cycle(self) -> Optional[int]:
        """Earliest future cycle at which stepping can change state, or
        ``None`` when the next cycle must be simulated normally.

        The core is *quiescent* when every stage provably does nothing
        but bookkeeping next cycle: no CDB broadcast, no retirement, no
        safety transition, no EU/LSU completion, every parked load stays
        parked, nothing can issue, dispatch and fetch are stalled.  The
        returned cycle is the earliest wake-up event (an EU or memory
        completion, a redirect, the end of a fetch stall, or the
        deadlock-detector horizon), so :meth:`fast_forward` may skip to
        ``wake - 1`` while reproducing the per-cycle counters exactly.

        Every check is free of side effects, so their order does not
        change the answer: the O(1) ones come first, then the safety
        walk, the parked loads and the ready list.
        """
        if self.halted:
            return None
        nxt = self.cycle + 1
        # Results waiting on the CDB broadcast next cycle.
        if len(self.cdb):
            return None
        # Retirement would make progress.
        head = self.rob.head()
        if head is not None and head.phase is Phase.COMPLETED:
            return None
        # Never skip past the deadlock detector's horizon: stepping at
        # that cycle must still raise exactly as it would unskipped.
        wake = self._last_progress_cycle + self.deadlock_window + 1
        # An EU or the LSU finishes work next cycle.
        for eu in self.eus:
            finish = eu.next_finish
            if finish is not None:
                if finish <= nxt:
                    return None
                wake = min(wake, finish)
        finish = self.lsu.next_finish
        if finish is not None:
            if finish <= nxt:
                return None
            wake = min(wake, finish)
        # The implicit-halt condition would fire.
        if (
            self.rob.empty
            and not self.fetch_queue
            and self._pending_redirect is None
            and self.fetch_pc >= len(self.program)
            and self.lsu.outstanding() == 0
        ):
            return None
        # Fetch must be blocked (redirect pending, stalled, queue full,
        # or program exhausted).
        if self._pending_redirect is not None:
            _, at_cycle = self._pending_redirect
            if at_cycle <= nxt:
                return None
            wake = min(wake, at_cycle)
        elif not self._halt_seen:
            if nxt < self._fetch_stall_until:
                wake = min(wake, self._fetch_stall_until)
            elif (
                len(self.fetch_queue) < self.config.fetch_queue_size
                and self.fetch_pc < len(self.program)
            ):
                return None
        if wake <= nxt:
            return None
        # Dispatch must be blocked (or have nothing to do).
        if self.fetch_queue:
            instr = self.fetch_queue[0]
            if not self.rob.full:
                static = instr.static
                if not static.needs_rs:
                    return None
                if self.rs.can_accept(instr) and not (
                    static.is_load and not self.lsu.can_accept()
                ):
                    return None
        # A load would transition to safe (on_load_safe side effects).
        # Safety is monotone in age, so the oldest load not yet safe is
        # the only candidate.
        flags_map = self.safety_flags
        for load in self.rob.loads:
            if load.became_safe:
                continue
            flags = flags_map.get(load.seq)
            if flags is not None and is_safe(self.scheme.safety, flags):
                return None
            break
        # Every parked load must provably stay parked (in its state).
        if not self.lsu.parked_loads_keep_waiting(self):
            return None
        # Nothing in the RS may be able to issue.  An entry still waiting
        # on a producer cannot, unless §5.4 preemption may fire for it.
        oldest_fence = self._oldest_fence()
        if self.scheme.preempt_eus:
            for instr in self.rs:
                if not self._issue_blocked_next_cycle(instr, flags_map, oldest_fence):
                    return None
        else:
            gate = self.scheme.issue_gate(flags_map)
            limit = self._issue_limit(gate, oldest_fence)
            for instr in self.rs.ready:
                if limit is not None and instr.seq > limit:
                    break  # held with every younger entry
                if not self._issue_blocked_next_cycle(
                    instr, flags_map, oldest_fence, ask_scheme=gate is None
                ):
                    return None
        return wake

    def _issue_blocked_next_cycle(
        self,
        instr: DynInstr,
        flags_map: SafetyFrontier,
        oldest_fence: Optional[int],
        *,
        ask_scheme: bool = True,
    ) -> bool:
        """Side-effect-free: True when ``instr`` provably cannot issue
        next cycle.  Mirrors the checks in :meth:`_issue` in order;
        ``ask_scheme=False`` is for an entry at or below the issue gate,
        which the scheme admits."""
        eu = self.eus[instr.static.port]
        if not eu.config.pipelined and eu.busy:
            if self.scheme.preempt_eus:
                occupant = eu.current_occupant()
                if occupant is not None and occupant.seq > instr.seq:
                    return False  # preemption might fire: simulate it
            return True
        if oldest_fence is not None and oldest_fence < instr.seq:
            return True
        if instr.pending_sources:
            return True  # a producer has not broadcast yet
        # Every broadcast happened by this cycle => ready next cycle.
        if not ask_scheme:
            return False
        flags = flags_map.get(instr.seq)
        if flags is None:
            return False
        peek = self.scheme.peek_may_issue(self, instr, flags)
        if peek is None or peek:
            return False  # unknown, or the instruction would issue
        return True

    def fast_forward(self, target: int) -> None:
        """Jump to ``target``, emulating per-cycle bookkeeping exactly.

        The caller must have proven via :meth:`next_event_cycle` that no
        state-changing event occurs in ``(self.cycle, target]``; every
        counter a real :meth:`step` would have bumped on those idle
        cycles is applied here in closed form.
        """
        count = target - self.cycle
        if count <= 0:
            return
        self.cycle = target
        self.stats.cycles += count
        if self.halted:
            return
        for eu in self.eus:
            eu.note_skipped_cycles(count)
        self.lsu.note_skipped_cycles(count)
        if (
            self._pending_redirect is None
            and not self._halt_seen
            and target - count + 1 < self._fetch_stall_until
        ):
            self.stats.fetch_stall_cycles += count
        if self.fetch_queue:
            if self.rob.full:
                self.stats.rob_full_stalls += count
            else:
                instr = self.fetch_queue[0]
                if instr.static.needs_rs and not self.rs.can_accept(instr):
                    self.stats.rs_full_stalls += count

    # ==================================================================
    # safety transitions
    # ==================================================================
    def _update_safety(self) -> None:
        """Fire became-safe transitions for loads, in program order.

        A load's safety may also require all older loads to already be
        safe (enforced implicitly: prefix flags only improve with age).
        The same monotonicity ends the walk at the first load that is
        still speculative: no younger load can be safe.
        """
        model = self.scheme.safety
        frontier = self.safety_flags
        loads = self.rob.loads
        # Walk by position: on_load_safe may squash (value-prediction
        # replay), dropping younger loads from the index under us.
        i = 0
        while i < len(loads):
            entry = loads[i]
            i += 1
            if entry.became_safe:
                continue
            flags = frontier.get(entry.seq)
            if flags is None or not is_safe(model, flags):
                return
            entry.became_safe = True
            self.lsu.note_became_safe(entry)
            if self.tracer is not None:
                self.tracer.emit(
                    EventKind.SCHEME_SAFE,
                    cycle=self.cycle,
                    seq=entry.seq,
                    instr=entry.name,
                )
            self.scheme.on_load_safe(self, entry)

    # ==================================================================
    # retire
    # ==================================================================
    def _retire(self) -> None:
        budget = self.config.retire_width
        rob = self.rob
        while budget > 0:
            head = rob.head()
            if head is None or head.phase is not Phase.COMPLETED:
                break
            rob.pop_head()
            head.phase = Phase.RETIRED
            if self.tracer is not None:
                self.tracer.emit(
                    EventKind.COMMIT,
                    cycle=self.cycle,
                    seq=head.seq,
                    instr=head.name,
                )
            self._last_progress_cycle = self.cycle
            static = head.static
            if static.is_store:
                if head.addr is None:
                    # Explicit, not an assert: survives ``python -O``.
                    raise RuntimeError(
                        f"store #{head.seq} reached retire without an "
                        "address"
                    )
                self.hierarchy.write(
                    self.core_id, head.addr, head.value or 0, cycle=self.cycle
                )
            dst = static.rename_dst
            if dst is not None:
                self.regfile[dst] = head.value if head.value is not None else 0
                if self._producers.get(dst) == head.seq:
                    del self._producers[dst]
            if static.is_load:
                self.lsu.release_slot()
            self._fences.discard(head.seq)
            self.rs.release_held(head.seq)
            self.scheme.on_retire(self, head)
            self.stats.retired += 1
            if static.opclass is OpClass.HALT:
                self.halted = True
                return
            budget -= 1

    # ==================================================================
    # writeback / branch resolution
    # ==================================================================
    def _writeback(self) -> None:
        cycle = self.cycle
        lsu = self.lsu
        cdb_enqueue = self.cdb.enqueue
        for eu in self.eus:
            finish = eu.next_finish
            if finish is None:
                continue
            if finish > cycle:
                eu.busy_cycles += 1  # busy, nothing due: drain's tick
                continue
            for instr in eu.drain_finished(cycle):
                if instr.static.is_load and instr.load_state is None:
                    # AGU finished: hand the load to the memory system.
                    lsu.submit(self, instr, cycle)
                else:
                    cdb_enqueue(instr)
        for load in lsu.collect_completions(cycle):
            self.scheme.on_load_complete(self, load)
            cdb_enqueue(load)
        for instr in self.cdb.broadcast():
            if instr.phase is Phase.SQUASHED:
                continue
            instr.phase = Phase.COMPLETED
            if self.tracer is not None:
                self.tracer.emit(
                    EventKind.WRITEBACK,
                    cycle=self.cycle,
                    seq=instr.seq,
                    instr=instr.name,
                )
            static = instr.static
            if static.dst is not None or static.is_load:
                self._scoreboard[instr.seq] = (instr.value, cycle)
                waiters = self._waiters.pop(instr.seq, None)
                if waiters is not None:
                    self._wake(waiters, instr.value, cycle + 1)
            if static.is_branch:
                self._resolve_branch(instr)

    def _wake(
        self,
        waiters: List[Tuple[DynInstr, SourceOperand]],
        value: Optional[int],
        ready_cycle: int,
    ) -> None:
        """Hand a broadcast ``value`` to its waiting sources; a consumer
        whose last producer this was joins the RS ready list."""
        for consumer, src in waiters:
            if consumer.phase is not Phase.DISPATCHED:
                continue  # squashed while it waited
            src.value = value
            consumer.ready_cycle = ready_cycle
            consumer.pending_sources -= 1
            if not consumer.pending_sources:
                self.rs.wake(consumer)

    def _resolve_branch(self, branch: DynInstr) -> None:
        branch.resolved = True
        self.stats.branches += 1
        if branch.actual_taken is None:
            raise RuntimeError(
                f"branch #{branch.seq} resolved without an outcome"
            )
        if not branch.static.unconditional:
            self.predictor.update(branch.slot, branch.actual_taken)
        if branch.mispredicted():
            self.stats.mispredicts += 1
            self._squash(branch)

    def _squash(self, branch: DynInstr) -> None:
        if branch.actual_taken:
            target = self.program.branch_target_slot(branch.slot)
        else:
            target = branch.slot + 1
        self._squash_younger(branch.seq, target)

    def replay_younger_than(self, instr: DynInstr, *, redirect_slot: int) -> None:
        """Squash everything younger than ``instr`` and refetch from
        ``redirect_slot`` — the recovery path value-prediction schemes
        use when validation fails."""
        self._squash_younger(instr.seq, redirect_slot)

    def update_value(self, instr: DynInstr, value: int) -> None:
        """Correct a completed instruction's result (value-prediction
        validation): replayed consumers will read the fixed value.  The
        caller replays everything younger, so no consumer keeps the
        operand it captured at broadcast."""
        instr.value = value
        entry = self._scoreboard.get(instr.seq)
        if entry is not None:
            self._scoreboard[instr.seq] = (value, entry[1])

    def _squash_younger(self, seq: int, target: int) -> None:
        squashed = self.rob.squash_younger_than(seq)
        self.rs.squash_younger_than(seq)
        for eu in self.eus:
            eu.squash_younger_than(seq)
        self.cdb.squash_younger_than(seq)
        self.lsu.squash_younger_than(seq)
        fq_squashed = list(self.fetch_queue)
        self.fetch_queue.clear()
        for instr in fq_squashed:
            instr.phase = Phase.SQUASHED
        for instr in squashed:
            if instr.static.is_load:
                self.lsu.release_slot()
            self._scoreboard.pop(instr.seq, None)
            self._waiters.pop(instr.seq, None)
        self._fences = {s for s in self._fences if s <= seq}
        self._producers = {}
        for entry in self.rob:
            dst = entry.static.rename_dst
            if dst is not None:
                self._producers[dst] = entry.seq
        self._pending_redirect = (
            target,
            self.cycle + self.config.squash_redirect_penalty,
        )
        self._fetch_stall_until = 0
        self._fetch_buffer.clear()
        self._halt_seen = False
        self.stats.squashes += 1
        self.stats.squashed_instrs += len(squashed) + len(fq_squashed)
        all_squashed = squashed + fq_squashed
        if self.tracer is not None:
            for instr in all_squashed:
                self.tracer.emit(
                    EventKind.SQUASH,
                    cycle=self.cycle,
                    seq=instr.seq,
                    instr=instr.name,
                    redirect=target,
                )
        self.scheme.on_squash(self, all_squashed)

    # ==================================================================
    # issue
    # ==================================================================
    def _issue(self) -> None:
        ready = self.rs.ready
        if not ready:
            return
        cycle = self.cycle
        eus = self.eus
        scheme = self.scheme
        # §5.4 preemption runs before may_issue and has side effects, so
        # it keeps the per-entry may_issue call.
        gate = None if scheme.preempt_eus else scheme.issue_gate(self.safety_flags)
        oldest_fence = self._oldest_fence()
        limit = self._issue_limit(gate, oldest_fence)
        scheme_may_issue = scheme.may_issue
        flags_get = self.safety_flags.get
        # Walk a copy: a §5.4 preempted occupant rejoins the ready list
        # mid-walk, and issues next cycle at the earliest.
        for instr in tuple(ready):
            if limit is not None and instr.seq > limit:
                # This entry and every younger one wait on the gate or
                # the fence.
                if limit != oldest_fence:
                    scheme.on_issue_gated(self)
                break
            if instr.ready_cycle > cycle:
                continue  # woken this cycle: one-cycle wakeup delay
            eu = eus[instr.static.port]
            if not eu.can_accept(cycle):
                if not self._try_preempt(eu, instr):
                    continue
            if gate is None:
                flags = flags_get(instr.seq)
                if flags is not None and not scheme_may_issue(self, instr, flags):
                    continue
            self._do_issue(instr, eu)

    @staticmethod
    def _issue_limit(
        gate: Optional[int], oldest_fence: Optional[int]
    ) -> Optional[int]:
        """The youngest seq that may issue this cycle: the scheme's gate
        or the oldest pending fence, whichever is older (``None`` when
        neither applies)."""
        if gate is None or (oldest_fence is not None and oldest_fence <= gate):
            return oldest_fence
        return gate

    def _try_preempt(self, eu: ExecutionUnit, instr: DynInstr) -> bool:
        """§5.4 'squashable EU': evict a younger occupant for an older,
        ready instruction (only when the scheme opts in).  The caller has
        checked that ``instr`` is ready and that no pending fence blocks
        it.  The occupant keeps its captured operands, so it goes back
        onto the ready list."""
        if not self.scheme.preempt_eus or eu.config.pipelined:
            return False
        occupant = eu.current_occupant()
        if occupant is None or occupant.seq <= instr.seq:
            return False
        eu.abort(occupant)
        occupant.phase = Phase.DISPATCHED
        self.rs.insert(occupant)
        self.stats.eu_preemptions += 1
        return eu.can_accept(self.cycle)

    def _oldest_fence(self) -> Optional[int]:
        """Seq of the oldest pending fence; every younger instruction
        waits for it to retire."""
        return min(self._fences) if self._fences else None

    def _do_issue(self, instr: DynInstr, eu: ExecutionUnit) -> None:
        values = instr.source_values()
        static = instr.static
        oc = static.opclass
        latency = static.latency
        if static.dynamic_latency is not None:
            # Operand-dependent execution time (a transmitter, §3.2.2).
            latency = max(1, static.dynamic_latency(*values))
        if oc is OpClass.ALU:
            instr.value = static.compute(*values)
        elif oc is OpClass.BRANCH:
            instr.actual_taken = bool(static.compute(*values))
        elif oc is OpClass.LOAD:
            instr.addr = static.compute(*values)
            latency = 1  # AGU; memory latency comes from the LSU
        elif oc is OpClass.STORE:
            instr.addr = static.compute(*values[:-1])
            instr.value = values[-1]
            latency = 1
        hold = self.scheme.hold_rs_until_safe
        self.rs.remove_on_issue(instr, hold_slot=hold)
        eu.issue(instr, self.cycle, latency)
        instr.phase = Phase.ISSUED
        self.stats.issued += 1
        tracer = self.tracer
        if tracer is not None:
            deps = ",".join(
                str(src.producer_seq)
                for src in instr.sources
                if src.producer_seq is not None
            )
            if deps:
                tracer.emit(
                    EventKind.ISSUE,
                    cycle=self.cycle,
                    seq=instr.seq,
                    instr=instr.name,
                    port=instr.static.port,
                    lat=latency,
                    deps=deps,
                )
            else:
                tracer.emit(
                    EventKind.ISSUE,
                    cycle=self.cycle,
                    seq=instr.seq,
                    instr=instr.name,
                    port=instr.static.port,
                    lat=latency,
                )

    # ==================================================================
    # dispatch
    # ==================================================================
    def _dispatch(self) -> None:
        budget = self.config.dispatch_width
        fetch_queue = self.fetch_queue
        rob = self.rob
        rs = self.rs
        # Dispatch is the only stage that fills the ROB, and nothing in
        # this loop drains it, so its free room is counted down locally.
        rob_room = rob.size - len(rob)
        while budget > 0 and fetch_queue:
            instr = fetch_queue[0]
            if rob_room <= 0:
                self.stats.rob_full_stalls += 1
                return
            static = instr.static
            needs_rs = static.needs_rs
            if needs_rs:
                if not rs.can_accept(instr):
                    self.stats.rs_full_stalls += 1
                    return
                if static.is_load and not self.lsu.can_accept():
                    return
            fetch_queue.popleft()
            self._rename(instr)
            if static.is_store and not static.srcs:
                # Register-free store address: resolved at dispatch (an
                # immediate AGU µop), so it never blocks younger loads
                # on memory disambiguation.
                instr.addr = static.compute()
            rob.push(instr)
            rob_room -= 1
            instr.phase = Phase.DISPATCHED
            if self.tracer is not None:
                self.tracer.emit(
                    EventKind.DISPATCH,
                    cycle=self.cycle,
                    seq=instr.seq,
                    instr=instr.name,
                )
            self.stats.dispatched += 1
            if needs_rs:
                rs.insert(instr)
                if static.is_load:
                    self.lsu.allocate_slot()
                dst = static.rename_dst
                if dst is not None:
                    self._producers[dst] = instr.seq
            else:
                instr.phase = Phase.COMPLETED
                if self.tracer is not None:
                    # No-RS micro-ops complete at dispatch; emit the
                    # writeback so their lifecycle still closes.
                    self.tracer.emit(
                        EventKind.WRITEBACK,
                        cycle=self.cycle,
                        seq=instr.seq,
                        instr=instr.name,
                    )
                if static.opclass is OpClass.FENCE:
                    self._fences.add(instr.seq)
            budget -= 1

    def _rename(self, instr: DynInstr) -> None:
        """Map sources to producers.  An operand whose producer already
        broadcast is read from the scoreboard now; any other waits for
        the broadcast (see :meth:`_wake`)."""
        sources: List[SourceOperand] = []
        producers = self._producers
        scoreboard = self._scoreboard
        for reg in instr.static.rename_srcs:
            producer = producers.get(reg)
            if producer is None:
                sources.append(SourceOperand(reg, None, self.regfile.get(reg, 0)))
                continue
            src = SourceOperand(reg, producer)
            sources.append(src)
            entry = scoreboard.get(producer)
            if entry is None:
                self._waiters.setdefault(producer, []).append((instr, src))
                instr.pending_sources += 1
            else:
                src.value = entry[0]
                ready = entry[1] + 1
                if ready > instr.ready_cycle:
                    instr.ready_cycle = ready
        instr.sources = sources

    # ==================================================================
    # fetch
    # ==================================================================
    def _fetch(self) -> None:
        if self._pending_redirect is not None:
            slot, at_cycle = self._pending_redirect
            if self.cycle < at_cycle:
                return
            self.fetch_pc = slot
            self._pending_redirect = None
        if self._halt_seen:
            return
        if self.cycle < self._fetch_stall_until:
            self.stats.fetch_stall_cycles += 1
            return
        budget = self.config.fetch_width
        line_size = self.hierarchy.llc.layout.line_size
        instructions = self.program.instructions
        slot_addrs = self._slot_addrs
        fetch_queue = self.fetch_queue
        queue_limit = self.config.fetch_queue_size
        program_len = len(instructions)
        while (
            budget > 0
            and len(fetch_queue) < queue_limit
            and self.fetch_pc < program_len
        ):
            slot = self.fetch_pc
            static = instructions[slot]
            pc_addr = slot_addrs[slot]
            line = pc_addr & ~(line_size - 1)
            if line not in self._fetch_buffer:
                speculative = self._fetch_is_speculative()
                visible = self.scheme.fetch_visible(self, speculative)
                result = self.hierarchy.access(
                    self.core_id,
                    pc_addr,
                    AccessKind.INST,
                    visible=visible,
                    cycle=self.cycle,
                )
                self._fetch_buffer.append(line)
                if result.hit_level != "L1":
                    self._fetch_stall_until = self.cycle + result.latency
                    self.stats.icache_miss_stalls += 1
                    return
            self._seq += 1
            dyn = DynInstr(self._seq, slot, static, pc_addr)
            if self.tracer is not None:
                self.tracer.emit(
                    EventKind.FETCH,
                    cycle=self.cycle,
                    seq=dyn.seq,
                    instr=static.label,
                    slot=slot,
                )
            fetch_queue.append(dyn)
            self.stats.fetched += 1
            budget -= 1
            if static.is_branch:
                if static.unconditional:
                    predicted = True
                else:
                    predicted = self.predictor.predict(slot)
                dyn.predicted_taken = predicted
                if predicted:
                    self.fetch_pc = self.program.branch_target_slot(slot)
                    return  # taken-branch fetch break
                self.fetch_pc = slot + 1
            elif static.opclass is OpClass.HALT:
                self._halt_seen = True
                return
            else:
                self.fetch_pc = slot + 1

    def _fetch_is_speculative(self) -> bool:
        """Is the frontend currently fetching under a branch shadow?"""
        if self.rob.oldest_unresolved_branch() is not None:
            return True
        return any(e.is_unresolved_branch for e in self.fetch_queue)

    # ==================================================================
    # diagnostics
    # ==================================================================
    def pipeline_snapshot(self) -> str:  # pragma: no cover - debugging aid
        lines = [f"core {self.core_id} @ cycle {self.cycle}"]
        lines.append(f"  fetch_pc={self.fetch_pc} fq={len(self.fetch_queue)}")
        lines.append(
            f"  rob={len(self.rob)} rs={self.rs.occupied_micro_ops}/"
            f"{self.rs.size} lsu={self.lsu.outstanding()}"
        )
        head = self.rob.head()
        if head is not None:
            lines.append(f"  head: #{head.seq} {head.name} {head.phase.value}")
        return "\n".join(lines)
