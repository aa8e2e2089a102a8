"""The out-of-order core: fetch, dispatch, issue, writeback, retire.

Stage order within :meth:`Core.step` encodes the timing the attacks
depend on (§3.2): results broadcast on the CDB during cycle *t* wake
dependents no earlier than *t+1* (one-cycle wakeup delay), and the issue
stage selects the **oldest ready** instruction per port — so a ready
younger (speculative) instruction grabs a just-freed non-pipelined unit
while an older instruction is still waking up.  That is the cascade of
Figure 3.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.isa.instructions import OpClass
from repro.isa.program import Program
from repro.memory.hierarchy import AccessKind, CacheHierarchy
from repro.pipeline.branch import BranchPredictor, TwoBitPredictor
from repro.pipeline.config import CoreConfig
from repro.pipeline.dyninstr import (
    DynInstr,
    Phase,
    SourceOperand,
    capture_dyninstr,
    restore_dyninstr,
)
from repro.pipeline.execution_unit import CommonDataBus, ExecutionUnit
from repro.pipeline.lsu import LoadStoreUnit
from repro.pipeline.reservation_station import ReservationStation
from repro.pipeline.rob import ROB, SafetyFrontier
from repro.pipeline.scheme_api import SpeculationScheme, is_safe
from repro.trace.bus import Tracer
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
#: as its ``__slots__`` and its snapshot field order).
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
        trace: bool = False,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.core_id = core_id
        self.program = program
        self.hierarchy = hierarchy
        self.scheme = scheme or SpeculationScheme()
        self.config = config or CoreConfig()
        self.predictor = predictor or TwoBitPredictor()
        self.regfile: Dict[str, int] = dict(registers or {})

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
        #: The ROB's safety frontier at the start of the current cycle.
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
        self._fences: Set[int] = set()

        # diagnostics
        self.trace_enabled = trace
        self.trace: List[DynInstr] = []
        #: Structured event bus (:mod:`repro.trace`); None = tracing off,
        #: in which case every emission site is a single attribute check.
        self.tracer: Optional[Tracer] = tracer
        self.lsu.tracer = tracer
        self.cdb.tracer = tracer
        for eu in self.eus:
            eu.tracer = tracer
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
        """Advance one cycle (``cycle`` must increase monotonically)."""
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
        self.safety_flags = self.rob.safety_flags()
        self._update_safety()
        self._retire()
        self._writeback()
        self.lsu.retry_parked(self, cycle)
        self._issue()
        self._dispatch()
        self._fetch()
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
        # A load would transition to safe (on_load_safe side effects).
        # Safety is monotone in age, so the oldest load not yet safe is
        # the only candidate.
        flags_map = self.rob.safety_flags()
        for load in self.rob.loads:
            if load.became_safe:
                continue
            flags = flags_map.get(load.seq)
            if flags is not None and is_safe(self.scheme.safety, flags):
                return None
            break
        # The implicit-halt condition would fire.
        if (
            self.rob.empty
            and not self.fetch_queue
            and self._pending_redirect is None
            and self.fetch_pc >= len(self.program)
            and self.lsu.outstanding() == 0
        ):
            return None
        # Never skip past the deadlock detector's horizon: stepping at
        # that cycle must still raise exactly as it would unskipped.
        wake = self._last_progress_cycle + self.deadlock_window + 1
        for eu in self.eus:
            finish = eu.earliest_finish()
            if finish is not None:
                if finish <= nxt:
                    return None
                wake = min(wake, finish)
        finish = self.lsu.earliest_completion()
        if finish is not None:
            if finish <= nxt:
                return None
            wake = min(wake, finish)
        # Every parked load must provably stay parked (in its state).
        for load in self.lsu.parked_loads():
            if not self.lsu.parked_load_keeps_waiting(self, load):
                return None
        # Nothing in the RS may be able to issue.
        oldest_fence = self._oldest_fence()
        for instr in self.rs:
            if not self._issue_blocked_next_cycle(instr, flags_map, oldest_fence):
                return None
        # Dispatch must be blocked (or have nothing to do).
        if self.fetch_queue:
            instr = self.fetch_queue[0]
            if not self.rob.full:
                oc = instr.opclass
                needs_rs = oc in (
                    OpClass.ALU,
                    OpClass.BRANCH,
                    OpClass.LOAD,
                    OpClass.STORE,
                )
                if not needs_rs:
                    return None
                if self.rs.can_accept(instr) and not (
                    oc is OpClass.LOAD and not self.lsu.can_accept()
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
        return wake

    def _issue_blocked_next_cycle(
        self,
        instr: DynInstr,
        flags_map: SafetyFrontier,
        oldest_fence: Optional[int],
    ) -> bool:
        """Side-effect-free: True when ``instr`` provably cannot issue
        next cycle.  Mirrors the checks in :meth:`_issue` in order."""
        eu = self.eus[instr.static.port]
        if not eu.config.pipelined and eu.busy:
            if self.scheme.preempt_eus:
                occupant = eu.current_occupant()
                if occupant is not None and occupant.seq > instr.seq:
                    return False  # preemption might fire: simulate it
            return True
        if oldest_fence is not None and oldest_fence < instr.seq:
            return True
        for src in instr.sources:
            if src.producer_seq is None or src.value is not None:
                continue
            if src.producer_seq not in self._scoreboard:
                return True  # producer has not broadcast yet
            # Broadcast happened in a past cycle => ready next cycle.
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
                oc = instr.opclass
                needs_rs = oc in (
                    OpClass.ALU,
                    OpClass.BRANCH,
                    OpClass.LOAD,
                    OpClass.STORE,
                )
                if needs_rs and not self.rs.can_accept(instr):
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
        while budget > 0 and not self.rob.empty:
            head = self.rob.head()
            if head.phase is not Phase.COMPLETED:
                break
            self.rob.pop_head()
            head.phase = Phase.RETIRED
            head.mark("retire", self.cycle)
            if self.tracer is not None:
                self.tracer.emit(
                    EventKind.COMMIT,
                    cycle=self.cycle,
                    seq=head.seq,
                    instr=head.name,
                )
            self._last_progress_cycle = self.cycle
            if head.is_store:
                if head.addr is None:
                    # Explicit, not an assert: survives ``python -O``.
                    raise RuntimeError(
                        f"store #{head.seq} reached retire without an "
                        "address"
                    )
                self.hierarchy.write(
                    self.core_id, head.addr, head.value or 0, cycle=self.cycle
                )
            dst = head.static.dst
            if dst is not None and not head.is_store:
                self.regfile[dst] = head.value if head.value is not None else 0
                if self._producers.get(dst) == head.seq:
                    del self._producers[dst]
            if head.is_load:
                self.lsu.release_slot()
            self._fences.discard(head.seq)
            self.rs.release_held(head.seq)
            self.scheme.on_retire(self, head)
            self.stats.retired += 1
            if self.trace_enabled:
                self.trace.append(head)
            if head.opclass is OpClass.HALT:
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
            for instr in eu.drain_finished(cycle):
                if instr.is_load and instr.load_state is None:
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
            instr.mark("complete", self.cycle)
            if self.tracer is not None:
                self.tracer.emit(
                    EventKind.WRITEBACK,
                    cycle=self.cycle,
                    seq=instr.seq,
                    instr=instr.name,
                )
            if instr.static.dst is not None or instr.is_load:
                self._scoreboard[instr.seq] = (instr.value, self.cycle)
            if instr.is_branch:
                self._resolve_branch(instr)

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
        validation): replayed consumers will read the fixed value."""
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
            if instr.is_load:
                self.lsu.release_slot()
            self._scoreboard.pop(instr.seq, None)
        self._fences = {s for s in self._fences if s <= seq}
        self._producers = {}
        for entry in self.rob:
            dst = entry.static.dst
            if dst is not None and not entry.is_store:
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
        if self.trace_enabled:
            self.trace.extend(squashed)

    # ==================================================================
    # issue
    # ==================================================================
    def _issue(self) -> None:
        # Hot loop: runs over the whole RS every cycle, so bind the
        # per-iteration attribute chains to locals once.
        cycle = self.cycle
        eus = self.eus
        scheme_may_issue = self.scheme.may_issue
        flags_get = self.safety_flags.get
        sources_ready = self._sources_ready
        oldest_fence = self._oldest_fence()
        for instr in self.rs.waiting_sorted():
            if oldest_fence is not None and oldest_fence < instr.seq:
                break  # this entry and every younger one wait on the fence
            eu = eus[instr.static.port]
            if not eu.can_accept(cycle):
                if not self._try_preempt(eu, instr):
                    continue
            if not sources_ready(instr):
                continue
            flags = flags_get(instr.seq)
            if flags is not None and not scheme_may_issue(self, instr, flags):
                continue
            self._do_issue(instr, eu)

    def _try_preempt(self, eu: ExecutionUnit, instr: DynInstr) -> bool:
        """§5.4 'squashable EU': evict a younger occupant for an older,
        ready instruction (only when the scheme opts in).  The caller has
        checked that no pending fence blocks ``instr``."""
        if not self.scheme.preempt_eus or eu.config.pipelined:
            return False
        occupant = eu.current_occupant()
        if occupant is None or occupant.seq <= instr.seq:
            return False
        if not self._sources_ready(instr):
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

    def _sources_ready(self, instr: DynInstr) -> bool:
        scoreboard_get = self._scoreboard.get
        cycle = self.cycle
        for src in instr.sources:
            if src.producer_seq is None:
                continue
            if src.value is not None:
                continue
            entry = scoreboard_get(src.producer_seq)
            if entry is None or entry[1] >= cycle:
                return False
            src.value = entry[0]
        return True

    def _do_issue(self, instr: DynInstr, eu: ExecutionUnit) -> None:
        values = instr.source_values()
        oc = instr.opclass
        latency = instr.static.latency
        if instr.static.dynamic_latency is not None:
            # Operand-dependent execution time (a transmitter, §3.2.2).
            latency = max(1, instr.static.dynamic_latency(*values))
        if oc is OpClass.ALU:
            instr.value = instr.static.compute(*values)
        elif oc is OpClass.BRANCH:
            instr.actual_taken = bool(instr.static.compute(*values))
        elif oc is OpClass.LOAD:
            instr.addr = instr.static.compute(*values)
            latency = 1  # AGU; memory latency comes from the LSU
        elif oc is OpClass.STORE:
            instr.addr = instr.static.compute(*values[:-1])
            instr.value = values[-1]
            latency = 1
        hold = self.scheme.hold_rs_until_safe
        self.rs.remove_on_issue(instr, hold_slot=hold)
        eu.issue(instr, self.cycle, latency)
        instr.phase = Phase.ISSUED
        instr.mark("issue", self.cycle)
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
        while budget > 0 and self.fetch_queue:
            instr = self.fetch_queue[0]
            if self.rob.full:
                self.stats.rob_full_stalls += 1
                return
            oc = instr.opclass
            needs_rs = oc in (OpClass.ALU, OpClass.BRANCH, OpClass.LOAD, OpClass.STORE)
            if needs_rs:
                if not self.rs.can_accept(instr):
                    self.stats.rs_full_stalls += 1
                    return
                if oc is OpClass.LOAD and not self.lsu.can_accept():
                    return
            self.fetch_queue.popleft()
            self._rename(instr)
            if oc is OpClass.STORE and not instr.static.srcs:
                # Register-free store address: resolved at dispatch (an
                # immediate AGU µop), so it never blocks younger loads
                # on memory disambiguation.
                instr.addr = instr.static.compute()
            self.rob.push(instr)
            instr.phase = Phase.DISPATCHED
            instr.mark("dispatch", self.cycle)
            if self.tracer is not None:
                self.tracer.emit(
                    EventKind.DISPATCH,
                    cycle=self.cycle,
                    seq=instr.seq,
                    instr=instr.name,
                )
            self.stats.dispatched += 1
            if needs_rs:
                self.rs.insert(instr)
                if oc is OpClass.LOAD:
                    self.lsu.allocate_slot()
                dst = instr.static.dst
                if dst is not None and not instr.is_store:
                    self._producers[dst] = instr.seq
            else:
                instr.phase = Phase.COMPLETED
                instr.mark("complete", self.cycle)
                if self.tracer is not None:
                    # No-RS micro-ops complete at dispatch; emit the
                    # writeback so their lifecycle still closes.
                    self.tracer.emit(
                        EventKind.WRITEBACK,
                        cycle=self.cycle,
                        seq=instr.seq,
                        instr=instr.name,
                    )
                if oc is OpClass.FENCE:
                    self._fences.add(instr.seq)
            budget -= 1

    def _rename(self, instr: DynInstr) -> None:
        sources: List[SourceOperand] = []
        regs = list(instr.static.srcs)
        if instr.is_store:
            regs.append(instr.static.value_src)  # type: ignore[arg-type]
        for reg in regs:
            producer = self._producers.get(reg)
            if producer is not None:
                sources.append(SourceOperand(reg, producer))
            else:
                sources.append(SourceOperand(reg, None, self.regfile.get(reg, 0)))
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
        program = self.program
        fetch_queue = self.fetch_queue
        queue_limit = self.config.fetch_queue_size
        program_len = len(program)
        while (
            budget > 0
            and len(fetch_queue) < queue_limit
            and self.fetch_pc < program_len
        ):
            slot = self.fetch_pc
            static = program.at(slot)
            pc_addr = program.address_of_slot(slot)
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
            dyn = DynInstr(seq=self._seq, slot=slot, static=static, pc_addr=pc_addr)
            dyn.mark("fetch", self.cycle)
            if self.tracer is not None:
                self.tracer.emit(
                    EventKind.FETCH,
                    cycle=self.cycle,
                    seq=dyn.seq,
                    instr=dyn.name,
                    slot=slot,
                )
            self.fetch_queue.append(dyn)
            self.stats.fetched += 1
            budget -= 1
            if static.opclass is OpClass.BRANCH:
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
    # snapshot
    # ==================================================================
    SNAP_VERSION = 1
    SNAP_SCHEMA = (
        "instr_table",
        "cycle",
        "halted",
        "stats",
        "regfile",
        "rob",
        "rs",
        "eus",
        "cdb",
        "lsu",
        "seq_counter",
        "fetch_pc",
        "fetch_queue_seqs",
        "fetch_stall_until",
        "fetch_buffer",
        "pending_redirect",
        "halt_seen",
        "producers",
        "scoreboard",
        "fences",
        "trace_seqs",
        "last_progress_cycle",
        "predictor",
        "scheme",
    )

    def capture(self) -> Tuple:
        """Capture the complete core state as flat tuples.

        Every container holding :class:`DynInstr` objects is captured as
        a sequence of ``seq`` ids; the instructions themselves are
        captured exactly once each into an id-keyed table, so the
        aliasing of one dynamic instruction across ROB/RS/EU/CDB/LSU/
        fetch-queue survives a restore.
        """
        table: Dict[int, Tuple] = {}

        def note(instr: DynInstr) -> None:
            if instr.seq not in table:
                table[instr.seq] = capture_dyninstr(instr)

        for entry in self.rob:
            note(entry)
        for entry in self.rs:
            note(entry)
        for eu in self.eus:
            for op in eu._in_flight:
                note(op.instr)
        for instr in self.cdb._queue:
            note(instr)
        for load in self.lsu._parked:
            note(load)
        for inflight in self.lsu._inflight:
            note(inflight.instr)
        for instr in self.fetch_queue:
            note(instr)
        for instr in self.trace:
            note(instr)
        return (
            tuple(table.items()),
            self.cycle,
            self.halted,
            tuple(getattr(self.stats, name) for name in CORE_STAT_FIELDS),
            dict(self.regfile),
            self.rob.capture(),
            self.rs.capture(),
            tuple(eu.capture() for eu in self.eus),
            self.cdb.capture(),
            self.lsu.capture(),
            self._seq,
            self.fetch_pc,
            tuple(i.seq for i in self.fetch_queue),
            self._fetch_stall_until,
            tuple(self._fetch_buffer),
            self._pending_redirect,
            self._halt_seen,
            dict(self._producers),
            dict(self._scoreboard),
            frozenset(self._fences),
            tuple(i.seq for i in self.trace),
            self._last_progress_cycle,
            self.predictor.capture_state(),
            self.scheme.capture_state(),
        )

    def restore(self, state: Tuple) -> None:
        (
            table,
            cycle,
            halted,
            stats,
            regfile,
            rob_state,
            rs_state,
            eus_state,
            cdb_state,
            lsu_state,
            seq_counter,
            fetch_pc,
            fetch_queue_seqs,
            fetch_stall_until,
            fetch_buffer,
            pending_redirect,
            halt_seen,
            producers,
            scoreboard,
            fences,
            trace_seqs,
            last_progress,
            predictor_state,
            scheme_state,
        ) = state
        program = self.program
        # Rebuild one fresh DynInstr per captured seq; every container
        # below resolves through this table, restoring aliasing.
        instrs = {
            seq: restore_dyninstr(instr_state, program.at(instr_state[1]))
            for seq, instr_state in table
        }
        resolve = instrs.__getitem__
        self.cycle = cycle
        self.halted = halted
        for name, value in zip(CORE_STAT_FIELDS, stats, strict=False):
            setattr(self.stats, name, value)
        self.regfile.clear()
        self.regfile.update(regfile)
        self.rob.restore(rob_state, resolve)
        self.rs.restore(rs_state, resolve)
        for eu, eu_state in zip(self.eus, eus_state, strict=False):
            eu.restore(eu_state, resolve)
        self.cdb.restore(cdb_state, resolve)
        self.lsu.restore(lsu_state, resolve)
        self._seq = seq_counter
        self.fetch_pc = fetch_pc
        self.fetch_queue.clear()
        self.fetch_queue.extend(resolve(s) for s in fetch_queue_seqs)
        self._fetch_stall_until = fetch_stall_until
        self._fetch_buffer.clear()
        self._fetch_buffer.extend(fetch_buffer)
        self._pending_redirect = pending_redirect
        self._halt_seen = halt_seen
        self._producers = dict(producers)
        self._scoreboard = dict(scoreboard)
        self._fences = set(fences)
        self.trace[:] = [resolve(s) for s in trace_seqs]
        self._last_progress_cycle = last_progress
        self.predictor.restore_state(predictor_state)
        self.scheme.restore_state(scheme_state)
        # Derived per-cycle state: recomputed at the top of every step,
        # but restore it defensively for anything peeking between steps.
        self.safety_flags = self.rob.safety_flags()

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
