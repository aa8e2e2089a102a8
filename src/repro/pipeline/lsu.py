"""Load/store unit: memory-request lifetimes, MSHRs, scheme policy.

The LSU owns every load between issue and data return:

* it asks the active :class:`~repro.pipeline.scheme_api.SpeculationScheme`
  whether the load may execute now and with what visibility;
* it allocates an L1-D MSHR for every miss it sends down the hierarchy —
  visible or invisible alike (this shared, issue-ordered allocation is
  the GDMSHR attack surface, §3.2.2);
* delayed loads (DoM-style) and MSHR-blocked loads park here; each
  cycle one oldest-first pass re-evaluates those whose answer may have
  changed (see :meth:`LoadStoreUnit.retry_parked`);
* store-to-load forwarding bypasses the cache entirely.

Under a scheme whose ``parked_loads_wake_on_events`` holds, a parked
load's answer depends only on its own ``became_safe``, on whether its
line is in this core's L1-D and, for an MSHR-parked load, on whether
the MSHR file can take its line.  So a scheme-parked load is
re-evaluated only after its became-safe transition or a visible L1-D
access to its line; an MSHR-parked one also after an MSHR allocation
for its line, or when the file is not full at its turn.  The lines come
from ``CacheHierarchy.wake_lines`` (every visible data access adds its
line) plus the MSHR allocations made here; each pass clears them.
Forward-parked loads, and every load under a scheme that polls, are
re-evaluated every cycle.

``next_finish`` is the earliest data-return cycle of the loads in
flight (``None`` when none is), kept current as loads start, complete
and are squashed: :meth:`LoadStoreUnit.collect_completions` returns at
once before it, and ``Core.next_event_cycle`` reads it as the LSU's
next wake-up event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Set

from repro.memory.hierarchy import AccessKind, CacheHierarchy
from repro.memory.mshr import MSHRFile
from repro.pipeline.config import CoreConfig
from repro.pipeline.dyninstr import DynInstr
from repro.pipeline.scheme_api import LoadDecision, SpeculationScheme
from repro.trace.events import EventKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.core import Core


#: load_state values (stored on the DynInstr for visibility in traces).
LS_PARKED_SCHEME = "parked-scheme"   # scheme said DELAY
LS_PARKED_MSHR = "parked-mshr"       # no MSHR available
LS_PARKED_FWD = "parked-forward"     # waiting on an older store's value
LS_INFLIGHT = "inflight"
LS_DONE = "done"


@dataclass(slots=True)
class _InFlightLoad:
    instr: DynInstr
    finish_cycle: int
    mshr_line: Optional[int]
    visible: bool
    forwarded: bool = False


class LoadStoreUnit:
    """Per-core memory pipeline stage."""

    def __init__(
        self,
        core_id: int,
        hierarchy: CacheHierarchy,
        scheme: SpeculationScheme,
        config: CoreConfig,
    ) -> None:
        self.core_id = core_id
        self.hierarchy = hierarchy
        self.scheme = scheme
        self.config = config
        self._occupancy = 0
        self._parked: List[DynInstr] = []  # age-ordered
        self._inflight: List[_InFlightLoad] = []
        #: Earliest in-flight data return; None when nothing is out.
        self.next_finish: Optional[int] = None
        #: Wake events since the last retry pass: lines this core's
        #: visible data accesses reached or that got an MSHR here, and
        #: loads that became safe.
        self._wake_lines: Set[int] = hierarchy.wake_lines[core_id]
        self._became_safe: Set[int] = set()
        self.stats_delayed = 0
        #: Loads that ended a retry pass MSHR-parked, summed over
        #: passes (one per load per cycle it stays MSHR-blocked).
        self.stats_mshr_blocked_cycles = 0
        self.stats_invisible = 0
        self.stats_forwards = 0
        self.stats_predicted = 0
        #: Optional :class:`repro.trace.Tracer`.  None = tracing off.
        self.tracer = None

    # ------------------------------------------------------------------
    @property
    def mshrs(self) -> MSHRFile:
        return self.hierarchy.l1d_mshrs[self.core_id]

    def can_accept(self) -> bool:
        return self._occupancy < self.config.lsu_size

    def allocate_slot(self) -> None:
        if not self.can_accept():
            raise RuntimeError("LSU overflow")
        self._occupancy += 1

    def release_slot(self) -> None:
        if self._occupancy == 0:
            raise RuntimeError("LSU slot released twice (occupancy already 0)")
        self._occupancy -= 1

    def _start_flight(self, flight: _InFlightLoad) -> None:
        self._inflight.append(flight)
        if self.next_finish is None or flight.finish_cycle < self.next_finish:
            self.next_finish = flight.finish_cycle

    def _set_inflight(self, inflight: List[_InFlightLoad]) -> None:
        self._inflight = inflight
        self.next_finish = (
            min(f.finish_cycle for f in inflight) if inflight else None
        )

    def note_became_safe(self, load: DynInstr) -> None:
        """``load`` just became safe: wake it if it is parked."""
        self._became_safe.add(load.seq)

    # ------------------------------------------------------------------
    # submission & evaluation
    # ------------------------------------------------------------------
    def submit(self, core: "Core", load: DynInstr, cycle: int) -> None:
        """A load issued: its address is computed; try to execute it."""
        if load.addr is None:
            # Explicit, not an assert: survives ``python -O``.
            raise RuntimeError(
                f"load #{load.seq} submitted to the LSU without an address"
            )
        self._try_start(core, load, cycle)

    def _park(
        self, load: DynInstr, state: str, prev: Optional[str], cycle: int
    ) -> None:
        """Park ``load`` in ``state``; emits a ``lsu.park`` event only on
        a state *transition* (``prev`` is the state the load held before
        this evaluation pass), so a load that stays parked is silent —
        which keeps traces identical with idle fast-forward on or off."""
        load.load_state = state
        self._parked.append(load)
        if self.tracer is not None and prev != state:
            self.tracer.emit(
                EventKind.LSU_PARK,
                cycle=cycle,
                seq=load.seq,
                instr=load.name,
                state=state,
            )

    def _try_start(
        self,
        core: "Core",
        load: DynInstr,
        cycle: int,
        prev: Optional[str] = None,
    ) -> None:
        """Memory disambiguation + forwarding, then the cache path.

        Conservative ordering: a load waits while *any* older store has
        an unresolved address (it might alias).  With all older store
        addresses known, the youngest matching store forwards its value;
        otherwise the load goes to the cache hierarchy.
        """
        match: Optional[DynInstr] = None
        for store in core.rob.older_stores(load.seq):
            if store.addr is None:
                self._park(load, LS_PARKED_FWD, prev, cycle)
                return
            if store.addr == load.addr:
                match = store
        if match is not None:
            if match.value is None:
                self._park(load, LS_PARKED_FWD, prev, cycle)
                return
            self._start_forward(load, match.value, cycle, store_seq=match.seq)
            return
        self._evaluate(core, load, cycle, prev=prev)

    def _start_forward(
        self,
        load: DynInstr,
        value: int,
        cycle: int,
        *,
        store_seq: Optional[int] = None,
    ) -> None:
        load.value = value
        load.load_state = LS_INFLIGHT
        self.stats_forwards += 1
        if self.tracer is not None:
            self.tracer.emit(
                EventKind.LSU_FORWARD,
                cycle=cycle,
                seq=load.seq,
                instr=load.name,
                store=store_seq,
            )
        self._start_flight(
            _InFlightLoad(
                load,
                cycle + self.config.store_forward_latency,
                mshr_line=None,
                visible=False,
                forwarded=True,
            )
        )

    def _evaluate(
        self,
        core: "Core",
        load: DynInstr,
        cycle: int,
        prev: Optional[str] = None,
    ) -> None:
        """Ask the scheme, check MSHRs, and start the access if allowed."""
        decision = self.scheme.load_decision(core, load, load.became_safe)
        if self.tracer is not None and decision.name != load.last_decision:
            self.tracer.emit(
                EventKind.SCHEME_DECISION,
                cycle=cycle,
                seq=load.seq,
                instr=load.name,
                decision=decision.name,
            )
        load.last_decision = decision.name
        if decision is LoadDecision.DELAY:
            self.stats_delayed += 1
            self._park(load, LS_PARKED_SCHEME, prev, cycle)
            return
        if decision is LoadDecision.PREDICT:
            # Value prediction: no memory request at all; the scheme
            # validates when the load becomes non-speculative.
            load.value = self.scheme.predict_value(core, load)
            load.value_predicted = True
            load.executed_invisibly = True
            load.load_state = LS_INFLIGHT
            self.stats_predicted += 1
            self._start_flight(
                _InFlightLoad(
                    load,
                    cycle + self.config.store_forward_latency,
                    mshr_line=None,
                    visible=False,
                )
            )
            return
        visible = decision is LoadDecision.VISIBLE
        line = self.hierarchy.llc.layout.line_addr(load.addr)
        needs_mshr = not self.hierarchy.l1_hit(self.core_id, load.addr)
        if needs_mshr and not self.mshrs.can_allocate(line):
            self._park(load, LS_PARKED_MSHR, prev, cycle)
            return
        mshr_line = None
        if needs_mshr:
            self.mshrs.allocate(line, consumer=load.seq, cycle=cycle)
            self._wake_lines.add(line)  # a younger load may coalesce now
            mshr_line = line
        result = self.hierarchy.access(
            self.core_id,
            load.addr,
            AccessKind.DATA,
            visible=visible,
            cycle=cycle,
        )
        if not visible:
            self.stats_invisible += 1
            load.executed_invisibly = True
        load.value = result.value
        load.load_state = LS_INFLIGHT
        self._start_flight(
            _InFlightLoad(load, cycle + result.latency, mshr_line, visible)
        )

    # ------------------------------------------------------------------
    # per-cycle work
    # ------------------------------------------------------------------
    def retry_parked(self, core: "Core", cycle: int) -> None:
        """Re-evaluate parked loads, oldest first.

        Under a scheme that wakes parked loads on events, a scheme- or
        MSHR-parked load that :meth:`parked_load_sleeps` stays parked
        without a scheme or cache call, and is counted as a
        re-evaluation that parks it again would count it.  Each load
        that ends the pass MSHR-parked adds one to
        ``stats_mshr_blocked_cycles``.  The wake events are cleared
        after the pass.  With no load parked and no wake event pending
        the pass changes nothing, and ``Core.step`` does not call it.
        """
        if self._parked:
            queue = sorted(self._parked, key=lambda l: l.seq)
            self._parked = []
            events = self.scheme.parked_loads_wake_on_events
            for load in queue:
                was_state = load.load_state
                if was_state == LS_PARKED_FWD:
                    if not self._retry_forward(core, load, cycle):
                        self._parked.append(load)
                elif events and self.parked_load_sleeps(load):
                    self._parked.append(load)
                    if was_state == LS_PARKED_SCHEME:
                        self.stats_delayed += 1
                else:
                    load.load_state = None
                    # _evaluate re-parks into self._parked when still
                    # blocked.
                    self._evaluate(core, load, cycle, prev=was_state)
                if load.load_state == LS_PARKED_MSHR:
                    self.stats_mshr_blocked_cycles += 1
        self._wake_lines.clear()
        self._became_safe.clear()

    def parked_load_sleeps(self, load: DynInstr) -> bool:
        """Event path: True when nothing that decides this scheme- or
        MSHR-parked load's answer can have changed since it was last
        evaluated — it did not become safe, no visible access by this
        core reached its line and no MSHR was allocated for it, and it
        is scheme-parked or the MSHR file is full.  Only meaningful
        under a scheme whose ``parked_loads_wake_on_events`` holds."""
        if load.seq in self._became_safe:
            return False
        if self.hierarchy.llc.layout.line_addr(load.addr) in self._wake_lines:
            return False
        return load.load_state == LS_PARKED_SCHEME or self.mshrs.full

    def _retry_forward(self, core: "Core", load: DynInstr, cycle: int) -> bool:
        """Re-run disambiguation; True when the load left the FWD state."""
        for store in core.rob.older_stores(load.seq):
            if store.addr is None:
                return False  # still ambiguous
            if store.addr == load.addr and store.value is None:
                return False  # forwarding store's data not ready
        load.load_state = None
        self._try_start(core, load, cycle, prev=LS_PARKED_FWD)
        return load.load_state != LS_PARKED_FWD

    # ------------------------------------------------------------------
    # idle-cycle fast-forward support (see Core.next_event_cycle)
    # ------------------------------------------------------------------
    def parked_loads(self) -> List[DynInstr]:
        return self._parked

    def parked_loads_keep_waiting(self, core: "Core") -> bool:
        """Side-effect-free: would every parked load still be parked in
        its state after the next :meth:`retry_parked` pass?  A load the
        event path would leave asleep does; any other is previewed with
        :meth:`parked_load_keeps_waiting`."""
        events = self.scheme.parked_loads_wake_on_events
        for load in self._parked:
            if events and load.load_state != LS_PARKED_FWD:
                if not self.parked_load_sleeps(load):
                    return False
            elif not self.parked_load_keeps_waiting(core, load):
                return False
        return True

    def parked_load_keeps_waiting(self, core: "Core", load: DynInstr) -> bool:
        """Side-effect-free: would this parked load still be parked in
        the *same state* after a re-evaluation now?

        Mirrors :meth:`_retry_forward` / :meth:`_evaluate` without any
        state change: the per-cycle poll, kept for polling schemes and
        forward-parked loads, and as the sanitizer's reference for the
        event path.  Returns False whenever the outcome is uncertain
        (e.g. the scheme cannot preview its decision), which merely
        disables fast-forwarding for that window.
        """
        if load.load_state == LS_PARKED_FWD:
            for store in core.rob.older_stores(load.seq):
                if store.addr is None:
                    return True  # still ambiguous: stays parked
                if store.addr == load.addr and store.value is None:
                    return True  # forwarding store's data not ready
            return False  # disambiguation would complete: simulate it
        decision = self.scheme.peek_load_decision(core, load, load.became_safe)
        if decision is None:
            return False
        if load.load_state == LS_PARKED_SCHEME:
            return decision is LoadDecision.DELAY
        # LS_PARKED_MSHR: stays only if it would again need an MSHR and
        # none is available.
        if decision not in (LoadDecision.VISIBLE, LoadDecision.INVISIBLE):
            return False
        if load.addr is None:
            raise RuntimeError(
                f"parked load #{load.seq} has no address"
            )
        if self.hierarchy.l1_hit(self.core_id, load.addr):
            return False
        line = self.hierarchy.llc.layout.line_addr(load.addr)
        return not self.mshrs.can_allocate(line)

    def note_skipped_cycles(self, count: int) -> None:
        """Account ``count`` fast-forwarded cycles of parked-load
        retries: a scheme-delayed or MSHR-blocked load is counted once
        per cycle, as each :meth:`retry_parked` pass would count it."""
        for load in self._parked:
            if load.load_state == LS_PARKED_SCHEME:
                self.stats_delayed += count
            elif load.load_state == LS_PARKED_MSHR:
                self.stats_mshr_blocked_cycles += count

    def collect_completions(self, cycle: int) -> List[DynInstr]:
        """Loads whose data returns this cycle (MSHRs released here)."""
        if self.next_finish is None or self.next_finish > cycle:
            return []
        done = [f for f in self._inflight if f.finish_cycle <= cycle]
        self._set_inflight([f for f in self._inflight if f.finish_cycle > cycle])
        completed = []
        for f in sorted(done, key=lambda f: f.instr.seq):
            if f.mshr_line is not None:
                self.mshrs.release(f.mshr_line)
            f.instr.load_state = LS_DONE
            completed.append(f.instr)
        return completed

    # ------------------------------------------------------------------
    def squash_younger_than(self, seq: int) -> None:
        self._parked = [l for l in self._parked if l.seq <= seq]
        survivors = []
        for f in self._inflight:
            if f.instr.seq <= seq:
                survivors.append(f)
                continue
            if f.mshr_line is not None:
                self.mshrs.drop_consumer(f.instr.seq)
        self._set_inflight(survivors)

    def outstanding(self) -> int:
        return len(self._parked) + len(self._inflight)
