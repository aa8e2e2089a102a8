"""Lockstep batched execution of one sweep group.

One *cohort* = the specs of a batch group that share a secret value.
The engine runs a single scalar **leader** machine per cohort (the
first spec's trial, bit-for-bit the cold path) and replays every
memory-system call the leader makes on N *lanes*, each a real
:class:`~repro.memory.hierarchy.CacheHierarchy` restored from the
leader's prepared ``capture()``.  Lanes differ from the leader only in
their attacker reference-access schedules (§3.3 "clock" reads), which
the mirror issues on each lane at the cycle they would fire.  Cache
sets are built on first fill, so a lane costs only the sets the trial
touches.

Soundness rests on comparison, not assumption:

* every replayed call's per-lane answer (the access result, or the
  boolean / level of a presence probe) is compared against the
  leader's *real* answer; a lane whose memory state would have
  answered differently is **ejected** — its spec re-runs cold, so
  correctness never depends on lanes staying converged;
* lane 0 replicates the leader, reference reads included, and its
  final ``capture()`` must equal the leader's — any drift raises
  :class:`BatchMirrorError`, and that cohort's specs re-run cold.

With tracing enabled (differential tests), every lane hierarchy gets
its own tracer, and the engine rebuilds each lane's full event trace
from the leader's: each replayed call's event span is replaced by the
lane's own events, and the lane's reference reads are spliced in at
their firing cycles.
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.memory.hierarchy import AccessKind, CacheHierarchy
from repro.runner.spec import (
    TrialOutcome,
    TrialSpec,
    TrialStatus,
    TrialSummary,
    stream_dependent,
)
from repro.trace import Tracer
from repro.trace.bus import install_tracer_on_hierarchy
from repro.trace.events import CACHE_KINDS, TraceEvent

_CACHE_KIND_SET = frozenset(CACHE_KINDS)


class BatchMirrorError(RuntimeError):
    """Lane 0 lost bit-equivalence with the scalar leader (a mirror
    bug, never a lane divergence — those eject silently)."""


class LockstepMirror:
    """Observer replaying one scalar leader run on N lane hierarchies.

    Installed as ``hierarchy.observer`` (and ``llc.observer`` for the
    direct presence checks some schemes make) for the duration of the
    leader's ``machine.run``.
    """

    def __init__(
        self,
        machine: Any,
        capture: Tuple,
        lane_refs: Sequence[Sequence[Tuple[int, int]]],
        *,
        attacker_core: int,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.machine = machine
        self.h = machine.hierarchy
        self.attacker_core = attacker_core
        #: The leader's tracer when lane traces are rebuilt, else None.
        self.tracer = tracer
        self.lanes: List[CacheHierarchy] = []
        for _ in lane_refs:
            lane = CacheHierarchy(self.h.num_cores, self.h.config)
            lane.restore(capture)
            if self.tracer is not None:
                install_tracer_on_hierarchy(
                    Tracer(kinds=self.tracer._kinds), lane
                )
            self.lanes.append(lane)
        #: lane index -> why it was ejected.
        self.diverged: Dict[int, str] = {}
        self.finished = False
        #: Per-lane pending reference accesses, sorted by
        #: (at_cycle, schedule index) — the machine's scheduled-action
        #: heap pops in exactly this order.  A ref with at_cycle <= 0
        #: fires on the first step, i.e. at cycle max(at_cycle, 1).
        self.pending: List[deque] = [
            deque(sorted((at, idx, addr) for idx, (addr, at) in enumerate(refs)))
            for refs in lane_refs
        ]
        #: Lane 0's reference-read results awaiting the leader's real
        #: counterpart (the observed attacker-core access), FIFO.
        self._leader_checks: deque = deque()
        self._live_cache: Optional[List[Tuple[int, CacheHierarchy]]] = None
        # -- trace reconstruction (leader tracer only) ------------------
        self._seen = len(self.tracer.events) if self.tracer is not None else 0
        #: (span_start, span_len, {lane: events}) per replayed call, in
        #: leader-event order.  The span is the call's own trailing run
        #: of cache-kind events; lanes substitute their own run.
        self.op_records: List[Tuple[int, int, Dict[int, List[TraceEvent]]]] = []
        #: (firing_cycle, schedule_idx, lane, events) per follower
        #: reference read, spliced in by :meth:`lane_trace`.
        self.ref_records: List[Tuple[int, int, int, List[TraceEvent]]] = []

    # ------------------------------------------------------------------
    # lane bookkeeping
    # ------------------------------------------------------------------
    def live(self) -> List[Tuple[int, CacheHierarchy]]:
        """``(index, hierarchy)`` of every lane not ejected."""
        if self._live_cache is None:
            self._live_cache = [
                (k, lane)
                for k, lane in enumerate(self.lanes)
                if k not in self.diverged
            ]
        return self._live_cache

    def _eject(self, k: int, reason: str) -> None:
        if k == 0:
            raise BatchMirrorError("leader lane diverged: " + reason)
        self.diverged[k] = reason
        self._live_cache = None

    def _mark(self, lane: CacheHierarchy) -> int:
        """Copy the leader's tracer context onto the lane's tracer and
        return its event count (the start of the lane's span)."""
        tracer = lane.tracer
        if tracer is None:
            return 0
        tracer.cycle = self.tracer.cycle
        tracer.core = self.tracer.core
        return len(tracer.events)

    # ------------------------------------------------------------------
    # reference reads
    # ------------------------------------------------------------------
    def _inject_due(self, limit: Optional[int] = None) -> None:
        """Fire every pending reference read whose firing cycle has been
        reached (called before every replayed call, so a lane's read is
        in place no matter how far the machine fast-forwarded)."""
        cyc = self.machine.cycle if limit is None else limit
        for k, lane in self.live():
            q = self.pending[k]
            while q and max(q[0][0], 1) <= cyc:
                at, idx, addr = q.popleft()
                firing = max(at, 1)
                mark = self._mark(lane)
                result = lane.access(
                    self.attacker_core,
                    addr,
                    AccessKind.DATA,
                    visible=True,
                    cycle=firing,
                )
                if k == 0:
                    # The leader's real scheduled read fires in the same
                    # cycle; its observer callback checks this result.
                    self._leader_checks.append((addr, result))
                elif lane.tracer is not None:
                    self.ref_records.append(
                        (firing, idx, k, lane.tracer.events[mark:])
                    )

    def _consume_leader_check(self, addr: int, result: Any) -> None:
        if not self._leader_checks:
            raise BatchMirrorError(
                f"unexpected attacker-core access addr={addr:#x} "
                "(no pending lane-0 reference read)"
            )
        raddr, mine = self._leader_checks.popleft()
        if raddr != addr or mine != result:
            raise BatchMirrorError(
                f"leader reference read mismatch at addr={addr:#x}: "
                f"lane 0 read {raddr:#x} -> {mine}, leader {result}"
            )

    # ------------------------------------------------------------------
    # event-span bookkeeping
    # ------------------------------------------------------------------
    def _record_span(
        self, buffers: Optional[Dict[int, List[TraceEvent]]]
    ) -> None:
        """Mark the just-observed call's events (the trailing maximal
        run of cache-kind events since the previous call — only hooked
        hierarchy calls emit cache kinds) and the per-lane substitutes."""
        events = self.tracer.events
        cur = len(events)
        split = cur
        while split > self._seen and events[split - 1].kind in _CACHE_KIND_SET:
            split -= 1
        self.op_records.append((split, cur - split, buffers or {}))
        self._seen = cur

    # ------------------------------------------------------------------
    # replay + comparison
    # ------------------------------------------------------------------
    def _replay(
        self,
        op: str,
        addr: int,
        real: Any,
        call: Callable[[CacheHierarchy], Any],
        *,
        span: bool = False,
    ) -> None:
        """Make ``call`` on every live lane and eject each lane whose
        answer differs from the leader's ``real`` one.  ``span`` records
        the call's event span (calls that can emit cache events)."""
        self._inject_due()
        buffers: Optional[Dict[int, List[TraceEvent]]] = (
            {} if span and self.tracer is not None else None
        )
        for k, lane in self.live():
            mark = self._mark(lane)
            mine = call(lane)
            if buffers is not None:
                buffers[k] = lane.tracer.events[mark:]
            if mine != real:
                self._eject(
                    k, f"{op} addr={addr:#x}: lane saw {mine}, leader saw {real}"
                )
        if buffers is not None:
            self._record_span(buffers)

    # ------------------------------------------------------------------
    # observer callbacks (repro.memory hooks)
    # ------------------------------------------------------------------
    def on_access(
        self,
        core: int,
        addr: int,
        kind: AccessKind,
        visible: bool,
        cycle: int,
        result: Any,
    ) -> None:
        if core == self.attacker_core:
            # The leader's own scheduled reference read: lane 0 issued
            # it at injection; strip its events from follower traces
            # (their own reads are spliced in separately).
            self._inject_due()
            self._consume_leader_check(addr, result)
            if self.tracer is not None:
                self._record_span(None)
            return
        self._replay(
            "access",
            addr,
            result,
            lambda lane: lane.access(core, addr, kind, visible=visible, cycle=cycle),
            span=True,
        )

    def on_write(
        self, core: int, addr: int, value: int, cycle: int, result: Any
    ) -> None:
        if core == self.attacker_core:
            raise BatchMirrorError(
                "attacker-core write observed; batch groups only "
                "schedule attacker reads"
            )
        self._replay(
            "write",
            addr,
            result,
            lambda lane: lane.write(core, addr, value, cycle=cycle),
            span=True,
        )

    def on_l1_hit(
        self, core: int, addr: int, kind: AccessKind, hit: bool
    ) -> None:
        if core != self.attacker_core:
            self._replay("l1_hit", addr, hit, lambda lane: lane.l1_hit(core, addr, kind))

    def on_hit_level(
        self, core: int, addr: int, kind: AccessKind, level: str
    ) -> None:
        if core != self.attacker_core:
            self._replay(
                "hit_level", addr, level, lambda lane: lane.hit_level(core, addr, kind)
            )

    def on_touch_l1(
        self, core: int, addr: int, kind: AccessKind, touched: bool
    ) -> None:
        if core != self.attacker_core:
            self._replay(
                "touch_l1", addr, touched, lambda lane: lane.touch_l1(core, addr, kind)
            )

    def on_contains(self, cache: Any, addr: int, present: bool) -> None:
        """Direct LLC presence probe (CleanupSpec et al.)."""
        self._replay(
            "llc.contains", addr, present, lambda lane: lane.llc.contains(addr)
        )

    def on_flush(self, addr: int) -> None:
        self._replay("flush", addr, None, lambda lane: lane.flush(addr), span=True)

    # ------------------------------------------------------------------
    # finish: flush trailing refs, verify lane 0 exactly
    # ------------------------------------------------------------------
    def _check_lane_zero(self, when: str) -> None:
        if self.lanes[0].capture() != self.h.capture():
            raise BatchMirrorError(
                f"lane 0 drifted from the leader hierarchy {when} (mirror bug)"
            )

    def finish(self) -> None:
        # Refs scheduled past the halt cycle stay pending: they never
        # fire in a real run either (the machine stops stepping).
        self._inject_due(limit=self.machine.cycle)
        if self._leader_checks:
            raise BatchMirrorError(
                f"{len(self._leader_checks)} lane-0 reference read(s) "
                "were never observed on the real machine"
            )
        # The LSU drives the MSHR files directly, not through hierarchy
        # calls, so lane 0 adopts the leader's before the comparison
        # (follower metrics read the leader's MSHR counters anyway).
        for mshrs, leader in zip(self.lanes[0].l1d_mshrs, self.h.l1d_mshrs, strict=True):
            mshrs.restore(leader.capture())
        self._check_lane_zero("by the end of the run")
        self.finished = True

    # ------------------------------------------------------------------
    # probe phase
    # ------------------------------------------------------------------
    def run_probe(
        self, probe_accesses: Sequence[int]
    ) -> Dict[int, Tuple[int, ...]]:
        """Run the harness's attacker probe phase on the leader and on
        every live lane; returns lane -> latencies.

        Call after :meth:`finish` with the observers uninstalled, so the
        leader's probe does not re-enter the mirror's callbacks.  The
        leader's latencies are the witness lane 0 must reproduce, and
        lane 0 must still capture equal to the leader afterwards —
        either mismatch raises :class:`BatchMirrorError`.
        """
        from repro.core.harness import run_probe_phase

        if not self.finished:
            raise BatchMirrorError("run_probe requires finish() first")
        if self.h.observer is not None or self.h.llc.observer is not None:
            raise BatchMirrorError(
                "run_probe requires the mirror observers uninstalled"
            )
        cycle = self.machine.cycle
        witness = run_probe_phase(
            self.h, cycle, probe_accesses, core=self.attacker_core
        )
        latencies: Dict[int, Tuple[int, ...]] = {}
        buffers: Dict[int, List[TraceEvent]] = {}
        for k, lane in self.live():
            mark = self._mark(lane)
            latencies[k] = run_probe_phase(
                lane, cycle, probe_accesses, core=self.attacker_core
            )
            if lane.tracer is not None:
                buffers[k] = lane.tracer.events[mark:]
        if latencies[0] != witness:
            raise BatchMirrorError(
                f"probe witness mismatch: lane 0 measured {latencies[0]}, "
                f"leader {witness}"
            )
        if self.tracer is not None:
            # One span for the whole probe: its events are a single
            # trailing run of cache kinds, substituted per lane.
            self._record_span(buffers)
        self._check_lane_zero("across the probe phase")
        return latencies

    # ------------------------------------------------------------------
    # per-lane trace reconstruction
    # ------------------------------------------------------------------
    def lane_trace(self, lane: int) -> List[TraceEvent]:
        """The lane's full event trace, rebuilt from the leader's: call
        spans substituted per lane, reference reads spliced in at the
        first event at-or-after their firing cycle."""
        if self.tracer is None:
            raise BatchMirrorError("lane_trace requires a leader tracer")
        events = self.tracer.events
        if lane == 0:
            return list(events)
        cycles = [e.cycle for e in events]
        inserts: Dict[int, List[Tuple[int, List[TraceEvent]]]] = {}
        for firing_cycle, idx, ref_lane, ref_events in self.ref_records:
            if ref_lane != lane:
                continue
            pos = bisect.bisect_left(cycles, firing_cycle)
            inserts.setdefault(pos, []).append((idx, ref_events))
        for entries in inserts.values():
            entries.sort(key=lambda item: item[0])
        out: List[TraceEvent] = []
        records = self.op_records
        r = 0
        i = 0
        n = len(events)
        while True:
            for _, ref_events in inserts.get(i, ()):
                out.extend(ref_events)
            advanced = False
            while r < len(records) and records[r][0] == i:
                _, length, per_lane = records[r]
                out.extend(per_lane.get(lane, []))
                r += 1
                if length:
                    i += length
                    advanced = True
                    break
            if advanced:
                continue
            if i >= n:
                break
            out.append(events[i])
            i += 1
        return out


# ----------------------------------------------------------------------
# cohort / group execution
# ----------------------------------------------------------------------
@dataclass
class CohortRun:
    """Diagnostics for one executed cohort (tests, ejection reporting)."""

    secret: int
    lane_specs: List[TrialSpec]
    #: lane index -> summary (missing = ejected or cohort-level failure).
    summaries: Dict[int, TrialSummary]
    #: lane index -> reconstructed event trace (with_traces only).
    traces: Optional[Dict[int, List[TraceEvent]]]
    #: lane index -> divergence / failure reason.
    diverged: Dict[int, str]
    error: Optional[str] = None


@dataclass
class BatchGroupReport:
    """Everything a test wants to know about one batched group run."""

    outcomes: List[TrialOutcome]
    cohorts: List[CohortRun] = field(default_factory=list)

    @property
    def ejected(self) -> int:
        return sum(len(c.diverged) for c in self.cohorts)


def run_batch_group_detailed(
    specs: Sequence[TrialSpec], *, with_traces: bool = False
) -> BatchGroupReport:
    """Execute one batch group; outcomes align with ``specs``.

    Returns per-cohort diagnostics (ejections, per-lane traces) beside
    the outcomes.  A per-lane divergence or a failed cohort never fails
    the group: those specs re-run cold inside.
    """
    from repro.runner.runner import run_trial_outcome

    specs = list(specs)
    # One lane per distinct reference schedule.  Stream-inert groups
    # (no jitter, no noise) cohort per secret: seed does not affect the
    # trial, so seed-only variants share a lane and are relabeled below,
    # exactly like a relabel group.  Stream-dependent groups cohort per
    # (secret, seed): the counter streams are keyed by seed, so lanes
    # can only share a leader that shares their seed, and no relabeling
    # happens.
    stream_dep = stream_dependent(specs[0])
    cohorts: Dict[Tuple[int, int], Dict[Tuple, TrialSpec]] = {}
    for spec in specs:
        cohort_key = (spec.secret, spec.seed if stream_dep else 0)
        lane_map = cohorts.setdefault(cohort_key, {})
        lane_map.setdefault(tuple(spec.reference_accesses), spec)
    summaries: Dict[Tuple[int, int, Tuple], Optional[TrialSummary]] = {}
    cohort_runs: List[CohortRun] = []
    for (secret, seed_key), lane_map in cohorts.items():
        lane_specs = list(lane_map.values())
        try:
            run = _run_cohort(secret, lane_specs, with_traces)
        except KeyboardInterrupt:
            raise
        except Exception as exc:
            # Cohort-level failure (mirror bug, leader fault): every
            # lane of this cohort re-runs cold; other cohorts stand.
            run = CohortRun(
                secret=secret,
                lane_specs=lane_specs,
                summaries={},
                traces=None,
                diverged={
                    k: f"cohort failed: {type(exc).__name__}: {exc}"
                    for k in range(len(lane_specs))
                },
                error=f"{type(exc).__name__}: {exc}",
            )
        cohort_runs.append(run)
        for k, lane_spec in enumerate(lane_specs):
            summaries[
                (secret, seed_key, tuple(lane_spec.reference_accesses))
            ] = run.summaries.get(k)
    outcomes: List[TrialOutcome] = []
    for spec in specs:
        summary = summaries[
            (
                spec.secret,
                spec.seed if stream_dep else 0,
                tuple(spec.reference_accesses),
            )
        ]
        if summary is None:
            # Ejected / failed lane: the cold path is authoritative.
            outcomes.append(run_trial_outcome(spec, plan=None))
            continue
        if summary.secret != spec.secret or summary.seed != spec.seed:
            summary = replace(summary, secret=spec.secret, seed=spec.seed)
        outcomes.append(
            TrialOutcome(
                digest=spec.digest(),
                victim=spec.victim,
                scheme=spec.scheme,
                secret=spec.secret,
                seed=spec.seed,
                status=TrialStatus.OK,
                attempts=1,
                summary=summary,
            )
        )
    return BatchGroupReport(outcomes=outcomes, cohorts=cohort_runs)


def _run_cohort(
    secret: int, lane_specs: List[TrialSpec], with_traces: bool
) -> CohortRun:
    from repro.core.harness import (
        ATTACKER_CORE,
        finish_victim_trial,
        first_access_cycles,
    )
    from repro.runner.runner import begin_trial_spec, summarize_trial
    from repro.system.stats import compose_metrics
    from repro.trace.events import STAGE_KINDS

    leader_spec = lane_specs[0]
    setup = begin_trial_spec(
        leader_spec, tracer=Tracer() if with_traces else None
    )
    machine = setup.machine
    hierarchy = machine.hierarchy
    # All lanes start from the leader's prepared state: within a cohort
    # the memory image (and secret) are identical, and every lane shares
    # the leader's seed whenever the seed matters (stream-dependent
    # groups cohort per seed; stream-inert seeds are relabeled).
    mirror = LockstepMirror(
        machine,
        hierarchy.capture(),
        [spec.reference_accesses for spec in lane_specs],
        attacker_core=ATTACKER_CORE,
        tracer=machine.tracer if with_traces else None,
    )
    hierarchy.observer = mirror
    hierarchy.llc.observer = mirror
    try:
        result = finish_victim_trial(setup)
    finally:
        hierarchy.observer = None
        hierarchy.llc.observer = None
    mirror.finish()

    # Summary windows close when the victim halts: slice them *before*
    # the probe phase appends its own visible accesses.
    windows = {
        k: tuple(lane.visible_log[setup.log_start :]) for k, lane in mirror.live()
    }
    probe_latencies: Dict[int, Tuple[int, ...]] = {}
    if leader_spec.probe_accesses:
        probe_latencies = mirror.run_probe(leader_spec.probe_accesses)

    leader = summarize_trial(
        leader_spec, setup.spec, result, probe_latencies=probe_latencies.get(0)
    )
    summaries: Dict[int, TrialSummary] = {0: leader}
    stage_events = None
    if leader_spec.collect_metrics:
        stage = frozenset(STAGE_KINDS)
        stage_events = [e for e in machine.tracer.events if e.kind in stage]
    for k, lane in mirror.live()[1:]:
        spec = lane_specs[k]
        metrics = None
        if spec.collect_metrics:
            # Core, LSU and MSHR counters and the stage histograms are
            # the leader's: converged lanes saw bit-identical answers,
            # so the victim pipeline evolved identically.
            metrics = compose_metrics(
                cycles=machine.cycle,
                cores=[core for _, core in sorted(machine.cores.items())],
                hierarchy=lane,
                events=stage_events,
            ).to_json()
        summaries[k] = replace(
            leader,
            seed=spec.seed,
            access_cycle=first_access_cycles(
                setup.spec, spec.reference_accesses, spec.extra_lines, windows[k]
            ),
            visible=windows[k],
            metrics=metrics,
            probe_latencies=probe_latencies.get(k),
        )
    traces: Optional[Dict[int, List[TraceEvent]]] = None
    if with_traces:
        traces = {k: mirror.lane_trace(k) for k, _ in mirror.live()}
    return CohortRun(
        secret=secret,
        lane_specs=lane_specs,
        summaries=summaries,
        traces=traces,
        diverged=dict(mirror.diverged),
    )
