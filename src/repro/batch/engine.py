"""Lockstep batched execution of one sweep group.

One *cohort* = the specs of a batch group that share a secret value.
The engine runs a single scalar **leader** machine per cohort (the
first spec's trial, bit-for-bit the cold path) and mirrors every
memory-system operation the leader performs onto N *follower* lanes
held as numpy structure-of-arrays (:class:`~repro.batch.state.
BatchState`).  Follower lanes differ from the leader only in their
attacker reference-access schedules (§3.3 "clock" reads), which the
mirror injects into each lane's arrays at the cycle they would fire.

Soundness rests on comparison, not assumption:

* every mirrored operation's per-lane outcome (latency, hit level,
  value, LLC reachability, boolean probes) is compared against the
  leader's *real* result; a follower whose memory state would have
  answered differently is **ejected** — its spec re-runs cold, so
  correctness never depends on lanes staying converged;
* the leader lane itself is mirrored and compared op-by-op, and its
  final SoA state must reproduce ``hierarchy.capture()`` exactly —
  any drift raises :class:`BatchMirrorError` and the whole group
  falls back to the snapshot-fork / cold layers.

With tracing enabled (differential tests), the engine reconstructs a
full per-lane event trace from the leader's trace: each mirrored
operation's event span is replaced by the lane's own mirrored events,
and the lane's injected reference accesses are spliced in at their
firing cycles.
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.batch._numpy import np, require_numpy
from repro.batch.ops import (
    cache_access,
    cache_contains,
    cache_fill,
    cache_invalidate,
    cache_touch,
    stream_jitter_draws,
)
from repro.batch.state import BatchState
from repro.memory.coherence import CoherenceState
from repro.memory.hierarchy import AccessKind, VisibleAccess
from repro.runner.spec import TrialOutcome, TrialSpec, TrialStatus, TrialSummary
from repro.trace.events import CACHE_KINDS, EventKind, TraceEvent

_CACHE_KIND_SET = frozenset(CACHE_KINDS)

# Identity aliases: the mirrors compare/install the same enum objects
# the scalar directory does.
_MODIFIED = CoherenceState.MODIFIED
_EXCLUSIVE = CoherenceState.EXCLUSIVE
_SHARED = CoherenceState.SHARED


class BatchMirrorError(RuntimeError):
    """The lockstep mirror lost bit-equivalence with the scalar leader
    (a mirror bug, never a lane divergence — those eject silently)."""


class _LaneSink:
    """Per-lane event recorder used by the vectorized cache ops."""

    __slots__ = ("kinds", "cycle", "core", "buffers")

    def __init__(self, kinds: Optional[frozenset]) -> None:
        self.kinds = kinds
        self.cycle = 0
        self.core: Optional[int] = None
        self.buffers: Dict[int, List[TraceEvent]] = {}

    def emit(self, lane: int, kind: EventKind, **args: Any) -> None:
        if self.kinds is not None and kind not in self.kinds:
            return
        self.buffers.setdefault(lane, []).append(
            TraceEvent(
                cycle=self.cycle,
                kind=kind,
                core=self.core,
                args=tuple(sorted(args.items())) if args else (),
            )
        )


class LockstepMirror:
    """Observer driving N follower lanes off one scalar leader run.

    Installed as ``hierarchy.observer`` (and ``llc.observer`` for the
    direct presence checks some schemes make) for the duration of the
    leader's ``machine.run``.
    """

    def __init__(
        self,
        machine: Any,
        state: BatchState,
        lane_refs: Sequence[Sequence[Tuple[int, int]]],
        *,
        attacker_core: int,
        leader_lane: int = 0,
    ) -> None:
        require_numpy()
        self.machine = machine
        self.h = machine.hierarchy
        self.state = state
        self.attacker_core = attacker_core
        self.leader_lane = leader_lane
        self.line_addr = self.h.llc.layout.line_addr
        self.has_coherence = self.h.coherence is not None
        self.inclusive = self.h.llc.on_evict is not None
        self.active: Any = np.ones(state.n_lanes, dtype=bool)
        self.diverged: Dict[int, str] = {}
        self.finished = False
        #: Per-lane pending reference accesses, sorted by
        #: (at_cycle, schedule index) — the machine's scheduled-action
        #: heap pops in exactly this order.  A ref with at_cycle <= 0
        #: fires on the first step, i.e. at cycle max(at_cycle, 1).
        self.pending: List[deque] = []
        for lane, refs in enumerate(lane_refs):
            items = sorted(
                (int(at), idx, int(addr))
                for idx, (addr, at) in enumerate(refs)
            )
            self.pending.append(deque(items))
        #: Mirrored leader reference accesses awaiting their real
        #: counterpart (the observed attacker-core op), FIFO.
        self._leader_checks: deque = deque()
        self._lanes_arr: Optional[Any] = None
        # -- trace reconstruction (leader tracer only) ------------------
        self.tracer = machine.tracer
        self._sink = _LaneSink(
            self.tracer._kinds if self.tracer is not None else None
        )
        self._seen = len(self.tracer.events) if self.tracer is not None else 0
        #: (span_start, span_len, {lane: events}) per mirrored op, in
        #: leader-event order.  The span is the op's own trailing run of
        #: cache-kind events; followers substitute their mirrored run.
        self.op_records: List[Tuple[int, int, Dict[int, List[TraceEvent]]]] = []
        #: (firing_cycle, schedule_idx, lane, events) per injected
        #: follower reference access, spliced in at finalize.
        self.ref_records: List[Tuple[int, int, int, List[TraceEvent]]] = []

    # ------------------------------------------------------------------
    # lane bookkeeping
    # ------------------------------------------------------------------
    def _lanes(self) -> Any:
        if self._lanes_arr is None:
            self._lanes_arr = np.nonzero(self.active)[0]
        return self._lanes_arr

    def _eject(self, lane: int, reason: str) -> None:
        if lane == self.leader_lane:
            raise BatchMirrorError("leader lane diverged: " + reason)
        self.active[lane] = False
        self.diverged[lane] = reason
        self.pending[lane].clear()
        self._lanes_arr = None

    # ------------------------------------------------------------------
    # reference-access injection
    # ------------------------------------------------------------------
    def _inject_due(self, limit: Optional[int] = None) -> None:
        """Fire every pending reference access whose firing cycle has
        been reached (called before every mirrored op, so injected state
        is in place no matter how far the machine fast-forwarded)."""
        cyc = self.machine.cycle if limit is None else limit
        for lane in self._lanes().tolist():
            q = self.pending[lane]
            while q and max(q[0][0], 1) <= cyc:
                at, idx, addr = q.popleft()
                self._inject_one(lane, addr, max(at, 1), idx)

    def _inject_one(
        self, lane: int, addr: int, firing_cycle: int, idx: int
    ) -> None:
        sink = None
        if self.tracer is not None:
            sink = self._sink
            sink.cycle = firing_cycle
            sink.core = self.attacker_core
            sink.buffers = {}
        lanes = np.array([lane], dtype=np.int64)
        latency, levels, values, reached = self._mirror_access(
            lanes,
            self.attacker_core,
            addr,
            AccessKind.DATA,
            True,
            firing_cycle,
            sink,
        )
        if lane == self.leader_lane:
            # The real scheduled read fires in the same cycle; its
            # observer callback consumes and checks this mirror.
            self._leader_checks.append(
                (addr, int(latency[0]), levels[0], values[0], reached[0])
            )
        elif sink is not None:
            self.ref_records.append(
                (firing_cycle, idx, lane, sink.buffers.get(lane, []))
            )

    def _consume_leader_check(self, addr: int, result: Any) -> None:
        if not self._leader_checks:
            raise BatchMirrorError(
                f"unexpected attacker-core access addr={addr:#x} "
                "(no pending leader reference mirror)"
            )
        raddr, latency, level, value, reached = self._leader_checks.popleft()
        if (
            raddr != addr
            or latency != result.latency
            or level != result.hit_level
            or value != result.value
            or reached != result.reached_llc
        ):
            raise BatchMirrorError(
                f"leader reference mirror mismatch at addr={addr:#x}: "
                f"mirrored ({raddr:#x},{latency},{level},{value},{reached})"
                f" != real ({result.latency},{result.hit_level},"
                f"{result.value},{result.reached_llc})"
            )

    # ------------------------------------------------------------------
    # event-span bookkeeping
    # ------------------------------------------------------------------
    def _open_sink(self) -> Optional[_LaneSink]:
        if self.tracer is None:
            return None
        sink = self._sink
        sink.cycle = self.tracer.cycle
        sink.core = self.tracer.core
        sink.buffers = {}
        return sink

    def _record_span(
        self, buffers: Optional[Dict[int, List[TraceEvent]]]
    ) -> None:
        """Mark the just-observed op's events (the trailing maximal run
        of cache-kind events since the previous op — only hooked
        hierarchy ops emit cache kinds) and the per-lane substitutes."""
        if self.tracer is None:
            return
        events = self.tracer.events
        cur = len(events)
        split = cur
        while split > self._seen and events[split - 1].kind in _CACHE_KIND_SET:
            split -= 1
        self.op_records.append((split, cur - split, buffers or {}))
        self._seen = cur

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
        self._inject_due()
        if core == self.attacker_core:
            # The leader's own scheduled reference access: its mirror
            # was applied at injection; strip its events from follower
            # traces (their own refs are spliced in separately).
            self._consume_leader_check(addr, result)
            self._record_span(None)
            return
        lanes = self._lanes()
        sink = self._open_sink()
        latency, levels, values, reached = self._mirror_access(
            lanes, core, addr, kind, visible, cycle, sink
        )
        self._record_span(sink.buffers if sink is not None else None)
        self._compare_result(
            "access", lanes, addr, result, latency, levels, values, reached
        )

    def on_write(
        self, core: int, addr: int, value: int, cycle: int, result: Any
    ) -> None:
        self._inject_due()
        if core == self.attacker_core:
            raise BatchMirrorError(
                "attacker-core write observed; batch groups only "
                "schedule attacker reads"
            )
        lanes = self._lanes()
        sink = self._open_sink()
        latency, levels, values, reached = self._mirror_write(
            lanes, core, addr, value, cycle, sink
        )
        self._record_span(sink.buffers if sink is not None else None)
        self._compare_result(
            "write", lanes, addr, result, latency, levels, values, reached
        )

    def on_l1_hit(
        self, core: int, addr: int, kind: AccessKind, hit: bool
    ) -> None:
        self._inject_due()
        if core == self.attacker_core:
            return
        lanes = self._lanes()
        line = self.line_addr(addr)
        mine = cache_contains(self._l1(core, kind), lanes, line)
        self._compare_bool("l1_hit", lanes, addr, hit, mine)

    def on_hit_level(
        self, core: int, addr: int, kind: AccessKind, level: str
    ) -> None:
        self._inject_due()
        if core == self.attacker_core:
            return
        lanes = self._lanes()
        line = self.line_addr(addr)
        in1 = cache_contains(self._l1(core, kind), lanes, line)
        in2 = cache_contains(self.state.caches[3 * core + 2], lanes, line)
        in3 = cache_contains(self.state.caches[-1], lanes, line)
        for j, lane in enumerate(lanes.tolist()):
            mine = (
                "L1"
                if in1[j]
                else "L2" if in2[j] else "LLC" if in3[j] else "DRAM"
            )
            if mine != level:
                self._eject(
                    lane,
                    f"hit_level addr={addr:#x}: lane sees {mine}, "
                    f"leader saw {level}",
                )

    def on_touch_l1(
        self, core: int, addr: int, kind: AccessKind, touched: bool
    ) -> None:
        self._inject_due()
        if core == self.attacker_core:
            return
        lanes = self._lanes()
        line = self.line_addr(addr)
        mine = cache_touch(self._l1(core, kind), lanes, line)
        self._compare_bool("touch_l1", lanes, addr, touched, mine)

    def on_contains(self, cache: Any, addr: int, present: bool) -> None:
        """Direct LLC presence probe (CleanupSpec et al.)."""
        self._inject_due()
        lanes = self._lanes()
        line = self.line_addr(addr)
        mine = cache_contains(self.state.caches[-1], lanes, line)
        self._compare_bool("llc.contains", lanes, addr, present, mine)

    def on_flush(self, addr: int) -> None:
        self._inject_due()
        lanes = self._lanes()
        sink = self._open_sink()
        self._mirror_flush(lanes, addr, sink)
        self._record_span(sink.buffers if sink is not None else None)

    # ------------------------------------------------------------------
    # comparisons
    # ------------------------------------------------------------------
    def _compare_result(
        self,
        op: str,
        lanes: Any,
        addr: int,
        result: Any,
        latency: Any,
        levels: List[str],
        values: List[int],
        reached: List[bool],
    ) -> None:
        for j, lane in enumerate(lanes.tolist()):
            if (
                int(latency[j]) == result.latency
                and levels[j] == result.hit_level
                and values[j] == result.value
                and reached[j] == result.reached_llc
            ):
                continue
            self._eject(
                lane,
                f"{op} addr={addr:#x}: lane "
                f"({int(latency[j])},{levels[j]},{values[j]},{reached[j]})"
                f" != leader ({result.latency},{result.hit_level},"
                f"{result.value},{result.reached_llc})",
            )

    def _compare_bool(
        self, op: str, lanes: Any, addr: int, real: bool, mine: Any
    ) -> None:
        for j, lane in enumerate(lanes.tolist()):
            if bool(mine[j]) != real:
                self._eject(
                    lane,
                    f"{op} addr={addr:#x}: lane sees {bool(mine[j])}, "
                    f"leader saw {real}",
                )

    # ------------------------------------------------------------------
    # hierarchy-op mirrors (exact repro.memory.hierarchy translations)
    # ------------------------------------------------------------------
    def _l1(self, core: int, kind: AccessKind) -> Any:
        return self.state.caches[
            3 * core + (0 if kind is AccessKind.INST else 1)
        ]

    def _mirror_access(
        self,
        lanes: Any,
        core: int,
        addr: int,
        kind: AccessKind,
        visible: bool,
        cycle: int,
        sink: Optional[_LaneSink],
    ) -> Tuple[Any, List[str], List[int], List[bool]]:
        st = self.state
        cfg = st.config
        line = self.line_addr(addr)
        l1 = self._l1(core, kind)
        l2 = st.caches[3 * core + 2]
        llc = st.caches[-1]
        n = len(lanes)
        st.mem_reads[lanes] += 1
        values = [st.mem_data[lane].get(addr, 0) for lane in lanes.tolist()]
        base = (
            cfg.l1i.latency if kind is AccessKind.INST else cfg.l1d.latency
        )
        latency = np.full(n, base, dtype=np.int64)
        levels = ["DRAM"] * n
        reached = [False] * n
        if visible and kind is AccessKind.DATA and self.has_coherence:
            for j, lane in enumerate(lanes.tolist()):
                latency[j] += self._coh_on_read(lane, core, line)
        pos = np.arange(n)
        hit1 = cache_access(l1, lanes, line, visible, sink)
        for p in pos[hit1].tolist():
            levels[p] = "L1"
        restp = pos[~hit1]
        if not restp.size:
            return latency, levels, values, reached
        latency[restp] += cfg.l2.latency
        hit2 = cache_access(l2, lanes[restp], line, visible, sink)
        hitp = restp[hit2]
        if hitp.size:
            if visible:
                cache_fill(l1, lanes[hitp], line, True, sink)
            for p in hitp.tolist():
                levels[p] = "L2"
        restp = restp[~hit2]
        if not restp.size:
            return latency, levels, values, reached
        latency[restp] += cfg.llc.latency
        sub = lanes[restp]
        llc_hit = cache_access(llc, sub, line, visible, sink)
        if visible:
            for j, lane in enumerate(sub.tolist()):
                st.visible_log[lane].append(
                    VisibleAccess(
                        cycle=cycle,
                        line=line,
                        kind=kind,
                        core=core,
                        hit=bool(llc_hit[j]),
                    )
                )
        for p in restp.tolist():
            reached[p] = True
        hitp = restp[llc_hit]
        if hitp.size:
            if visible:
                cache_fill(l2, lanes[hitp], line, True, sink)
                cache_fill(l1, lanes[hitp], line, True, sink)
            for p in hitp.tolist():
                levels[p] = "LLC"
        missp = restp[~llc_hit]
        if missp.size:
            latency[missp] += cfg.dram_latency
            if cfg.dram_jitter > 0:
                # Per-lane counter-stream jitter, exactly what the
                # scalar CounterStream draws for a DRAM-reaching access
                # keyed (seed, cycle, core, seq) — lanes whose cache
                # state keeps them off DRAM simply do not draw.
                latency[missp] += stream_jitter_draws(
                    st, lanes[missp], cycle, core, cfg.dram_jitter
                )
            if visible:
                miss_lanes = lanes[missp]
                evicted = cache_fill(llc, miss_lanes, line, True, sink)
                if self.inclusive:
                    for j, lane in enumerate(miss_lanes.tolist()):
                        if evicted[j] != -1:
                            self._back_invalidate_lane(
                                lane, int(evicted[j]), sink
                            )
                cache_fill(l2, miss_lanes, line, True, sink)
                cache_fill(l1, miss_lanes, line, True, sink)
        return latency, levels, values, reached

    def _mirror_write(
        self,
        lanes: Any,
        core: int,
        addr: int,
        value: int,
        cycle: int,
        sink: Optional[_LaneSink],
    ) -> Tuple[Any, List[str], List[int], List[bool]]:
        st = self.state
        line = self.line_addr(addr)
        for lane in lanes.tolist():
            st.mem_data[lane][addr] = value
        st.mem_writes[lanes] += 1
        penalties = np.zeros(len(lanes), dtype=np.int64)
        if self.has_coherence:
            for j, lane in enumerate(lanes.tolist()):
                invalidated, penalty = self._coh_on_write(lane, core, line)
                penalties[j] = penalty
                one = lanes[j : j + 1]
                for other in invalidated:
                    cache_invalidate(
                        st.caches[3 * other + 1], one, line, sink
                    )
                    cache_invalidate(
                        st.caches[3 * other + 2], one, line, sink
                    )
        latency, levels, values, reached = self._mirror_access(
            lanes, core, addr, AccessKind.DATA, True, cycle, sink
        )
        latency += penalties
        return latency, levels, values, reached

    def _mirror_flush(
        self, lanes: Any, addr: int, sink: Optional[_LaneSink]
    ) -> None:
        st = self.state
        line = self.line_addr(addr)
        for core in range(st.num_cores):
            cache_invalidate(st.caches[3 * core], lanes, line, sink)
            cache_invalidate(st.caches[3 * core + 1], lanes, line, sink)
            cache_invalidate(st.caches[3 * core + 2], lanes, line, sink)
        cache_invalidate(st.caches[-1], lanes, line, sink)
        if self.has_coherence:
            for lane in lanes.tolist():
                sharers = st.coherence[lane]
                assert sharers is not None
                sharers.pop(line, None)

    def _back_invalidate_lane(
        self, lane: int, line: int, sink: Optional[_LaneSink]
    ) -> None:
        st = self.state
        one = np.array([lane], dtype=np.int64)
        for core in range(st.num_cores):
            cache_invalidate(st.caches[3 * core], one, line, sink)
            cache_invalidate(st.caches[3 * core + 1], one, line, sink)
            cache_invalidate(st.caches[3 * core + 2], one, line, sink)
            if self.has_coherence:
                sharers = st.coherence[lane]
                assert sharers is not None
                entry = sharers.get(line)
                if entry is not None:
                    entry.pop(core, None)
                    if not entry:
                        del sharers[line]

    # -- coherence mirrors (exact CoherenceDirectory translations) -----
    def _coh_on_read(self, lane: int, core: int, line: int) -> int:
        st = self.state
        sharers = st.coherence[lane]
        assert sharers is not None
        entry = sharers.setdefault(line, {})
        penalty = 0
        owner = next(
            (c for c, s in entry.items() if s.value == "M"), None
        )
        if owner is not None and owner != core:
            entry[owner] = _SHARED
            penalty = self.h.coherence.writeback_penalty
            st.coh_stats[lane, 1] += 1
            st.coh_stats[lane, 3] += 1
        if core not in entry:
            others = [c for c in entry if c != core]
            entry[core] = _SHARED if others else _EXCLUSIVE
            for other in others:
                if entry[other] is _EXCLUSIVE:
                    entry[other] = _SHARED
        return penalty

    def _coh_on_write(
        self, lane: int, core: int, line: int
    ) -> Tuple[List[int], int]:
        st = self.state
        sharers = st.coherence[lane]
        assert sharers is not None
        entry = sharers.setdefault(line, {})
        penalty = 0
        owner = next(
            (c for c, s in entry.items() if s.value == "M"), None
        )
        if owner is not None and owner != core:
            penalty = self.h.coherence.writeback_penalty
            st.coh_stats[lane, 3] += 1
        invalidated = [c for c in entry if c != core]
        for other in invalidated:
            del entry[other]
            st.coh_stats[lane, 0] += 1
        if entry.get(core) is not _MODIFIED:
            st.coh_stats[lane, 2] += 1
        entry[core] = _MODIFIED
        return invalidated, penalty

    # ------------------------------------------------------------------
    # finish: flush trailing refs, verify the leader mirror exactly
    # ------------------------------------------------------------------
    def finish(self) -> None:
        horizon = self.machine.cycle
        self._inject_due(limit=horizon)
        for lane in self._lanes().tolist():
            # Refs scheduled past the halt cycle never fire in a real
            # run either (the machine stops stepping).
            self.pending[lane].clear()
        if self._leader_checks:
            raise BatchMirrorError(
                f"{len(self._leader_checks)} mirrored leader reference "
                "access(es) were never observed on the real machine"
            )
        # MSHR traffic is victim-driven and identical across converged
        # lanes; adopt the leader's final capture for every live lane.
        final_mshrs = tuple(m.capture() for m in self.h.l1d_mshrs)
        for lane in self._lanes().tolist():
            self.state.mshrs[lane] = final_mshrs
        expected = self.h.capture()
        if self.state.to_snapshot(self.leader_lane) != expected:
            raise BatchMirrorError(
                "leader lane SoA state drifted from the scalar "
                "hierarchy capture (mirror bug)"
            )
        self.finished = True

    # ------------------------------------------------------------------
    # batched probe phase
    # ------------------------------------------------------------------
    def run_probe(
        self, probe_accesses: Sequence[int]
    ) -> Dict[int, Tuple[int, ...]]:
        """Run the attacker probe phase scalar-on-the-leader and
        vectorized across every live lane; returns lane -> latencies.

        Call after :meth:`finish` with the observers uninstalled: the
        scalar witness run below must not re-enter the mirror's
        callbacks.  The leader lane's vectorized latencies are checked
        against the scalar witness per address, and the leader's SoA
        state must still reproduce ``hierarchy.capture()`` afterwards —
        either mismatch raises :class:`BatchMirrorError`.
        """
        from repro.core.harness import run_probe_phase

        if not self.finished:
            raise BatchMirrorError("run_probe requires finish() first")
        if self.h.observer is not None or self.h.llc.observer is not None:
            raise BatchMirrorError(
                "run_probe requires the mirror observers uninstalled"
            )
        witness = run_probe_phase(
            self.machine, probe_accesses, core=self.attacker_core
        )
        lanes = self._lanes()
        cycle = self.machine.cycle
        core = self.attacker_core
        st = self.state
        sink = self._open_sink()
        per_lane: Dict[int, List[int]] = {
            lane: [] for lane in lanes.tolist()
        }
        leader_pos = int(np.nonzero(lanes == self.leader_lane)[0][0])
        for i, addr in enumerate(probe_accesses):
            line = self.line_addr(addr)
            # Same eviction order as AttackerAgent.evict_own_copy /
            # run_probe_phase: the attacker's own L1D, L1I, L2.
            cache_invalidate(st.caches[3 * core + 1], lanes, line, sink)
            cache_invalidate(st.caches[3 * core], lanes, line, sink)
            cache_invalidate(st.caches[3 * core + 2], lanes, line, sink)
            latency, _, _, _ = self._mirror_access(
                lanes, core, addr, AccessKind.DATA, True, cycle, sink
            )
            if int(latency[leader_pos]) != witness[i]:
                raise BatchMirrorError(
                    f"probe mirror mismatch at addr={addr:#x}: leader "
                    f"lane measured {int(latency[leader_pos])}, scalar "
                    f"witness {witness[i]}"
                )
            for j, lane in enumerate(lanes.tolist()):
                per_lane[lane].append(int(latency[j]))
        # One span for the whole probe: the scalar probe's events are a
        # single trailing run of cache kinds, substituted per lane.
        self._record_span(sink.buffers if sink is not None else None)
        if self.state.to_snapshot(self.leader_lane) != self.h.capture():
            raise BatchMirrorError(
                "leader lane SoA state drifted across the probe phase "
                "(mirror bug)"
            )
        return {lane: tuple(lats) for lane, lats in per_lane.items()}

    # ------------------------------------------------------------------
    # per-lane trace reconstruction
    # ------------------------------------------------------------------
    def lane_trace(self, lane: int) -> List[TraceEvent]:
        """The lane's full event trace, reconstructed from the leader's:
        op spans substituted per lane, injected refs spliced in at the
        first event at-or-after their firing cycle."""
        if self.tracer is None:
            raise BatchMirrorError("lane_trace requires a leader tracer")
        events = self.tracer.events
        if lane == self.leader_lane:
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


def run_batch_group(
    specs: Sequence[TrialSpec],
) -> Optional[List[TrialOutcome]]:
    """Execute one batch group; outcomes align with ``specs``.

    Returns None when the group cannot be batched at all (mirror bug,
    setup failure) — the caller falls back to the fork/cold layers.
    Per-lane divergences never fail the group: the diverged spec is
    re-run cold inside, exactly like a failed fork variant.
    """
    try:
        return run_batch_group_detailed(list(specs)).outcomes
    except KeyboardInterrupt:
        raise
    except Exception:
        return None


def run_batch_group_detailed(
    specs: Sequence[TrialSpec], *, with_traces: bool = False
) -> BatchGroupReport:
    """As :func:`run_batch_group`, but returning per-cohort diagnostics
    (ejections, per-lane traces) and raising on group-level failures."""
    from repro.batch.plan import stream_dependent
    from repro.core.victims import victim_by_name
    from repro.runner.runner import run_trial_outcome

    specs = list(specs)
    victim = victim_by_name(specs[0].victim, **dict(specs[0].victim_kwargs))
    # One lane per distinct reference schedule.  Stream-inert groups
    # (no jitter, no noise) cohort per secret: seed does not affect the
    # trial, so seed-only variants share a lane and are relabeled below,
    # exactly like fork does.  Stream-dependent groups cohort per
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
            run = _run_cohort(victim, secret, lane_specs, with_traces)
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


def _lane_metrics(
    machine: Any,
    state: BatchState,
    lane: int,
    horizon: int,
    stage_events: Optional[List[TraceEvent]],
) -> Dict[str, Any]:
    """Project one follower lane's metrics registry.

    Core pipeline / LSU / MSHR counters and the stage histograms are
    the leader's: converged lanes saw bit-identical per-op results, so
    the victim pipeline evolved identically.  Cache rows, DRAM traffic
    and the visible-access count come from the lane's own SoA counters.
    Built through :func:`repro.system.stats.compose_metrics`, so the
    registry is insertion-order-identical to a cold run's.
    """
    from repro.system.stats import compose_metrics

    cache_rows = []
    for cache in state.caches:
        row = cache.stats[lane]
        cache_rows.append(
            (
                cache.name,
                int(row[0]),
                int(row[1]),
                int(row[2]),
                int(row[3]),
                int(row[4]),
            )
        )
    return compose_metrics(
        cycles=horizon,
        cores=[core for _, core in sorted(machine.cores.items())],
        cache_rows=cache_rows,
        dram_reads=int(state.mem_reads[lane]),
        dram_writes=int(state.mem_writes[lane]),
        visible_accesses=len(state.visible_log[lane]),
        events=stage_events,
    ).to_json()


def _run_cohort(
    victim: Any,
    secret: int,
    lane_specs: List[TrialSpec],
    with_traces: bool,
) -> CohortRun:
    from repro.core.harness import (
        ATTACKER_CORE,
        LINE,
        begin_victim_trial,
        finish_victim_trial,
    )
    from repro.snapshot.fork import _summarize

    leader_spec = lane_specs[0]
    tracer = None
    if with_traces:
        from repro.trace import Tracer

        tracer = Tracer()
    elif leader_spec.collect_metrics:
        # Metrics need the per-stage latency histograms, which come from
        # a stage-filtered trace — exactly what the cold path installs.
        from repro.trace import Tracer
        from repro.trace.events import STAGE_KINDS

        tracer = Tracer(kinds=STAGE_KINDS)
    setup = begin_victim_trial(
        victim,
        leader_spec.scheme,
        leader_spec.secret,
        hierarchy_config=leader_spec.hierarchy_config,
        reference_accesses=leader_spec.reference_accesses,
        noise_rate=leader_spec.noise_rate,
        noise_pool=leader_spec.noise_pool,
        seed=leader_spec.seed,
        max_cycles=leader_spec.max_cycles,
        tracer=tracer,
        extra_lines=leader_spec.extra_lines,
    )
    machine = setup.machine
    hierarchy = machine.hierarchy
    # All lanes start from the leader's prepared state: within a cohort
    # the memory image (and secret) are identical, and every lane shares
    # the leader's seed whenever the seed matters (stream-dependent
    # groups cohort per seed; stream-inert seeds are relabeled).
    state = BatchState.from_snapshot(
        hierarchy, hierarchy.capture(), len(lane_specs)
    )
    mirror = LockstepMirror(
        machine,
        state,
        [spec.reference_accesses for spec in lane_specs],
        attacker_core=ATTACKER_CORE,
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
    windows: Dict[int, Tuple] = {}
    for k in range(1, len(lane_specs)):
        if mirror.active[k]:
            windows[k] = tuple(state.visible_log[k][setup.log_start :])
    probe_latencies: Dict[int, Tuple[int, ...]] = {}
    if leader_spec.probe_accesses:
        probe_latencies = mirror.run_probe(leader_spec.probe_accesses)

    summaries: Dict[int, TrialSummary] = {
        0: _summarize(
            leader_spec,
            victim,
            result,
            probe_latencies=probe_latencies.get(0),
        )
    }
    horizon = machine.cycle
    retired = result.core.stats.retired
    stage_events = None
    if leader_spec.collect_metrics:
        from repro.trace.events import STAGE_KINDS

        stage = frozenset(STAGE_KINDS)
        stage_events = [
            e for e in machine.tracer.events if e.kind in stage
        ]
    for k, spec in enumerate(lane_specs):
        if k == 0 or not mirror.active[k]:
            continue
        window = windows[k]
        monitored = (
            list(victim.monitored_lines())
            + [addr & ~(LINE - 1) for addr, _ in spec.reference_accesses]
            + [line & ~(LINE - 1) for line in spec.extra_lines]
        )
        access_cycle: Dict[int, Optional[int]] = {}
        for line in monitored:
            access_cycle[line] = next(
                (e.cycle for e in window if e.line == line), None
            )
        metrics = None
        if spec.collect_metrics:
            metrics = _lane_metrics(
                machine, state, k, horizon, stage_events
            )
        summaries[k] = TrialSummary(
            victim=spec.victim,
            scheme=result.scheme,
            secret=spec.secret,
            seed=spec.seed,
            cycles=horizon,
            access_cycle=access_cycle,
            visible=tuple(window),
            retired=retired,
            line_a=victim.line_a,
            line_b=victim.line_b,
            metrics=metrics,
            snapshot_path=None,
            probe_latencies=probe_latencies.get(k),
        )
    traces: Optional[Dict[int, List[TraceEvent]]] = None
    if with_traces:
        traces = {
            k: mirror.lane_trace(k)
            for k in range(len(lane_specs))
            if mirror.active[k]
        }
    return CohortRun(
        secret=secret,
        lane_specs=lane_specs,
        summaries=summaries,
        traces=traces,
        diverged=dict(mirror.diverged),
    )
