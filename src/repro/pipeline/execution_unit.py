"""Execution units and the common data bus.

Each port owns one unit.  Pipelined units accept one new operation per
cycle regardless of in-flight work; the non-pipelined unit (port 0 by
default) is busy for the entire latency of the operation it holds —
this occupancy is the contention channel of the GDNPEU gadget (§3.2.2).

Each unit keeps ``next_finish``, the earliest finish cycle of its
in-flight work (``None`` when idle), current on issue, drain, abort and
squash.  The core's writeback drains only the units due by the current
cycle and charges every other busy unit its ``busy_cycles`` tick
inline, so a cycle costs work per due completion, not per unit.

Results that finish execution enter the CDB queue and are broadcast
oldest-first, at most ``cdb_width`` per cycle; dependents observe a
result strictly after its broadcast cycle (one-cycle wakeup delay).
Under ``age`` arbitration the queue is kept in seq order as results
enter it, so a broadcast takes its head without sorting.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from operator import attrgetter
from typing import List, Optional

from repro.pipeline.config import PortConfig
from repro.pipeline.dyninstr import DynInstr
from repro.trace.events import EventKind


@dataclass(slots=True)
class _InFlight:
    instr: DynInstr
    finish_cycle: int


class ExecutionUnit:
    """One execution unit behind one issue port."""

    def __init__(self, port_index: int, config: PortConfig) -> None:
        self.port_index = port_index
        self.config = config
        self._in_flight: List[_InFlight] = []
        #: Earliest in-flight finish cycle; None when idle.
        self.next_finish: Optional[int] = None
        self._accepted_this_cycle: Optional[int] = None
        self.issues = 0
        self.busy_cycles = 0
        #: Optional :class:`repro.trace.Tracer`.  None = tracing off.
        self.tracer = None

    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        return bool(self._in_flight)

    def can_accept(self, cycle: int) -> bool:
        if self._accepted_this_cycle == cycle:
            return False  # one issue per port per cycle
        if self.config.pipelined:
            return True
        return not self._in_flight

    def issue(self, instr: DynInstr, cycle: int, latency: int) -> int:
        if not self.can_accept(cycle):
            raise RuntimeError(f"port {self.port_index} cannot accept at {cycle}")
        finish = cycle + latency
        self._in_flight.append(_InFlight(instr, finish))
        if self.next_finish is None or finish < self.next_finish:
            self.next_finish = finish
        self._accepted_this_cycle = cycle
        self.issues += 1
        return finish

    def _set_in_flight(self, in_flight: List[_InFlight]) -> None:
        self._in_flight = in_flight
        self.next_finish = (
            min(op.finish_cycle for op in in_flight) if in_flight else None
        )

    def note_skipped_cycles(self, count: int) -> None:
        """Account ``count`` fast-forwarded cycles: ``drain_finished``
        would have found nothing to drain and charged ``busy_cycles``
        once per cycle while work is in flight."""
        if self._in_flight:
            self.busy_cycles += count

    def current_occupant(self) -> Optional[DynInstr]:
        """The op occupying a non-pipelined unit (None when idle)."""
        if self.config.pipelined or not self._in_flight:
            return None
        return self._in_flight[0].instr

    def drain_finished(self, cycle: int) -> List[DynInstr]:
        """Ops whose execution finished by ``cycle`` (removed here), and
        this cycle's ``busy_cycles`` tick when work stays in flight.
        The core calls it only when ``next_finish <= cycle``."""
        done = [op for op in self._in_flight if op.finish_cycle <= cycle]
        if done:
            self._set_in_flight(
                [op for op in self._in_flight if op.finish_cycle > cycle]
            )
        if self._in_flight:
            self.busy_cycles += 1
        drained = [op.instr for op in sorted(done, key=lambda o: o.instr.seq)]
        tracer = self.tracer
        if tracer is not None:
            for instr in drained:
                tracer.emit(
                    EventKind.EXECUTE,
                    cycle=cycle,
                    seq=instr.seq,
                    instr=instr.name,
                    port=self.port_index,
                )
        return drained

    def abort(self, instr: DynInstr) -> bool:
        """Kick an op off the unit (squash, or §5.4 'squashable EU')."""
        for op in self._in_flight:
            if op.instr.seq == instr.seq:
                self._set_in_flight([o for o in self._in_flight if o is not op])
                return True
        return False

    def squash_younger_than(self, seq: int) -> List[DynInstr]:
        victims = [op.instr for op in self._in_flight if op.instr.seq > seq]
        if victims:
            self._set_in_flight(
                [op for op in self._in_flight if op.instr.seq <= seq]
            )
        return victims


_SEQ = attrgetter("seq")


class CommonDataBus:
    """Bandwidth-limited result broadcast (Fig. 1's shared CDB).

    Arbitration policies:

    * ``"age"`` (default) — oldest instruction first.  This is exactly
      the paper's advanced-defense rule 2 for a perfectly shared,
      pipelined resource (§5.4): a younger instruction can never delay
      an older one at the bus.
    * ``"port"`` — fixed priority by producing port index (lower wins),
      as in simple hardware grant chains.  Under this policy a stream of
      younger mis-speculated results from a high-priority port starves
      older results — the CDB interference vector sketched in Figure 1.
    """

    def __init__(self, width: int, *, arbitration: str = "age") -> None:
        if width < 1:
            raise ValueError("CDB width must be >= 1")
        if arbitration not in ("age", "port"):
            raise ValueError("arbitration must be 'age' or 'port'")
        self.width = width
        self.arbitration = arbitration
        self._queue: List[DynInstr] = []
        self.broadcasts = 0
        self.stall_cycles = 0
        #: Optional :class:`repro.trace.Tracer` (cycle comes from its
        #: context, stamped by Core.step).  None = tracing off.
        self.tracer = None

    def __len__(self) -> int:
        return len(self._queue)

    def enqueue(self, instr: DynInstr) -> None:
        if self.arbitration == "age":
            bisect.insort(self._queue, instr, key=_SEQ)
        else:
            self._queue.append(instr)

    def broadcast(self) -> List[DynInstr]:
        """Pop up to ``width`` results for this cycle."""
        if not self._queue:
            return []
        if self.arbitration == "port":
            self._queue.sort(key=lambda i: (i.static.port, i.seq))
        granted = self._queue[: self.width]
        self._queue = self._queue[self.width :]
        if self._queue:
            self.stall_cycles += 1
        self.broadcasts += len(granted)
        tracer = self.tracer
        if tracer is not None:
            for slot, instr in enumerate(granted):
                tracer.emit(
                    EventKind.CDB_GRANT,
                    seq=instr.seq,
                    instr=instr.name,
                    slot=slot,
                    port=instr.static.port,
                    waiting=len(self._queue),
                )
        return granted

    def squash_younger_than(self, seq: int) -> List[DynInstr]:
        victims = [i for i in self._queue if i.seq > seq]
        self._queue = [i for i in self._queue if i.seq <= seq]
        return victims
