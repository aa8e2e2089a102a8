"""Execution units and the common data bus.

Each port owns one unit.  Pipelined units accept one new operation per
cycle regardless of in-flight work; the non-pipelined unit (port 0 by
default) is busy for the entire latency of the operation it holds —
this occupancy is the contention channel of the GDNPEU gadget (§3.2.2).

Results that finish execution enter the CDB queue and are broadcast
oldest-first, at most ``cdb_width`` per cycle; dependents observe a
result strictly after its broadcast cycle (one-cycle wakeup delay).
"""

from __future__ import annotations

from dataclasses import dataclass
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
        self._accepted_this_cycle = cycle
        self.issues += 1
        return finish

    def occupied_until(self) -> Optional[int]:
        """Cycle the (non-pipelined) unit frees, or None when idle."""
        if not self._in_flight:
            return None
        return max(op.finish_cycle for op in self._in_flight)

    def earliest_finish(self) -> Optional[int]:
        """Earliest in-flight completion, or None when idle (used by the
        idle-cycle fast-forward to compute the next wake-up event)."""
        if not self._in_flight:
            return None
        return min(op.finish_cycle for op in self._in_flight)

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
        """Ops whose execution finished by ``cycle`` (removed here)."""
        if not self._in_flight:
            return []
        done = [op for op in self._in_flight if op.finish_cycle <= cycle]
        if done:
            self._in_flight = [
                op for op in self._in_flight if op.finish_cycle > cycle
            ]
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
                self._in_flight.remove(op)
                return True
        return False

    def squash_younger_than(self, seq: int) -> List[DynInstr]:
        victims = [op.instr for op in self._in_flight if op.instr.seq > seq]
        self._in_flight = [op for op in self._in_flight if op.instr.seq <= seq]
        return victims


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
        self._queue.append(instr)

    def broadcast(self) -> List[DynInstr]:
        """Pop up to ``width`` results for this cycle."""
        if not self._queue:
            return []
        if self.arbitration == "age":
            self._queue.sort(key=lambda i: i.seq)
        else:
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
