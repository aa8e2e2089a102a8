"""Unified reservation station.

Capacity is counted in micro-ops (Kaby Lake's unified RS holds 97).
Entries free their slots at *issue* in the baseline design — the
behaviour the paper's advanced defense rule 1 ("no instruction releases
its hardware resources while speculative", §5.4) changes; the
:class:`~repro.schemes.priority.PriorityDefense` scheme opts into
holding slots until retirement via :attr:`hold_until_nonspec`.

The station keeps two seq-ordered lists.  The *waiting* list holds
every entry not yet issued.  The *ready* list is the part of it whose
producers have all broadcast (``pending_sources == 0``): an entry joins
it at insert when rename found every operand, or through
:meth:`wake` when its last producer broadcasts.  The issue stage
walks only the ready list; an entry woken at cycle *c* carries
``ready_cycle`` *c+1*, and issue skips it until then.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Dict, Iterator, List

from repro.pipeline.dyninstr import DynInstr


def _seq(instr: DynInstr) -> int:
    return instr.seq


def _remove(entries: List[DynInstr], instr: DynInstr) -> bool:
    i = bisect_left(entries, instr.seq, key=_seq)
    if i == len(entries) or entries[i] is not instr:
        return False
    del entries[i]
    return True


def _insert(entries: List[DynInstr], instr: DynInstr) -> None:
    if not entries or entries[-1].seq < instr.seq:
        entries.append(instr)
    else:
        insort(entries, instr, key=_seq)


class ReservationStation:
    """Bounded pool of waiting instructions, issued oldest ready first.

    Waiting entries are kept in seq order as they are inserted.  Dispatch
    inserts in program order, so an insert is an append; the one older
    arrival is an occupant that §5.4 preemption sends back, which joins
    the ready list at once because its operands are already captured.
    """

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError("RS size must be >= 1")
        self.size = size
        self._entries: List[DynInstr] = []  # kept sorted by seq
        #: The waiting entries with every producer broadcast, by seq.
        self.ready: List[DynInstr] = []
        self._occupied = 0
        #: Micro-op weights still held by issued-but-speculative entries
        #: (only used when a scheme enables resource holding).
        self._held: Dict[int, int] = {}
        self.peak_occupancy = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[DynInstr]:
        return iter(self._entries)

    @property
    def occupied_micro_ops(self) -> int:
        return self._occupied

    def can_accept(self, instr: DynInstr) -> bool:
        return self._occupied + instr.static.micro_ops <= self.size

    def insert(self, instr: DynInstr) -> None:
        occupied = self._occupied + instr.static.micro_ops
        if occupied > self.size:
            raise RuntimeError("reservation station overflow")
        _insert(self._entries, instr)
        if not instr.pending_sources:
            _insert(self.ready, instr)
        self._occupied = occupied
        if occupied > self.peak_occupancy:
            self.peak_occupancy = occupied

    def wake(self, instr: DynInstr) -> None:
        """Move a waiting entry whose last producer just broadcast onto
        the ready list."""
        _insert(self.ready, instr)

    def remove_on_issue(self, instr: DynInstr, *, hold_slot: bool = False) -> None:
        """Issue ``instr``: leave the waiting pool; optionally keep the
        micro-op slots allocated until :meth:`release_held`."""
        if not _remove(self._entries, instr):
            raise ValueError(f"#{instr.seq} is not waiting in the RS")
        _remove(self.ready, instr)
        if hold_slot:
            self._held[instr.seq] = instr.static.micro_ops
        else:
            self._occupied -= instr.static.micro_ops

    def release_held(self, seq: int) -> None:
        """Free slots held by an issued instruction (retire/safe/squash)."""
        weight = self._held.pop(seq, None)
        if weight is not None:
            self._occupied -= weight

    def squash_younger_than(self, seq: int) -> List[DynInstr]:
        cut = bisect_right(self._entries, seq, key=_seq)
        squashed = self._entries[cut:]
        del self._entries[cut:]
        del self.ready[bisect_right(self.ready, seq, key=_seq):]
        for entry in squashed:
            self._occupied -= entry.static.micro_ops
        for held_seq in [s for s in self._held if s > seq]:
            self.release_held(held_seq)
        return squashed
