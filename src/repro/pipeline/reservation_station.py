"""Unified reservation station.

Capacity is counted in micro-ops (Kaby Lake's unified RS holds 97).
Entries free their slots at *issue* in the baseline design — the
behaviour the paper's advanced defense rule 1 ("no instruction releases
its hardware resources while speculative", §5.4) changes; the
:class:`~repro.schemes.priority.PriorityDefense` scheme opts into
holding slots until retirement via :attr:`hold_until_nonspec`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Callable, Dict, Iterator, List, Tuple

from repro.pipeline.dyninstr import DynInstr


def _seq(instr: DynInstr) -> int:
    return instr.seq


class ReservationStation:
    """Bounded pool of waiting instructions, scanned oldest-first.

    Waiting entries are kept in seq order as they are inserted.  Dispatch
    inserts in program order, so an insert is an append; the one older
    arrival is an occupant that §5.4 preemption sends back.
    """

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError("RS size must be >= 1")
        self.size = size
        self._entries: List[DynInstr] = []  # kept sorted by seq
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

    @property
    def free_micro_ops(self) -> int:
        return self.size - self._occupied

    def can_accept(self, instr: DynInstr) -> bool:
        return instr.static.micro_ops <= self.free_micro_ops

    def insert(self, instr: DynInstr) -> None:
        if not self.can_accept(instr):
            raise RuntimeError("reservation station overflow")
        entries = self._entries
        if not entries or entries[-1].seq < instr.seq:
            entries.append(instr)
        else:
            insort(entries, instr, key=_seq)
        self._occupied += instr.static.micro_ops
        self.peak_occupancy = max(self.peak_occupancy, self._occupied)

    def remove_on_issue(self, instr: DynInstr, *, hold_slot: bool = False) -> None:
        """Issue ``instr``: leave the waiting pool; optionally keep the
        micro-op slots allocated until :meth:`release_held`."""
        entries = self._entries
        i = bisect_left(entries, instr.seq, key=_seq)
        if i == len(entries) or entries[i] is not instr:
            raise ValueError(f"#{instr.seq} is not waiting in the RS")
        del entries[i]
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
        for entry in squashed:
            self._occupied -= entry.static.micro_ops
        for held_seq in [s for s in self._held if s > seq]:
            self.release_held(held_seq)
        return squashed

    def waiting_sorted(self) -> List[DynInstr]:
        """A copy of the entries, oldest-first (age-ordered scheduling,
        §3.2)."""
        return list(self._entries)

    # -- snapshot -------------------------------------------------------
    SNAP_VERSION = 1
    SNAP_SCHEMA = ("entry_seqs", "occupied", "held", "peak_occupancy")

    def capture(self) -> Tuple:
        return (
            tuple(e.seq for e in self._entries),
            self._occupied,
            tuple(self._held.items()),
            self.peak_occupancy,
        )

    def restore(self, state: Tuple, resolve: Callable[[int], DynInstr]) -> None:
        seqs, occupied, held, peak = state
        self._entries = sorted((resolve(seq) for seq in seqs), key=_seq)
        self._occupied = occupied
        self._held = dict(held)
        self.peak_occupancy = peak
