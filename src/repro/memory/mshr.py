"""Miss-status holding registers (MSHRs).

One MSHR tracks all outstanding misses to a single cache line; requests
to a line that already has an MSHR coalesce onto it.  The file has a
fixed capacity and — matching the paper's observation that no invisible
speculation scheme changes the allocation policy — allocates to visible
and invisible (speculative) requests alike, in issue order.  That shared
finite capacity is what the GDMSHR interference gadget exhausts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.trace.events import EventKind


class MSHRFullError(RuntimeError):
    """Raised when allocation is attempted on a full MSHR file."""


@dataclass
class MSHREntry:
    __slots__ = ("line_addr", "allocated_at", "consumers")

    line_addr: int
    allocated_at: int
    #: Opaque consumer tokens (pipeline load ids) waiting on this line.
    consumers: Set[int]


class MSHRFile:
    """Fixed-capacity MSHR file with per-line coalescing."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("MSHR file needs at least one entry")
        self.capacity = capacity
        self._entries: Dict[int, MSHREntry] = {}
        self.peak_occupancy = 0
        self.allocations = 0
        self.coalesced = 0
        self.rejections = 0
        #: Optional :class:`repro.trace.Tracer` (cycle/core come from its
        #: context).  None = tracing off.
        self.tracer = None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def has_entry(self, line_addr: int) -> bool:
        return line_addr in self._entries

    def can_allocate(self, line_addr: int) -> bool:
        """A request to ``line_addr`` can proceed (free slot or coalesce)."""
        return line_addr in self._entries or not self.full

    def allocate(self, line_addr: int, consumer: int, *, cycle: int = 0) -> MSHREntry:
        """Allocate (or coalesce onto) an entry for ``line_addr``."""
        entry = self._entries.get(line_addr)
        if entry is not None:
            entry.consumers.add(consumer)
            self.coalesced += 1
            if self.tracer is not None:
                self.tracer.emit(
                    EventKind.MSHR_ALLOC,
                    cycle=cycle,
                    seq=consumer,
                    line=line_addr,
                    coalesced=True,
                    occ=len(self._entries),
                )
            return entry
        if self.full:
            self.rejections += 1
            raise MSHRFullError(
                f"MSHR file full ({self.capacity}) for line {line_addr:#x}"
            )
        entry = MSHREntry(line_addr=line_addr, allocated_at=cycle, consumers={consumer})
        self._entries[line_addr] = entry
        self.allocations += 1
        self.peak_occupancy = max(self.peak_occupancy, len(self._entries))
        if self.tracer is not None:
            self.tracer.emit(
                EventKind.MSHR_ALLOC,
                cycle=cycle,
                seq=consumer,
                line=line_addr,
                coalesced=False,
                occ=len(self._entries),
            )
        return entry

    def release(self, line_addr: int) -> Optional[MSHREntry]:
        """The miss completed: free the entry, returning it (with consumers)."""
        entry = self._entries.pop(line_addr, None)
        if entry is not None and self.tracer is not None:
            self.tracer.emit(
                EventKind.MSHR_RELEASE,
                line=line_addr,
                occ=len(self._entries),
                reason="complete",
            )
        return entry

    def drop_consumer(self, consumer: int) -> List[int]:
        """Remove ``consumer`` everywhere (squash); frees entries whose
        consumer set empties.  Returns the freed line addresses."""
        freed = []
        for line_addr in list(self._entries):
            entry = self._entries[line_addr]
            entry.consumers.discard(consumer)
            if not entry.consumers:
                del self._entries[line_addr]
                freed.append(line_addr)
                if self.tracer is not None:
                    self.tracer.emit(
                        EventKind.MSHR_RELEASE,
                        seq=consumer,
                        line=line_addr,
                        occ=len(self._entries),
                        reason="squash",
                    )
        return freed

    def outstanding_lines(self) -> List[int]:
        return list(self._entries)

    def reset(self) -> None:
        self._entries.clear()

    # -- snapshot -------------------------------------------------------
    def capture(self) -> Tuple:
        return (
            tuple(
                (e.line_addr, e.allocated_at, frozenset(e.consumers))
                for e in self._entries.values()
            ),
            self.peak_occupancy,
            self.allocations,
            self.coalesced,
            self.rejections,
        )

    def restore(self, state: Tuple) -> None:
        entries, peak, allocs, coalesced, rejections = state
        self._entries = {
            line: MSHREntry(
                line_addr=line, allocated_at=at, consumers=set(consumers)
            )
            for line, at, consumers in entries
        }
        self.peak_occupancy = peak
        self.allocations = allocs
        self.coalesced = coalesced
        self.rejections = rejections
