"""MESI-style coherence over the private caches.

The hierarchy keeps data values in main memory (so architectural
correctness never depends on coherence), but *presence and timing* do:
a store must invalidate remote copies, and reading a line another core
holds Modified costs a writeback round trip.  Coherence state is also
attacker-visible in principle (Yao et al., HPCA'18 — cited by the paper
as related cache-state attack surface), so the directory exposes its
state for experiments.

States per (core, line): M (modified), E (exclusive), S (shared).
Absence means Invalid.  The directory tracks *data* lines only; the
I-side is read-only and always effectively Shared.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


class CoherenceState(enum.Enum):
    MODIFIED = "M"
    EXCLUSIVE = "E"
    SHARED = "S"


@dataclass
class CoherenceStats:
    __slots__ = (
        "invalidations_sent",
        "downgrades",
        "upgrades",
        "writeback_penalties",
    )

    invalidations_sent: int
    downgrades: int
    upgrades: int
    writeback_penalties: int

    def __init__(self) -> None:
        self.invalidations_sent = 0
        self.downgrades = 0
        self.upgrades = 0
        self.writeback_penalties = 0


class CoherenceDirectory:
    """Directory of data-line sharers and their MESI states."""

    def __init__(self, num_cores: int, *, writeback_penalty: int = 30) -> None:
        if num_cores < 1:
            raise ValueError("need at least one core")
        self.num_cores = num_cores
        self.writeback_penalty = writeback_penalty
        #: line -> {core: state}
        self._sharers: Dict[int, Dict[int, CoherenceState]] = {}
        self.stats = CoherenceStats()

    # ------------------------------------------------------------------
    def state(self, core: int, line: int) -> Optional[CoherenceState]:
        return self._sharers.get(line, {}).get(core)

    def sharers(self, line: int) -> List[int]:
        return sorted(self._sharers.get(line, {}))

    def owner(self, line: int) -> Optional[int]:
        """The core holding the line Modified, if any."""
        for core, state in self._sharers.get(line, {}).items():
            if state is CoherenceState.MODIFIED:
                return core
        return None

    # ------------------------------------------------------------------
    def on_read(self, core: int, line: int) -> int:
        """A core reads the line; returns extra latency (writeback)."""
        entry = self._sharers.setdefault(line, {})
        penalty = 0
        owner = self.owner(line)
        if owner is not None and owner != core:
            # Remote Modified copy: force a writeback + downgrade to S.
            entry[owner] = CoherenceState.SHARED
            penalty = self.writeback_penalty
            self.stats.downgrades += 1
            self.stats.writeback_penalties += 1
        if core not in entry:
            others = [c for c in entry if c != core]
            entry[core] = (
                CoherenceState.SHARED if others else CoherenceState.EXCLUSIVE
            )
            # an E holder observing a new reader degrades to S
            for other in others:
                if entry[other] is CoherenceState.EXCLUSIVE:
                    entry[other] = CoherenceState.SHARED
        return penalty

    def on_write(self, core: int, line: int) -> Tuple[List[int], int]:
        """A core writes the line; returns (invalidated cores, latency).

        Remote copies are invalidated (the hierarchy must drop them from
        the remote private caches); a remote Modified copy additionally
        costs a writeback.
        """
        entry = self._sharers.setdefault(line, {})
        penalty = 0
        owner = self.owner(line)
        if owner is not None and owner != core:
            penalty = self.writeback_penalty
            self.stats.writeback_penalties += 1
        invalidated = [c for c in entry if c != core]
        for other in invalidated:
            del entry[other]
            self.stats.invalidations_sent += 1
        if entry.get(core) is not CoherenceState.MODIFIED:
            self.stats.upgrades += 1
        entry[core] = CoherenceState.MODIFIED
        return invalidated, penalty

    def on_evict(self, core: int, line: int) -> None:
        """A core lost its copy (eviction/flush): drop its sharer entry."""
        entry = self._sharers.get(line)
        if entry is None:
            return
        entry.pop(core, None)
        if not entry:
            del self._sharers[line]

    def on_flush(self, line: int) -> None:
        self._sharers.pop(line, None)

    def invariant_ok(self, line: int) -> bool:
        """MESI invariant: M or E implies a sole sharer."""
        entry = self._sharers.get(line, {})
        states = list(entry.values())
        if CoherenceState.MODIFIED in states or CoherenceState.EXCLUSIVE in states:
            return len(states) == 1
        return True

    # -- snapshot -------------------------------------------------------
    def capture(self) -> Tuple:
        return (
            tuple(
                (line, tuple(entry.items()))
                for line, entry in self._sharers.items()
            ),
            (
                self.stats.invalidations_sent,
                self.stats.downgrades,
                self.stats.upgrades,
                self.stats.writeback_penalties,
            ),
        )

    def restore(self, state: Tuple) -> None:
        sharers, stats = state
        self._sharers = {line: dict(entry) for line, entry in sharers}
        (
            self.stats.invalidations_sent,
            self.stats.downgrades,
            self.stats.upgrades,
            self.stats.writeback_penalties,
        ) = stats
