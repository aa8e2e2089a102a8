"""Reorder buffer: in-order window over in-flight instructions.

Also computes, once per cycle, the *safety frontier* every speculation
scheme's safety model consumes: for each in-flight instruction, whether
all older branches have resolved, whether all older memory operations
have resolved their addresses, whether all older loads have completed,
and whether all older instructions have completed (§2.2, §3.3.1).

Each of those predicates is a prefix property that only ever turns
false at one entry and stays false for every younger one, so the whole
per-entry map is fixed by a handful of sequence numbers: the head, the
tail, and the oldest entry breaking each predicate.  Three in-order
indices (loads, stores, conditional branches) find those entries
without walking the whole window every cycle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import product
from typing import Callable, Deque, Dict, Iterator, List, Optional, Tuple

from repro.isa.instructions import OpClass
from repro.pipeline.dyninstr import DynInstr, Phase


@dataclass(frozen=True, slots=True)
class SafetyFlags:
    """Prefix predicates over all *older* ROB entries."""

    older_branches_resolved: bool
    #: All older *stores* have resolved addresses (aliasing is known) —
    #: the memory-ordering requirement on a weak (non-TSO) model, where
    #: load-load reordering is architecturally allowed.
    older_stores_addr_resolved: bool
    #: All older loads and stores have resolved addresses.
    older_mem_addr_resolved: bool
    older_loads_completed: bool
    older_all_completed: bool
    is_oldest: bool


#: The flag space is tiny (2^6 combinations): every lookup returns one
#: of these shared instances, keyed by the fields in order.
_FLAGS_CACHE: Dict[Tuple[bool, ...], SafetyFlags] = {
    key: SafetyFlags(*key) for key in product((False, True), repeat=6)
}


@dataclass(slots=True)
class SafetyFrontier:
    """Start-of-cycle safety flags of every ROB entry, as seven seqs.

    ``head`` and ``tail`` bound the window.  Each other field is the
    youngest seq whose older entries all satisfy one predicate: the seq
    of the oldest entry that breaks it (an unresolved conditional
    branch, a store without an address, a load or store without an
    address, an incomplete load, an incomplete entry), or ``tail`` when
    no entry does.  An entry's :class:`SafetyFlags` follow by comparing
    its seq with each field.

    The frontier is a value: later ROB changes do not move it.  (It is
    not frozen only because a frozen dataclass costs several times as
    much to build, and one is built every cycle.)
    """

    head: int
    tail: int
    branches: int
    store_addrs: int
    mem_addrs: int
    loads: int
    completed: int

    def get(self, seq: int) -> Optional[SafetyFlags]:
        """Flags of the entry ``seq``; ``None`` outside ``[head, tail]``."""
        if seq < self.head or seq > self.tail:
            return None
        return _FLAGS_CACHE[
            (
                seq <= self.branches,
                seq <= self.store_addrs,
                seq <= self.mem_addrs,
                seq <= self.loads,
                seq <= self.completed,
                seq == self.head,
            )
        ]

    def __getitem__(self, seq: int) -> SafetyFlags:
        flags = self.get(seq)
        if flags is None:
            raise KeyError(seq)
        return flags


#: The frontier of an empty ROB: no seq lies in ``[1, 0]``.
EMPTY_FRONTIER = SafetyFrontier(1, 0, 0, 0, 0, 0, 0)


class ROB:
    """Bounded FIFO of dynamic instructions in program order.

    ``loads``, ``stores`` and ``branches`` (conditional only) index the
    entries of each kind, oldest first; every method that changes the
    window keeps them equal to the filtered entries.  They are
    read-only outside this class.
    """

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError("ROB size must be >= 1")
        self.size = size
        self._entries: Deque[DynInstr] = deque()
        self.loads: Deque[DynInstr] = deque()
        self.stores: Deque[DynInstr] = deque()
        self.branches: Deque[DynInstr] = deque()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[DynInstr]:
        return iter(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.size

    @property
    def empty(self) -> bool:
        return not self._entries

    def head(self) -> Optional[DynInstr]:
        return self._entries[0] if self._entries else None

    def _index_of(self, instr: DynInstr) -> Optional[Deque[DynInstr]]:
        static = instr.static
        oc = static.opclass
        if oc is OpClass.LOAD:
            return self.loads
        if oc is OpClass.STORE:
            return self.stores
        if oc is OpClass.BRANCH and not static.unconditional:
            return self.branches
        return None

    def push(self, instr: DynInstr) -> None:
        if self.full:
            raise RuntimeError("ROB overflow")
        if self._entries and instr.seq <= self._entries[-1].seq:
            raise RuntimeError("ROB entries must arrive in program order")
        self._entries.append(instr)
        index = self._index_of(instr)
        if index is not None:
            index.append(instr)

    def pop_head(self) -> DynInstr:
        head = self._entries.popleft()
        index = self._index_of(head)
        if index is not None:
            index.popleft()
        return head

    def squash_younger_than(self, seq: int) -> List[DynInstr]:
        """Remove and return every entry with ``entry.seq > seq``."""
        squashed: List[DynInstr] = []
        while self._entries and self._entries[-1].seq > seq:
            victim = self._entries.pop()
            victim.phase = Phase.SQUASHED
            squashed.append(victim)
        for index in (self.loads, self.stores, self.branches):
            while index and index[-1].seq > seq:
                index.pop()
        squashed.reverse()
        return squashed

    def oldest_unresolved_branch(self) -> Optional[DynInstr]:
        for branch in self.branches:
            if not branch.resolved:
                return branch
        return None

    # ------------------------------------------------------------------
    def safety_flags(self) -> SafetyFrontier:
        """The safety frontier of the current entries (see
        :class:`SafetyFrontier`); ``frontier[seq]`` gives one entry's
        prefix flags."""
        entries = self._entries
        if not entries:
            return EMPTY_FRONTIER
        # Each walk stops at the first entry breaking its predicate, so
        # it only passes entries that have already cleared it.
        tail = entries[-1].seq
        store_addrs = load_addrs = loads = completed = tail
        oldest_branch = self.oldest_unresolved_branch()
        branches = tail if oldest_branch is None else oldest_branch.seq
        for store in self.stores:
            if store.addr is None:
                store_addrs = store.seq
                break
        for load in self.loads:
            if load.addr is None:
                load_addrs = load.seq
                break
        for load in self.loads:
            if load.phase is not Phase.COMPLETED:
                loads = load.seq
                break
        for entry in entries:
            if entry.phase is not Phase.COMPLETED:
                completed = entry.seq
                break
        return SafetyFrontier(
            entries[0].seq,
            tail,
            branches,
            store_addrs,
            min(store_addrs, load_addrs),
            loads,
            completed,
        )

    def older_stores(self, seq: int) -> List[DynInstr]:
        """Stores older than ``seq``, oldest first (for forwarding)."""
        older: List[DynInstr] = []
        for store in self.stores:
            if store.seq >= seq:
                break
            older.append(store)
        return older

    # -- snapshot -------------------------------------------------------
    SNAP_VERSION = 1
    SNAP_SCHEMA = ("entry_seqs",)

    def capture(self) -> Tuple:
        """Entry identities only; the instruction objects themselves are
        captured once, per seq, by the owning core."""
        return (tuple(e.seq for e in self._entries),)

    def restore(self, state: Tuple, resolve: Callable[[int], DynInstr]) -> None:
        (seqs,) = state
        for container in (self._entries, self.loads, self.stores, self.branches):
            container.clear()
        for seq in seqs:
            self.push(resolve(seq))
