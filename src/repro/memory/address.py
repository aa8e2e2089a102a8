"""Physical-address layout helpers: lines, sets, LLC slices.

The simulator uses a flat physical address space.  Caches index by the
usual ``offset | set | tag`` split; the shared LLC additionally hashes a
few tag bits into a slice id, mimicking Intel's sliced LLC (the slice
hash here is a simple XOR fold, which is all the eviction-set machinery
needs: a deterministic many-to-one mapping the attacker can invert).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

#: Bound on the geometries :func:`shared_layout` keeps; a process uses a
#: handful (one per cache level of each hierarchy configuration).
LAYOUT_MEMO_SIZE = 128


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class AddressLayout:
    """Line/set/slice arithmetic for one cache geometry.

    Immutable and free of mutable state, so every cache of one geometry
    can share one instance (:func:`shared_layout`).
    """

    line_size: int = 64
    num_sets: int = 64
    num_slices: int = 1

    def __post_init__(self) -> None:
        if not _is_pow2(self.line_size):
            raise ValueError("line_size must be a power of two")
        if not _is_pow2(self.num_sets):
            raise ValueError("num_sets must be a power of two")
        if not _is_pow2(self.num_slices):
            raise ValueError("num_slices must be a power of two")
        # Precomputed masks/shifts: these feed every cache access, so
        # avoid re-deriving bit widths per call (frozen dataclass, hence
        # object.__setattr__).
        object.__setattr__(self, "_offset_bits", self.line_size.bit_length() - 1)
        object.__setattr__(self, "_set_bits", self.num_sets.bit_length() - 1)
        object.__setattr__(self, "_line_mask", ~(self.line_size - 1))
        object.__setattr__(self, "_set_mask", self.num_sets - 1)
        object.__setattr__(
            self, "_tag_shift", self._offset_bits + self._set_bits
        )

    @property
    def offset_bits(self) -> int:
        return self._offset_bits

    @property
    def set_bits(self) -> int:
        return self._set_bits

    @property
    def set_mask(self) -> int:
        return self._set_mask

    def line_addr(self, addr: int) -> int:
        """Address of the cache line containing ``addr``."""
        return addr & self._line_mask

    def set_index(self, addr: int) -> int:
        """Set index within a slice."""
        return (addr >> self._offset_bits) & self._set_mask

    def tag(self, addr: int) -> int:
        return addr >> self._tag_shift

    def slice_id(self, addr: int) -> int:
        """XOR-folded slice hash over the tag bits."""
        if self.num_slices == 1:
            return 0
        slice_bits = self.num_slices.bit_length() - 1
        value = self.tag(addr)
        folded = 0
        while value:
            folded ^= value & (self.num_slices - 1)
            value >>= slice_bits
        return folded

    def global_set(self, addr: int) -> int:
        """Flat set index across all slices (slice-major)."""
        line_set = (addr >> self._offset_bits) & self._set_mask
        if self.num_slices == 1:
            return line_set
        return self.slice_id(addr) * self.num_sets + line_set

    def same_set(self, a: int, b: int) -> bool:
        """True when two addresses map to the same slice and set."""
        return self.global_set(a) == self.global_set(b)

    def congruent_address(self, base: int, n: int) -> int:
        """The ``n``-th distinct line congruent to ``base``.

        Walks tags upward from ``base`` keeping the set index fixed and
        searching for matching slice hashes.  Used by the omniscient
        eviction-set builder (the timing-based builder in
        :mod:`repro.memory.eviction` finds these by measurement instead).
        """
        if n == 0:
            return self.line_addr(base)
        stride = self.line_size * self.num_sets
        found = 0
        addr = self.line_addr(base)
        for _ in range(self.num_slices * (n + 2) * 8):
            addr += stride
            if self.slice_id(addr) == self.slice_id(base):
                found += 1
                if found == n:
                    return addr
        raise RuntimeError("failed to find a congruent address")


def shared_layout(line_size: int, num_sets: int, num_slices: int = 1) -> AddressLayout:
    """The one :class:`AddressLayout` of this geometry in this process
    (equal geometries return the same instance while it stays among the
    :data:`LAYOUT_MEMO_SIZE` most recently used)."""
    return _shared_layout(line_size, num_sets, num_slices)


@functools.lru_cache(maxsize=LAYOUT_MEMO_SIZE)
def _shared_layout(line_size: int, num_sets: int, num_slices: int) -> AddressLayout:
    # Positional only, so keyword and positional calls share one entry.
    return AddressLayout(line_size=line_size, num_sets=num_sets, num_slices=num_slices)
