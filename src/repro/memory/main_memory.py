"""Backing main memory: a sparse word-addressed store plus DRAM timing.

Values default to zero, so programs can load from any address without
initialization.  DRAM latency can carry seeded jitter (the noise source
behind the Figure 11 error/bit-rate tradeoff).
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.memory.stream import CounterStream


class MainMemory:
    """Sparse physical memory with optional access-latency jitter."""

    def __init__(
        self,
        *,
        latency: int = 200,
        jitter: int = 0,
        seed: int = 0,
        contents: Optional[Mapping[int, int]] = None,
    ) -> None:
        if latency < 1:
            raise ValueError("DRAM latency must be positive")
        if jitter < 0:
            raise ValueError("jitter must be non-negative")
        self.latency = latency
        self.jitter = jitter
        self._stream = CounterStream(seed)
        self._data: Dict[int, int] = dict(contents or {})
        self.reads = 0
        self.writes = 0

    def read(self, addr: int) -> int:
        self.reads += 1
        return self._data.get(addr, 0)

    def peek(self, addr: int) -> int:
        """Read without bumping counters (for diagnostics)."""
        return self._data.get(addr, 0)

    def write(self, addr: int, value: int) -> None:
        self.writes += 1
        self._data[addr] = value

    def write_block(self, base: int, values: Iterable[int], *, stride: int = 8) -> None:
        for offset, value in enumerate(values):
            self.write(base + offset * stride, value)

    def access_latency(self, cycle: int = 0, core: int = 0) -> int:
        """DRAM access time for one request, including jitter.

        The draw is keyed by the requesting ``(cycle, core)`` through the
        counter stream, so a replayer (restored snapshot, mirror lane)
        reconstructs the identical draw from the key alone.  With zero
        jitter no draw happens and no stream state is touched.
        """
        if self.jitter == 0:
            return self.latency
        return self.latency + self._stream.jitter_draw(cycle, core, self.jitter)

    def snapshot(self) -> Dict[int, int]:
        return dict(self._data)

    def reseed(self, seed: int) -> None:
        self._stream = CounterStream(seed)

    # -- snapshot -------------------------------------------------------
    def capture(self) -> Tuple:
        return (dict(self._data), self._stream.state(), self.reads, self.writes)

    def restore(self, state: Tuple) -> None:
        data, stream_state, reads, writes = state
        self._data = dict(data)
        self._stream.set_state(stream_state)
        self.reads = reads
        self.writes = writes
