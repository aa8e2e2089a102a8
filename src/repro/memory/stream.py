"""Counter-based RNG streams for DRAM jitter and background noise.

Draws are pure functions of ``(seed, domain, cycle, seq)`` through a
splitmix64-style finalizer, so any consumer — the scalar simulator, a
replayed snapshot handle, or a batch lane hierarchy replaying the
leader's DRAM traffic — reconstructs the exact same value from the key
alone.  No mutable generator state is shared between draw
sites; the only state a consumer tracks is the ``seq`` disambiguator
for repeated draws at the same ``(cycle, core)``.

Domain tags keep the independent draw families from aliasing: a noise
injection decided at cycle *t* never shifts the jitter drawn by a DRAM
access at the same cycle, which is what lets lockstep lanes that share
a trial seed stay converged while consuming per-lane jitter.
"""

from __future__ import annotations

from typing import Tuple

MASK64 = (1 << 64) - 1

#: DRAM jitter draws use ``DOMAIN_DRAM + requesting core id``.
DOMAIN_DRAM = 0x00
#: Per-cycle fire/skip decision of :class:`repro.system.noise.NoiseInjector`.
DOMAIN_NOISE_FIRE = 0x100
#: Pool-index pick for a noise injection that fired.
DOMAIN_NOISE_INDEX = 0x101

# Odd multipliers (bijective mod 2**64) keying each field into the mix.
DOMAIN_MULT = 0xD1342543DE82EF95
CYCLE_MULT = 0x9E3779B97F4A7C15
SEQ_MULT = 0xDA942042E4DD58B5


def mix64(x: int) -> int:
    """The splitmix64 finalizer: a 64-bit bijective avalanche mix."""
    x &= MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def stream_word(seed: int, domain: int, cycle: int, seq: int) -> int:
    """One 64-bit draw, keyed entirely by its arguments."""
    x = seed & MASK64
    x = mix64(x ^ ((domain * DOMAIN_MULT) & MASK64))
    x = mix64(x ^ ((cycle * CYCLE_MULT) & MASK64))
    x = mix64(x ^ ((seq * SEQ_MULT) & MASK64))
    return x


def draw_below(seed: int, domain: int, cycle: int, seq: int, bound: int) -> int:
    """A draw in ``[0, bound)`` (``bound >= 1``)."""
    return stream_word(seed, domain, cycle, seq) % bound


def draw_uniform(seed: int, domain: int, cycle: int, seq: int) -> float:
    """A draw in ``[0.0, 1.0)`` — compare with ``< rate`` so ``rate=1.0``
    always fires and ``rate=0.0`` never does."""
    return stream_word(seed, domain, cycle, seq) / float(1 << 64)


#: Scalar stream-consumer state: ``(seed, last_cycle, last_core, seq)``.
StreamState = Tuple[int, int, int, int]


class CounterStream:
    """Scalar consumer tracking the ``seq`` counter per ``(cycle, core)``.

    Repeated draws at the same key get ``seq = 0, 1, 2, ...``; a draw at
    a new key resets ``seq`` to zero.  The whole state is four ints, so
    a capture carries it verbatim and a restored batch lane draws on
    from exactly where the leader's stream stood.
    """

    __slots__ = ("seed", "last_cycle", "last_core", "seq")

    def __init__(self, seed: int) -> None:
        self.seed = seed & MASK64
        self.last_cycle = -1
        self.last_core = -1
        self.seq = -1

    def next_seq(self, cycle: int, core: int) -> int:
        if cycle == self.last_cycle and core == self.last_core:
            self.seq += 1
        else:
            self.last_cycle = cycle
            self.last_core = core
            self.seq = 0
        return self.seq

    def jitter_draw(self, cycle: int, core: int, jitter: int) -> int:
        """A DRAM jitter draw in ``[0, jitter]`` for an access issued by
        ``core`` at ``cycle``, advancing the seq counter."""
        seq = self.next_seq(cycle, core)
        return draw_below(self.seed, DOMAIN_DRAM + core, cycle, seq, jitter + 1)

    def state(self) -> StreamState:
        return (self.seed, self.last_cycle, self.last_core, self.seq)

    def set_state(self, state: StreamState) -> None:
        self.seed, self.last_cycle, self.last_core, self.seq = state

    @classmethod
    def from_state(cls, state: StreamState) -> "CounterStream":
        stream = cls(0)
        stream.set_state(state)
        return stream
