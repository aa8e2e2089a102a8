"""Message exfiltration over the covert channels (§4.4's end game).

The paper's headline rate quote is framed around stealing an AES-128
key.  This module turns the single-bit PoCs into a byte pipeline:
framing, repetition coding with majority decode, and accuracy/cost
accounting — so the "key in N cycles at X% accuracy" experiment is a
function call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.attack import _PoCBase


def bytes_to_bits(payload: bytes) -> List[int]:
    return [(byte >> k) & 1 for byte in payload for k in range(7, -1, -1)]


def bits_to_bytes(bits: Sequence[Optional[int]]) -> bytes:
    out = bytearray()
    for i in range(0, len(bits) - 7, 8):
        value = 0
        for bit in bits[i : i + 8]:
            value = (value << 1) | (1 if bit else 0)
        out.append(value)
    return bytes(out)


@dataclass
class ExfiltrationReport:
    """Outcome of transmitting one payload."""

    sent: bytes
    received: bytes
    repetitions: int
    total_cycles: int
    bit_errors: int

    @property
    def bits(self) -> int:
        return len(self.sent) * 8

    @property
    def bit_accuracy(self) -> float:
        return 1.0 - self.bit_errors / self.bits if self.bits else 1.0

    @property
    def byte_accuracy(self) -> float:
        if not self.sent:
            return 1.0
        matches = sum(1 for a, b in zip(self.sent, self.received, strict=False) if a == b)
        return matches / len(self.sent)

    @property
    def cycles_per_bit(self) -> float:
        return self.total_cycles / self.bits if self.bits else 0.0

    def seconds_at(self, clock_hz: float = 3.6e9) -> float:
        """Wall-clock time at a given core clock (paper: 3.6 GHz)."""
        return self.total_cycles / clock_hz

    def summary(self) -> str:
        return (
            f"{len(self.sent)} bytes, reps={self.repetitions}: "
            f"bit accuracy {self.bit_accuracy:.1%}, "
            f"byte accuracy {self.byte_accuracy:.1%}, "
            f"{self.total_cycles:,} cycles "
            f"({self.seconds_at() * 1000:.2f} ms at 3.6 GHz)"
        )


def exfiltrate(
    attack: _PoCBase,
    payload: bytes,
    *,
    repetitions: int = 1,
) -> ExfiltrationReport:
    """Transmit ``payload`` bit by bit through ``attack``."""
    bits = bytes_to_bits(payload)
    received_bits: List[Optional[int]] = []
    cycles = 0
    errors = 0
    for bit in bits:
        trial = attack.send_bit_with_retries(bit, repetitions)
        cycles += trial.cycles
        received_bits.append(trial.received)
        if trial.received != bit:
            errors += 1
    return ExfiltrationReport(
        sent=payload,
        received=bits_to_bytes(received_bits),
        repetitions=repetitions,
        total_cycles=cycles,
        bit_errors=errors,
    )


def exfiltrate_key(
    attack: _PoCBase,
    *,
    key_bytes: int = 16,
    repetitions: int = 1,
    seed: int = 99,
) -> ExfiltrationReport:
    """The paper's AES-128 experiment: a random 16-byte key."""
    rng = random.Random(seed)
    key = bytes(rng.randrange(256) for _ in range(key_bytes))
    return exfiltrate(attack, key, repetitions=repetitions)
