"""Covert-channel evaluation: error rate vs. bit rate (Figure 11).

The channel transmits random bits through a PoC attack; the tradeoff
knob is the number of repetitions per bit (majority vote), exactly the
paper's "number of times the PoC is run to leak each bit".  Throughput
is measured in simulated cycles per bit and reported both as bits per
mega-cycle and as nominal bits/second at the paper's 3.6 GHz clock so
the axes of Figure 11 are comparable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence

from repro.core.attack import _PoCBase

#: The paper's machine runs at 3.6 GHz; used only to scale cycle counts
#: into nominal bits/second for Figure 11's axes.
PAPER_CLOCK_HZ = 3.6e9


@dataclass
class ChannelPoint:
    """One point on the error-vs-bitrate curve."""

    repetitions: int
    bits: int
    errors: int
    erasures: int
    total_cycles: int

    @property
    def error_rate(self) -> float:
        return self.errors / self.bits if self.bits else 0.0

    @property
    def cycles_per_bit(self) -> float:
        return self.total_cycles / self.bits if self.bits else float("inf")

    @property
    def bits_per_megacycle(self) -> float:
        if self.total_cycles == 0:
            return 0.0
        return self.bits / (self.total_cycles / 1e6)

    @property
    def nominal_bps(self) -> float:
        """Bit rate at the paper's 3.6 GHz clock."""
        if self.total_cycles == 0:
            return 0.0
        return self.bits / (self.total_cycles / PAPER_CLOCK_HZ)


def evaluate_channel(
    attack: _PoCBase,
    *,
    num_bits: int = 32,
    repetitions: Sequence[int] = (1, 2, 3, 5),
    seed: int = 1234,
) -> List[ChannelPoint]:
    """Sweep the repetition knob and measure error rate vs. bit rate."""
    points = []
    for reps in repetitions:
        rng = random.Random(seed + reps)
        errors = 0
        erasures = 0
        cycles = 0
        for _ in range(num_bits):
            bit = rng.randint(0, 1)
            trial = attack.send_bit_with_retries(bit, reps)
            cycles += trial.cycles
            if trial.received is None:
                erasures += 1
                errors += 1  # an undecodable bit counts as an error
            elif trial.received != bit:
                errors += 1
        points.append(
            ChannelPoint(
                repetitions=reps,
                bits=num_bits,
                errors=errors,
                erasures=erasures,
                total_cycles=cycles,
            )
        )
    return points


def format_channel_curve(points: Sequence[ChannelPoint], title: str) -> str:
    lines = [title, ""]
    lines.append(
        f"{'reps':>5s} {'bits':>5s} {'errors':>7s} {'err rate':>9s} "
        f"{'cyc/bit':>9s} {'bits/Mcyc':>10s} {'nominal bps':>12s}"
    )
    for p in points:
        lines.append(
            f"{p.repetitions:5d} {p.bits:5d} {p.errors:7d} {p.error_rate:9.3f} "
            f"{p.cycles_per_bit:9.0f} {p.bits_per_megacycle:10.1f} "
            f"{p.nominal_bps:12.0f}"
        )
    return "\n".join(lines)
