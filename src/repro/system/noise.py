"""Background noise: what makes the Figure 11 error/bit-rate tradeoff.

A real machine gives the PoCs two noise sources the simulator lacks:
DRAM timing jitter (configured on
:class:`~repro.memory.main_memory.MainMemory` via
``HierarchyConfig.dram_jitter``) and unrelated traffic hitting the
monitored LLC sets.  :class:`NoiseInjector` supplies the latter: with
probability ``rate`` per cycle, a random line from a pool congruent
with the monitored set is accessed from an otherwise idle core,
perturbing the replacement state the receiver decodes.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.memory.hierarchy import AccessKind
from repro.memory.stream import (
    DOMAIN_NOISE_FIRE,
    DOMAIN_NOISE_INDEX,
    draw_below,
    draw_uniform,
)
from repro.system.machine import Machine


class NoiseInjector:
    """Per-cycle probabilistic background LLC traffic."""

    def __init__(
        self,
        machine: Machine,
        core_id: int,
        pool: Sequence[int],
        *,
        rate: float = 0.0,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be a probability")
        if rate > 0 and not pool:
            raise ValueError("a non-zero rate needs a line pool")
        self.machine = machine
        self.core_id = core_id
        self.pool: List[int] = list(pool)
        self.rate = rate
        self.seed = seed
        self.injected = 0
        self._active = False

    def attach(self) -> None:
        """Register with the machine (idempotent)."""
        if not self._active:
            self.machine.add_cycle_hook(self._tick)
            self._active = True

    def _tick(self, cycle: int) -> None:
        """Counter-based fire/pick: both draws are keyed by ``(seed,
        cycle)`` alone, so the injection schedule is a pure function of
        the seed — replayable by a re-run of the trial and by lockstep
        mirrors without any shared generator state."""
        if self.rate <= 0.0:
            return
        if draw_uniform(self.seed, DOMAIN_NOISE_FIRE, cycle, 0) >= self.rate:
            return
        addr = self.pool[draw_below(self.seed, DOMAIN_NOISE_INDEX, cycle, 0, len(self.pool))]
        self.machine.hierarchy.access(
            self.core_id, addr, AccessKind.DATA, visible=True, cycle=cycle
        )
        self.injected += 1

    def reseed(self, seed: int) -> None:
        self.seed = seed
