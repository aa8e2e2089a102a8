"""Branch predictors.

The attacks rely on *mistraining* (§4.1: "we trigger branch
mispredictions by training the target branch in a given direction"), so
the default predictor is a per-PC two-bit saturating counter that the
attack harness can train by running warm-up iterations.  The
:class:`OraclePredictor` replays a recorded outcome sequence and is used
to construct the paper's ``NoSpec(E)`` executions (§5.1).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Sequence


class BranchPredictor(ABC):
    """Direction predictor interface (targets are static in our ISA)."""

    @abstractmethod
    def predict(self, slot: int) -> bool:
        """Predicted taken/not-taken for the static branch at ``slot``."""

    @abstractmethod
    def update(self, slot: int, taken: bool) -> None:
        """Train on a resolved outcome."""

    def reset(self) -> None:
        """Forget all history (optional)."""


class TwoBitPredictor(BranchPredictor):
    """Classic 2-bit saturating counters, one per branch PC."""

    STRONG_NOT = 0
    WEAK_NOT = 1
    WEAK_TAKEN = 2
    STRONG_TAKEN = 3

    def __init__(self, *, initial: int = WEAK_NOT) -> None:
        if not 0 <= initial <= 3:
            raise ValueError("counter state must be in [0, 3]")
        self._initial = initial
        self._counters: Dict[int, int] = {}
        self.lookups = 0
        self.updates = 0

    def predict(self, slot: int) -> bool:
        self.lookups += 1
        return self._counters.get(slot, self._initial) >= self.WEAK_TAKEN

    def update(self, slot: int, taken: bool) -> None:
        self.updates += 1
        state = self._counters.get(slot, self._initial)
        state = min(state + 1, 3) if taken else max(state - 1, 0)
        self._counters[slot] = state

    def train(self, slot: int, taken: bool, *, times: int = 2) -> None:
        """Out-of-band training used by attack harnesses to mistrain."""
        for _ in range(times):
            self.update(slot, taken)

    def reset(self) -> None:
        self._counters.clear()


class StaticTakenPredictor(BranchPredictor):
    """Always predicts one direction; handy for deterministic tests."""

    def __init__(self, taken: bool = True) -> None:
        self.taken = taken

    def predict(self, slot: int) -> bool:
        return self.taken

    def update(self, slot: int, taken: bool) -> None:
        pass


class OraclePredictor(BranchPredictor):
    """Replays a recorded dynamic outcome sequence perfectly.

    Feeding it the program's architectural conditional-branch outcomes
    (:attr:`repro.isa.InterpreterResult.branch_outcomes`) yields an
    execution with no mis-speculation — the paper's ``NoSpec(E)``
    (§5.1).  If the program asks for more predictions than recorded,
    it falls back to not-taken.
    """

    def __init__(self, outcomes: Sequence[bool]) -> None:
        self._outcomes: List[bool] = list(outcomes)
        self._next = 0
        self.exhausted = False

    def predict(self, slot: int) -> bool:
        if self._next >= len(self._outcomes):
            self.exhausted = True
            return False
        outcome = self._outcomes[self._next]
        self._next += 1
        return outcome

    def update(self, slot: int, taken: bool) -> None:
        pass

    def reset(self) -> None:
        self._next = 0
        self.exhausted = False
