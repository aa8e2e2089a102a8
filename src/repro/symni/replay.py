"""Ground a symbolic counterexample in cycle-level dynamic truth.

A dirty symbolic verdict names two secret assignments whose abstract
footprints diverge.  This module replays exactly that pair through the
simulator (via :mod:`repro.runner.replay`) and asks whether the paper's
Table-1 machinery would see it: :func:`repro.core.matrix.leak_signals`
reads the two picklable :class:`~repro.runner.spec.TrialSummary`
records, so the symbolic layer never needs a live simulator handle.

A counterexample the simulator does *not* reproduce is not discarded:
it comes back as ``reproduced=False`` with both outcomes attached, and
the checker turns it into an explicit abstraction-gap record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.matrix import MARGIN, Signal, leak_signals
from repro.core.victims import VictimSpec
from repro.runner.replay import REPLAY_MAX_CYCLES, replay_pair
from repro.runner.spec import TrialOutcome


@dataclass(frozen=True)
class ReplayResult:
    """What the simulator said about one symbolic counterexample."""

    victim: str
    scheme: str
    secrets: Tuple[int, int]
    outcome0: TrialOutcome
    outcome1: TrialOutcome
    signals: Tuple[Signal, ...]

    @property
    def ran(self) -> bool:
        """Both trials executed to completion."""
        return self.outcome0.ok and self.outcome1.ok

    @property
    def reproduced(self) -> bool:
        """The simulator exhibits a dynamic signal for this pair."""
        return self.ran and bool(self.signals)

    def describe(self) -> str:
        if not self.ran:
            failed = self.outcome0 if not self.outcome0.ok else self.outcome1
            return f"replay failed: {failed.describe()}"
        if not self.signals:
            return "replay ran clean: no dynamic signal at this margin"
        return "; ".join(s.detail for s in self.signals)


def replay_counterexample(
    spec: VictimSpec,
    victim_name: str,
    scheme: str,
    secrets: Tuple[int, int],
    *,
    victim_kwargs: Optional[dict] = None,
    margin: int = MARGIN,
    max_cycles: int = REPLAY_MAX_CYCLES,
) -> ReplayResult:
    """Replay the counterexample's secret pair under ``scheme`` and
    derive the dynamic signals from the two summaries."""
    outcome0, outcome1 = replay_pair(
        victim_name,
        scheme,
        secrets,
        victim_kwargs=victim_kwargs,
        max_cycles=max_cycles,
    )
    signals: List[Signal] = []
    if outcome0.ok and outcome1.ok:
        assert outcome0.summary is not None and outcome1.summary is not None
        signals = leak_signals(
            spec, outcome0.summary, outcome1.summary, margin=margin
        )
    return ReplayResult(
        victim=victim_name,
        scheme=scheme,
        secrets=secrets,
        outcome0=outcome0,
        outcome1=outcome1,
        signals=tuple(signals),
    )
