"""Event-by-event trace comparison.

Two traces of the same trial should be *identical*; when they are not,
the first divergent event is the diagnosis (e.g. "EXECUTE of 'f0' moved
from cycle 41 to cycle 42" pinpoints a changed EU latency).  The golden
trace regression suite and the ``--diff`` CLI both report through
:meth:`Divergence.describe`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.trace.events import TraceEvent


@dataclass(frozen=True)
class Divergence:
    """First point at which two traces disagree.

    ``left``/``right`` is ``None`` when that trace ended early (the
    other still has events at ``index``).
    """

    index: int
    left: Optional[TraceEvent]
    right: Optional[TraceEvent]

    def describe(
        self, *, left_name: str = "left", right_name: str = "right"
    ) -> str:
        if self.left is None:
            return (
                f"traces diverge at event {self.index}: {left_name} ended, "
                f"{right_name} continues with [{self.right.describe()}]"
            )
        if self.right is None:
            return (
                f"traces diverge at event {self.index}: {right_name} ended, "
                f"{left_name} continues with [{self.left.describe()}]"
            )
        hints = []
        if self.left.kind is not self.right.kind:
            hints.append(
                f"kind {self.left.kind.value} -> {self.right.kind.value}"
            )
        if self.left.cycle != self.right.cycle:
            hints.append(f"cycle {self.left.cycle} -> {self.right.cycle}")
        if (self.left.seq, self.left.instr) != (
            self.right.seq,
            self.right.instr,
        ):
            hints.append(
                f"instr #{self.left.seq} {self.left.instr!r} -> "
                f"#{self.right.seq} {self.right.instr!r}"
            )
        if self.left.args != self.right.args:
            hints.append("payload changed")
        detail = "; ".join(hints) if hints else "fields differ"
        return (
            f"traces diverge at event {self.index} ({detail}):\n"
            f"  {left_name}:  {self.left.describe()}\n"
            f"  {right_name}: {self.right.describe()}"
        )


def first_divergence(
    left: Sequence[TraceEvent], right: Sequence[TraceEvent]
) -> Optional[Divergence]:
    """Return the first index where the traces differ, or ``None`` when
    they are event-for-event identical."""
    for i, (a, b) in enumerate(zip(left, right, strict=False)):
        if a != b:
            return Divergence(i, a, b)
    if len(left) != len(right):
        i = min(len(left), len(right))
        return Divergence(
            i,
            left[i] if i < len(left) else None,
            right[i] if i < len(right) else None,
        )
    return None
