"""Simple histogramming for the Figure 7 style latency distributions."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple


@dataclass
class Histogram:
    """Fixed-width-bin histogram over integer samples."""

    samples: List[int] = field(default_factory=list)

    def add(self, value: int) -> None:
        self.samples.append(value)

    def extend(self, values: Iterable[int]) -> None:
        self.samples.extend(values)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples) if self.samples else 0.0

    @property
    def stdev(self) -> float:
        if len(self.samples) < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(
            sum((s - mu) ** 2 for s in self.samples) / (len(self.samples) - 1)
        )

    def percentile(self, p: float) -> int:
        if not self.samples:
            raise ValueError("empty histogram")
        ordered = sorted(self.samples)
        index = min(len(ordered) - 1, max(0, int(p / 100.0 * len(ordered))))
        return ordered[index]

    def bins(self, bin_width: int, lo: int, hi: int) -> List[Tuple[int, int]]:
        """(bin_start, count) pairs covering [lo, hi)."""
        out = []
        for start in range(lo, hi, bin_width):
            count = sum(1 for s in self.samples if start <= s < start + bin_width)
            out.append((start, count))
        return out


def ascii_histogram(
    series: Dict[str, Histogram],
    *,
    bin_width: int = 4,
    width: int = 50,
    title: str = "",
) -> str:
    """Render overlaid histograms as rows of bars (one char per series)."""
    if not series:
        return title
    all_samples = [s for h in series.values() for s in h.samples]
    if not all_samples:
        return f"{title}\n(no samples)"
    lo = (min(all_samples) // bin_width) * bin_width
    hi = max(all_samples) + bin_width
    markers = "#*o+x"
    lines = [title] if title else []
    for marker, (name, hist) in zip(markers, series.items(), strict=False):
        lines.append(
            f"  {marker} {name}: n={hist.count} mean={hist.mean:.1f} "
            f"sd={hist.stdev:.1f}"
        )
    binned = {
        name: dict(h.bins(bin_width, lo, hi)) for name, h in series.items()
    }
    peak = max(max(b.values(), default=1) for b in binned.values()) or 1
    for start in range(lo, hi, bin_width):
        row = f"{start:7d} |"
        for marker, name in zip(markers, series, strict=False):
            count = binned[name].get(start, 0)
            bar = int(round(count / peak * width))
            row += marker * bar + " "
        lines.append(row.rstrip())
    return "\n".join(lines)
