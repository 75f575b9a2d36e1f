"""Order statistics and open-loop accounting used by every workload."""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence

#: A reported percentile needs at least this many samples beyond it.
SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``fraction`` of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    ordered = sorted(values)
    rank = math.ceil(fraction * len(ordered))
    return ordered[max(0, rank - 1)]


def samples_beyond(count: int, fraction: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank percentile."""
    return count - math.ceil(fraction * count)


def backed(count: int, fraction: float) -> bool:
    """Whether the percentile has :data:`SAMPLES_BEYOND` samples beyond it."""
    return samples_beyond(count, fraction) >= SAMPLES_BEYOND


def highest_backed_fraction(count: int) -> Optional[float]:
    """The highest percentile with ten samples beyond it, or None.

    With ``count`` samples the nearest-rank percentile ``f`` leaves
    ``count - ceil(f * count)`` samples above it, so the highest backed
    fraction is ``(count - 10) / count``: p90 needs 100 samples, p99
    needs 1000.
    """
    if count <= SAMPLES_BEYOND:
        return None
    return (count - SAMPLES_BEYOND) / count


def backed_percentile(values: Sequence[float], fraction: float) -> float:
    """``percentile`` that refuses a fraction its sample cannot back."""
    if not backed(len(values), fraction):
        raise ValueError(
            f"p{100 * fraction:g} of {len(values)} samples has fewer than "
            f"{SAMPLES_BEYOND} samples beyond it"
        )
    return percentile(values, fraction)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


class OpenLoop:
    """Accounting for an open-loop request schedule.

    Request ``i`` is due at ``start + i / rate`` whatever happened to
    earlier requests.  Latency runs from the due time, so a stalled
    generator or a full connection pool charges its wait to every
    request it delayed; how late each request actually left is kept
    separately as the generator's lateness.  A refused or failed
    request counts as infinitely slow.
    """

    def __init__(self, rate: float, count: int, start: float = 0.0) -> None:
        if rate <= 0 or count < 1:
            raise ValueError("rate must be positive and count at least 1")
        self.rate = rate
        self.count = count
        self.start = start
        self.sent: Dict[int, float] = {}
        self.done: Dict[int, float] = {}
        self.refused = 0
        self.failed = 0

    def due(self, index: int) -> float:
        return self.start + index / self.rate

    def record_sent(self, index: int, at: float) -> None:
        self.sent[index] = at

    def record_done(self, index: int, at: float) -> None:
        self.done[index] = at

    def record_refused(self) -> None:
        self.refused += 1

    def record_failed(self) -> None:
        self.failed += 1

    def lateness(self) -> List[float]:
        """Seconds each sent request left after its due time."""
        return [max(0.0, at - self.due(i)) for i, at in sorted(self.sent.items())]

    def latencies(self) -> List[float]:
        """Due-to-done seconds per attempted request (inf if never done)."""
        return [
            self.done[i] - self.due(i) if i in self.done else math.inf
            for i in range(self.count)
        ]

    def completed_per_s(self) -> float:
        """Requests done per second, from the first due time to the last done."""
        if not self.done:
            return 0.0
        return len(self.done) / (max(self.done.values()) - self.start)
