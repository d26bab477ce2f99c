"""Benchmark arithmetic: latency summaries, throughput and span self times."""

from __future__ import annotations

from dataclasses import dataclass

TAIL_BEYOND = 10  # a tail percentile needs at least this many samples above it


def tail(samples) -> tuple[float, float] | None:
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (percentile, value), where value is the (TAIL_BEYOND + 1)-th
    largest sample and percentile = 100 * (n - TAIL_BEYOND) / n is the share
    of samples at or below it; None when there are too few samples.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return None
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def audio_x(audio_seconds, wall_seconds) -> float:
    """Seconds of audio processed per second of wall time, over all requests."""
    wall = sum(wall_seconds)
    if wall <= 0:
        raise ValueError("audio_x needs a positive total wall time")
    return sum(audio_seconds) / wall


@dataclass
class Span:
    """One timed call: [start, end) on the perf_counter clock."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it its direct children cover."""
    children: dict[int, list] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration - _covered(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }
