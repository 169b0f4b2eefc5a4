"""Latency statistics: fastest repeats, medians, tails, open-loop timing.

:func:`fastest` is what the benchmark gates on: the mean, over a
class's distinct operations, of each operation's fastest repeat.  The
operations are run with nothing else of the benchmark's in flight, so
that repeat is the operation's cost; other tenants of the host load it
unevenly from minute to minute, which moves the median and the tails
by more than the benchmark's bounds but leaves the fastest repeat
nearly in place.

A tail percentile is only worth reporting when at least
:data:`MIN_BEYOND` samples lie beyond it; :func:`summarize` reports the
median, the percentile a metric names, the highest percentile the sample
count supports, and the count itself.  A failed operation is recorded as
``math.inf`` so it misses every latency limit.

Open-loop requests are timed from when they were *due*, not from when
the generator managed to send them: a stall then shows as latency on
every request queued behind it instead of vanishing from the record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Hashable, Iterable, List, Optional, Sequence

MIN_BEYOND = 10

#: Candidate tail percentiles, highest last.
TAILS = (50, 90, 95, 99, 99.9)


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-th percentile (0–100), linearly interpolated.

    Matches NumPy's default ("linear") method.  ``math.inf`` samples
    (failed operations) sort last and propagate into any percentile
    that touches them.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * Fraction(str(q)) / 100
    lo = math.floor(pos)
    frac = float(pos - lo)
    if frac == 0 or lo + 1 >= len(xs):
        return xs[lo]
    a, b = xs[lo], xs[lo + 1]
    if math.isinf(b):
        return b
    return a + (b - a) * frac


def fastest(samples: Dict[Hashable, Sequence[float]]) -> float:
    """Mean over operations of each one's fastest sample.

    A failed sample is ``math.inf`` and never the fastest unless every
    repeat of its operation failed; failures are counted separately.
    """
    if not samples:
        raise ValueError("no operations")
    return sum(min(xs) for xs in samples.values()) / len(samples)


def flatten(samples: Dict[Hashable, Sequence[float]]) -> List[float]:
    """Every sample of every operation."""
    return [x for xs in samples.values() for x in xs]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the ``q``-th percentile."""
    return math.floor(n * (100 - Fraction(str(q))) / 100)


def highest_supported(n: int, min_beyond: int = MIN_BEYOND) -> Optional[float]:
    """The highest of :data:`TAILS` with ``min_beyond`` samples beyond it."""
    best = None
    for q in TAILS:
        if beyond(n, q) >= min_beyond:
            best = q
    return best


@dataclass
class Summary:
    """A latency distribution reduced to what the benchmark reports."""

    n: int
    p50: float
    tail_q: float
    tail: float
    supported_q: Optional[float]

    @property
    def tail_supported(self) -> bool:
        return beyond(self.n, self.tail_q) >= MIN_BEYOND

    def describe(self) -> str:
        note = "" if self.tail_supported else ", under-sampled"
        top = "none" if self.supported_q is None else f"p{self.supported_q:g}"
        return f"n={self.n}, {beyond(self.n, self.tail_q)} beyond p{self.tail_q:g}, highest supported {top}{note}"


def summarize(values: Sequence[float], tail_q: float) -> Summary:
    """Median, the named tail percentile, and the sample count."""
    return Summary(
        n=len(values),
        p50=percentile(values, 50),
        tail_q=tail_q,
        tail=percentile(values, tail_q),
        supported_q=highest_supported(len(values)),
    )


class OpenLoop:
    """The due times of an open-loop stream: request ``i`` is due at
    ``start + i / rate`` whether or not earlier requests have finished.
    """

    def __init__(self, start: float, rate: float):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate!r}")
        self.start = start
        self.rate = rate

    def due(self, i: int) -> float:
        return self.start + i / self.rate


def latency_from_due(due: float, done: Optional[float]) -> float:
    """Seconds from due time to completion; ``inf`` if it never completed."""
    return math.inf if done is None else done - due


def lateness(due: Sequence[float], sent: Sequence[float]) -> List[float]:
    """Seconds each request was sent after it fell due (never negative)."""
    return [max(0.0, s - d) for d, s in zip(due, sent)]
