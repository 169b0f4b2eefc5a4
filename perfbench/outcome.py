"""What one measured run of a workload produced."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List


@dataclass
class Outcome:
    """Samples, failure accounting and counters from one measured run.

    ``light`` and ``heavy`` map each distinct operation of the
    workload's two operation classes (a program, goal, read source or
    batch) to its latencies in seconds (``math.inf`` for a failed
    operation); ``work`` units were completed in ``work_seconds``.
    ``counters`` are the paper's deterministic counters, which must be
    identical between a traced and an untraced run.  ``spans`` and
    ``client`` feed the per-layer metrics of a traced run; ``window`` is
    the measured wall time.  ``notes`` are lines the workload adds to
    the text output.
    """

    light: Dict[Hashable, List[float]] = field(default_factory=dict)
    heavy: Dict[Hashable, List[float]] = field(default_factory=dict)
    work: float = 0.0
    work_seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    counters: Dict[str, object] = field(default_factory=dict)
    spans: List[dict] = field(default_factory=list)
    client: Dict[str, float] = field(default_factory=dict)
    window: float = 0.0
    notes: List[str] = field(default_factory=list)

    def sample(self, heavy: bool, operation: Hashable, seconds: float) -> None:
        """Record one latency of ``operation`` in its class."""
        (self.heavy if heavy else self.light).setdefault(operation, []).append(seconds)

    def fail(self, problem: str) -> None:
        """Count one failed operation and keep the first few reasons."""
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)
