"""Wall-clock measurement utilities.

The paper reports mean and standard deviation over 250 runs.  On a shared,
single-core container that protocol is both too slow and too noisy, so
:func:`measure` uses an adaptive protocol: warm up, then repeat until either
``max_repeats`` runs or ``min_total`` seconds of measurement have
accumulated, whichever is later bounded.  The full sample vector is kept so
benchmarks can report whatever statistic they want.

:func:`interleaved_best` compares candidates instead of describing one:
every round times each candidate once, in turn, so machine-state drift
(frequency scaling, a noisy neighbour) lands on all of them alike rather
than on whichever was timed in its own, quieter pass.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping


@dataclass
class MeasuredTime:
    """Summary of a repeated timing measurement (seconds)."""

    samples: list[float] = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples) if self.samples else math.nan

    @property
    def std(self) -> float:
        if len(self.samples) < 2:
            return 0.0
        mu = self.mean
        var = sum((s - mu) ** 2 for s in self.samples) / (len(self.samples) - 1)
        return math.sqrt(var)

    @property
    def best(self) -> float:
        return min(self.samples) if self.samples else math.nan

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MeasuredTime(mean={self.mean:.6f}s, std={self.std:.6f}s, n={self.n})"


class Timer:
    """Context manager measuring elapsed wall-clock time.

    >>> with Timer() as t:
    ...     _ = sum(range(1000))
    >>> t.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self.elapsed: float = math.nan
        self._start: float = math.nan

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self._start


def measure(
    fn: Callable[[], object],
    *,
    warmup: int = 1,
    min_repeats: int = 3,
    max_repeats: int = 50,
    min_total: float = 0.2,
) -> MeasuredTime:
    """Time ``fn()`` repeatedly and return the sample distribution.

    ``fn`` is invoked ``warmup`` times untimed (to populate caches and
    trigger any lazy setup), then timed until at least ``min_repeats`` runs
    *and* ``min_total`` seconds have been collected, capped at
    ``max_repeats`` runs.
    """
    if min_repeats < 1 or max_repeats < min_repeats:
        raise ValueError("need 1 <= min_repeats <= max_repeats")
    for _ in range(warmup):
        fn()
    out = MeasuredTime()
    total = 0.0
    while out.n < max_repeats and (out.n < min_repeats or total < min_total):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        out.samples.append(dt)
        total += dt
    return out


#: Timed rounds of :func:`interleaved_best`.
ROUNDS = 7


def interleaved_best(candidates: Mapping[str, Callable[[], object]]) -> dict[str, float]:
    """Race candidates round-robin; return each one's best time (seconds).

    Every candidate runs once untimed to warm caches and lazy setup, then
    each of :data:`ROUNDS` rounds times every candidate exactly once, in
    mapping order.  The minimum per candidate is the least noise-inflated
    estimate of its cost.
    """
    for fn in candidates.values():
        fn()
    best = {name: math.inf for name in candidates}
    for _ in range(ROUNDS):
        for name, fn in candidates.items():
            t0 = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - t0)
    return best
