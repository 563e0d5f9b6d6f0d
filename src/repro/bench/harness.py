"""Timing protocol for kernel comparisons.

The paper times each kernel 250 times and reports mean ± std.  Here one
kernel is timed with the adaptive :func:`repro.utils.timing.measure`,
and :func:`compare` times two round by round, so host drift lands on
both alike.  Alongside wall-clock, every comparison carries
deterministic scalar-operation counts, which are the quantity the
paper's Properties 1–2 actually bound and which do not suffer from
host noise.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro.utils.timing import MeasuredTime, measure


@dataclass(frozen=True)
class BenchResult:
    """One timed kernel: wall-clock distribution plus op count."""

    name: str
    time: MeasuredTime
    scalar_ops: int | None = None

    @property
    def mean_s(self) -> float:
        return self.time.mean

    @property
    def std_s(self) -> float:
        return self.time.std


def time_kernel(
    name: str,
    fn: Callable[[], object],
    *,
    scalar_ops: int | None = None,
    repeats: int = 10,
    min_total: float = 0.25,
) -> BenchResult:
    """Measure ``fn`` with warmup; returns the sample distribution."""
    t = measure(fn, warmup=1, min_repeats=3, max_repeats=repeats, min_total=min_total)
    return BenchResult(name=name, time=t, scalar_ops=scalar_ops)


@dataclass(frozen=True)
class Comparison:
    """Baseline-vs-candidate outcome (the paper's speedup metric)."""

    baseline: BenchResult
    candidate: BenchResult

    @property
    def speedup(self) -> float:
        """``T_baseline / T_candidate`` — >1 means the candidate wins."""
        return self.baseline.mean_s / self.candidate.mean_s

    @property
    def ops_ratio(self) -> float | None:
        """Scalar-operation ratio, when both sides carry counts."""
        if self.baseline.scalar_ops is None or self.candidate.scalar_ops is None:
            return None
        if self.candidate.scalar_ops == 0:
            return float("inf")
        return self.baseline.scalar_ops / self.candidate.scalar_ops


def compare(
    baseline_name: str,
    baseline_fn: Callable[[], object],
    candidate_name: str,
    candidate_fn: Callable[[], object],
    *,
    baseline_ops: int | None = None,
    candidate_ops: int | None = None,
    repeats: int = 10,
    min_total: float = 0.25,
) -> Comparison:
    """Time two kernels round by round under the same protocol.

    Both run once untimed, then every round times each once, alternating
    which goes first, until both have at least three samples and
    ``min_total`` seconds, for at most ``repeats`` rounds.  Two
    sequential passes would put host drift (±20% on a shared host) on
    one side only.
    """
    if repeats < 3:
        raise ValueError("need repeats >= 3")
    fns = (baseline_fn, candidate_fn)
    times = (MeasuredTime(), MeasuredTime())
    totals = [0.0, 0.0]
    for fn in fns:
        fn()
    for rounds in range(repeats):
        if rounds >= 3 and min(totals) >= min_total:
            break
        for side in (0, 1) if rounds % 2 == 0 else (1, 0):
            t0 = time.perf_counter()
            fns[side]()
            dt = time.perf_counter() - t0
            times[side].samples.append(dt)
            totals[side] += dt
    return Comparison(
        baseline=BenchResult(baseline_name, times[0], baseline_ops),
        candidate=BenchResult(candidate_name, times[1], candidate_ops),
    )
