"""Unit tests for the timing harness."""

from types import SimpleNamespace

import pytest

from repro.bench import harness
from repro.bench.harness import BenchResult, compare, time_kernel
from repro.utils.timing import MeasuredTime


class TestTimeKernel:
    def test_collects_samples(self):
        r = time_kernel("noop", lambda: None, repeats=4, min_total=0.0)
        assert r.name == "noop"
        assert r.time.n >= 3
        assert r.mean_s >= 0.0

    def test_scalar_ops_carried(self):
        r = time_kernel("k", lambda: None, scalar_ops=123, repeats=3, min_total=0.0)
        assert r.scalar_ops == 123


class TestCompare:
    def test_speedup_direction(self):
        import time

        cmp_ = compare(
            "slow",
            lambda: time.sleep(0.004),
            "fast",
            lambda: None,
            repeats=3,
            min_total=0.0,
        )
        assert cmp_.speedup > 1.0

    def test_ops_ratio(self):
        cmp_ = compare(
            "b", lambda: None, "c", lambda: None,
            baseline_ops=100, candidate_ops=50, repeats=3, min_total=0.0,
        )
        assert cmp_.ops_ratio == 2.0

    def test_ops_ratio_none_when_missing(self):
        cmp_ = compare("b", lambda: None, "c", lambda: None, repeats=3, min_total=0.0)
        assert cmp_.ops_ratio is None

    def test_rounds_alternate_so_both_sides_see_the_same_drift(self, monkeypatch):
        """One kernel on both sides, on a host that slows down with every
        call: the shared counter's drift cancels instead of landing on
        the side timed second."""
        clock = SimpleNamespace(t=0.0)
        monkeypatch.setattr(harness, "time", SimpleNamespace(perf_counter=lambda: clock.t))
        drift = SimpleNamespace(calls=0)

        def kernel():
            drift.calls += 1
            clock.t += drift.calls

        cmp_ = compare("a", kernel, "b", kernel, repeats=10, min_total=float("inf"))
        base, cand = cmp_.baseline.time.samples, cmp_.candidate.time.samples
        # Two untimed warm-ups, then calls 3..22 in ten rounds of two.
        assert sorted(base + cand) == list(range(3, 23))
        assert [b - c for b, c in zip(base, cand, strict=True)] == [-1, 1] * 5
        assert cmp_.speedup == 1.0

    def test_stops_once_both_sides_have_min_total(self):
        cmp_ = compare("b", lambda: None, "c", lambda: None, repeats=50, min_total=0.0)
        assert cmp_.baseline.time.n == cmp_.candidate.time.n == 3
        with pytest.raises(ValueError):
            compare("b", lambda: None, "c", lambda: None, repeats=2)

    def test_zero_candidate_ops(self):
        cmp_ = compare(
            "b", lambda: None, "c", lambda: None,
            baseline_ops=10, candidate_ops=0, repeats=3, min_total=0.0,
        )
        assert cmp_.ops_ratio == float("inf")


class TestBenchResult:
    def test_stats_passthrough(self):
        r = BenchResult("x", MeasuredTime(samples=[1.0, 3.0]))
        assert r.mean_s == 2.0
        assert r.std_s == pytest.approx(2.0**0.5)
