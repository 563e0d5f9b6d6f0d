"""Serving-layer suite: admission control, deadlines, retries, the
circuit-breaker ladder, hot swap, and thread-safety of the shared pieces.

The load-bearing invariant mirrors the reliability suite's: a request
either returns a product matching the CSR reference or raises a *typed*
error — never a silently wrong buffer, and never a hang.  Chaos-driven
classes carry the ``chaos`` marker (same CI job as the reliability
chaos classes).
"""

import threading
import time
import warnings

import numpy as np
import pytest

from repro.core.builder import build_cbm
from repro.core.io import save_cbm
from repro.errors import (
    DeadlineExceeded,
    IntegrityError,
    NumericalError,
    OverloadError,
    ParallelError,
    ReproError,
    ServiceUnavailable,
    ServingError,
    ShapeError,
)
from repro.reliability import FallbackWarning, GuardedKernel
from repro.reliability.chaos import corrupt_archive, corrupt_deltas
from repro.reliability.guard import GuardedAdjacency, GuardStats
from repro.runtime.plan import KernelPlan
from repro.serving import (
    AdjacencySlot,
    BreakerState,
    CircuitBreaker,
    Deadline,
    InferenceService,
    RetryPolicy,
    ServeTier,
    is_transient,
    run_soak,
)
from repro.sparse.ops import spmm, spmv

from tests.conftest import HeldService, random_adjacency_csr


class FakeClock:
    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


# ---------------------------------------------------------------------------
# Deadline
# ---------------------------------------------------------------------------

class TestDeadline:
    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            Deadline(0.0)
        with pytest.raises(ValueError):
            Deadline(-1.0)

    def test_remaining_counts_down_and_clamps(self):
        clock = FakeClock()
        d = Deadline(1.0, clock=clock)
        assert d.remaining() == pytest.approx(1.0)
        assert not d.expired
        clock.advance(0.4)
        assert d.remaining() == pytest.approx(0.6)
        assert d.elapsed() == pytest.approx(0.4)
        clock.advance(1.0)
        assert d.remaining() == 0.0
        assert d.expired

    def test_expires_at_is_absolute(self):
        clock = FakeClock(100.0)
        d = Deadline(2.5, clock=clock)
        assert d.expires_at == pytest.approx(102.5)


# ---------------------------------------------------------------------------
# RetryPolicy / is_transient
# ---------------------------------------------------------------------------

class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_s=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(base_s=0.5, cap_s=0.1)

    def test_delays_are_bounded_and_jittered(self):
        policy = RetryPolicy(max_attempts=5, base_s=0.01, cap_s=0.1)
        rng = np.random.default_rng(3)
        gen = policy.delays(rng)
        delays = [next(gen) for _ in range(50)]
        assert all(policy.base_s <= d <= policy.cap_s for d in delays)
        # Decorrelated jitter: not all equal, grows toward the cap.
        assert len(set(delays)) > 10
        assert max(delays) > 0.05

    def test_transient_classification(self):
        assert is_transient(NumericalError("non-finite output"))
        # No served path raises ParallelError: it is not retried.
        assert not is_transient(ParallelError("worker died"))
        rejected = NumericalError("bad operand")
        rejected.input_rejection = True
        assert not is_transient(rejected)
        assert not is_transient(OverloadError("full", retry_after=0.1))
        assert not is_transient(DeadlineExceeded("late"))
        assert not is_transient(ValueError("not a library error"))

    def test_serving_errors_are_repro_errors(self):
        assert issubclass(OverloadError, ServingError)
        assert issubclass(DeadlineExceeded, ReproError)
        assert OverloadError("x", retry_after=0.25).retry_after == 0.25


# ---------------------------------------------------------------------------
# CircuitBreaker
# ---------------------------------------------------------------------------

def _fail(breaker, n):
    for _ in range(n):
        tier, probe = breaker.acquire()
        breaker.record(tier, False, probe=probe)


def _succeed(breaker, n):
    for _ in range(n):
        tier, probe = breaker.acquire()
        breaker.record(tier, True, probe=probe)


class TestCircuitBreaker:
    def _breaker(self, clock, **kw):
        kw.setdefault("window", 8)
        kw.setdefault("failure_threshold", 3)
        kw.setdefault("failure_rate", 0.5)
        kw.setdefault("cooldown_s", 1.0)
        kw.setdefault("max_cooldown_s", 8.0)
        kw.setdefault("probe_budget", 2)
        return CircuitBreaker(clock=clock, **kw)

    def test_starts_closed_fast_and_success_keeps_it_there(self):
        b = self._breaker(FakeClock())
        _succeed(b, 20)
        assert b.state is BreakerState.CLOSED
        assert b.tier is ServeTier.FAST

    def test_trips_one_tier_on_failure_rate(self):
        b = self._breaker(FakeClock())
        _fail(b, 3)
        assert b.state is BreakerState.OPEN
        assert b.tier is ServeTier.GUARDED

    def test_no_probe_before_cooldown(self):
        clock = FakeClock()
        b = self._breaker(clock)
        _fail(b, 3)
        clock.advance(0.5)
        tier, probe = b.acquire()
        assert (tier, probe) == (ServeTier.GUARDED, False)

    def test_half_open_probes_one_tier_faster(self):
        clock = FakeClock()
        b = self._breaker(clock)
        _fail(b, 3)
        clock.advance(1.1)
        tier, probe = b.acquire()
        assert (tier, probe) == (ServeTier.FAST, True)
        assert b.state is BreakerState.HALF_OPEN
        # Beyond the probe budget the safe tier keeps serving.
        b.acquire()
        tier3, probe3 = b.acquire()
        assert (tier3, probe3) == (ServeTier.GUARDED, False)

    def test_failed_probe_reopens_and_doubles_cooldown(self):
        clock = FakeClock()
        b = self._breaker(clock)
        _fail(b, 3)
        clock.advance(1.1)
        tier, probe = b.acquire()
        b.record(tier, False, probe=probe)
        assert b.state is BreakerState.OPEN
        assert b.tier is ServeTier.GUARDED
        assert b.describe()["cooldown_s"] == pytest.approx(2.0)
        # Not yet: doubled cooldown has not elapsed.
        clock.advance(1.5)
        assert b.acquire() == (ServeTier.GUARDED, False)
        clock.advance(1.0)
        assert b.acquire() == (ServeTier.FAST, True)

    def test_probe_budget_successes_promote_to_closed_fast(self):
        clock = FakeClock()
        b = self._breaker(clock)
        _fail(b, 3)
        clock.advance(1.1)
        for _ in range(2):
            tier, probe = b.acquire()
            assert probe
            b.record(tier, True, probe=probe)
        assert b.state is BreakerState.CLOSED
        assert b.tier is ServeTier.FAST

    def test_failures_while_open_still_trip_to_degraded(self):
        b = self._breaker(FakeClock())
        _fail(b, 3)
        assert b.tier is ServeTier.GUARDED
        _fail(b, 3)  # internal fallbacks keep failing while OPEN
        assert b.tier is ServeTier.DEGRADED
        # DEGRADED is the floor: more failures change nothing.
        _fail(b, 5)
        assert b.tier is ServeTier.DEGRADED

    def test_stepwise_recovery_degraded_to_fast(self):
        clock = FakeClock()
        b = self._breaker(clock)
        _fail(b, 3)
        _fail(b, 3)
        assert b.tier is ServeTier.DEGRADED
        clock.advance(1.1)
        for _ in range(2):  # probes run at GUARDED
            tier, probe = b.acquire()
            assert (tier, probe) == (ServeTier.GUARDED, True)
            b.record(tier, True, probe=probe)
        assert b.tier is ServeTier.GUARDED
        assert b.state is BreakerState.OPEN  # re-opened to climb further
        clock.advance(1.1)
        for _ in range(2):  # probes run at FAST
            tier, probe = b.acquire()
            assert (tier, probe) == (ServeTier.FAST, True)
            b.record(tier, True, probe=probe)
        assert b.tier is ServeTier.FAST
        assert b.state is BreakerState.CLOSED
        events = [t["event"] for t in b.transition_log()]
        assert events == ["trip", "trip", "half_open", "promote", "half_open", "promote"]

    def test_stale_probe_outcome_is_ignored(self):
        clock = FakeClock()
        b = self._breaker(clock)
        _fail(b, 3)
        clock.advance(1.1)
        tier, probe = b.acquire()
        assert probe
        # A failed probe reopens the breaker first...
        b.record(ServeTier.FAST, False, probe=True)
        assert b.state is BreakerState.OPEN
        tier_before = b.tier
        # ...so a probe outcome issued before the state change must not
        # promote (it would skip the fresh cooldown).
        b.record(tier, True, probe=True)
        assert b.state is BreakerState.OPEN
        assert b.tier is tier_before

    @pytest.mark.filterwarnings("ignore::repro.reliability.FallbackWarning")
    def test_guard_fallback_is_one_failed_outcome(self):
        # The guard repairs the answer, but the fast path under it
        # failed: the execution records one failure and no success.
        a, slot = _slot()
        corrupt_deltas(slot.cbm, mode="nan", seed=0)
        breaker = _PinnedBreaker(ServeTier.GUARDED)
        x = np.random.default_rng(12).random((40, 4)).astype(np.float32)
        with InferenceService(slot, breaker=breaker) as svc:
            y = svc.submit(x).result(5.0)
        np.testing.assert_allclose(y, spmm(a, x), rtol=1e-5)
        assert breaker.outcomes == [(ServeTier.GUARDED, False, False)]

    @pytest.mark.filterwarnings("ignore::repro.reliability.FallbackWarning")
    def test_probe_whose_guard_fell_back_fails_the_probe(self):
        clock = FakeClock()
        b = CircuitBreaker(
            window=4, failure_threshold=1, cooldown_s=1.0, probe_budget=2, clock=clock
        )
        _fail(b, 2)  # FAST -> GUARDED -> DEGRADED
        assert b.tier is ServeTier.DEGRADED
        clock.advance(1.1)  # half-open: the next execution probes GUARDED
        a, slot = _slot()
        corrupt_deltas(slot.cbm, mode="nan", seed=0)
        x = np.random.default_rng(13).random((40, 4)).astype(np.float32)
        with InferenceService(slot, breaker=b) as svc:
            y = svc.submit(x).result(5.0)
        np.testing.assert_allclose(y, spmm(a, x), rtol=1e-5)
        assert b.transition_log()[-1]["event"] == "probe_failed"
        assert b.tier is ServeTier.DEGRADED
        assert b.state is BreakerState.OPEN


# ---------------------------------------------------------------------------
# Shared GuardStats: thread safety + warning dedup (satellites)
# ---------------------------------------------------------------------------

class TestGuardStatsConcurrency:
    def test_counters_are_exact_under_contention(self):
        stats = GuardStats()
        n_threads, per_thread = 8, 500

        def hammer(seed):
            exc = ParallelError("x") if seed % 2 else NumericalError("y")
            for _ in range(per_thread):
                stats.record_call()
                stats.record_fallback(exc)
                stats.record_input_rejection()
                stats.record_suppressed_warning()

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = stats.snapshot()
        total = n_threads * per_thread
        assert snap["calls"] == total
        assert snap["fallbacks"] == total
        assert snap["input_rejections"] == total
        assert snap["warnings_suppressed"] == total
        assert snap["reasons"] == {
            "ParallelError": total // 2,
            "NumericalError": total // 2,
        }
        stats.reset()
        assert stats.snapshot()["calls"] == 0

    def test_snapshot_is_consistent(self):
        stats = GuardStats()
        stats.record_fallback(ParallelError("x"))
        snap = stats.snapshot()
        assert snap["fallbacks"] == sum(snap["reasons"].values())


class TestFallbackWarningDedup:
    def test_first_verbatim_then_counted(self):
        a = random_adjacency_csr(24, density=0.3, seed=2)
        cbm, _ = build_cbm(a, alpha=0)
        corrupt_deltas(cbm, mode="nan", seed=0)
        guard = GuardedKernel(cbm, source=a)
        x = np.random.default_rng(0).random((24, 4)).astype(np.float32)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(12):
                c = guard.matmul(x)
                np.testing.assert_allclose(c, spmm(a, x), rtol=1e-5)
        fallback_warnings = [w for w in caught if issubclass(w.category, FallbackWarning)]
        # 12 identical failures: one verbatim warning, one power-of-ten
        # summary at the 10th, the rest suppressed.
        assert len(fallback_warnings) == 2
        assert "degrading" in str(fallback_warnings[0].message)
        assert "10 times" in str(fallback_warnings[1].message)
        snap = guard.stats.snapshot()
        assert snap["fallbacks"] == 12
        assert snap["warnings_suppressed"] == 10

    def test_distinct_reasons_warn_separately(self, monkeypatch):
        a = random_adjacency_csr(24, density=0.3, seed=3)
        cbm, _ = build_cbm(a, alpha=0)
        guard = GuardedKernel(cbm, source=a)
        x = np.random.default_rng(1).random((24, 4)).astype(np.float32)

        def drifted(plan, b, **kw):
            return np.zeros((b.shape[0] + 1, b.shape[1]), dtype=np.float32)

        with monkeypatch.context() as m, warnings.catch_warnings(record=True) as caught:
            m.setattr(KernelPlan, "execute", drifted)
            warnings.simplefilter("always")
            c = guard.matmul(x)  # ShapeError reason: the output drifted
        np.testing.assert_allclose(c, spmm(a, x), rtol=1e-5)
        corrupt_deltas(cbm, mode="nan", seed=1)
        serial = GuardedKernel(cbm, source=a, stats=guard.stats)
        with warnings.catch_warnings(record=True) as caught2:
            warnings.simplefilter("always")
            serial.matmul(x)  # NumericalError reason, same shared stats
        assert len([w for w in caught if issubclass(w.category, FallbackWarning)]) == 1
        assert len([w for w in caught2 if issubclass(w.category, FallbackWarning)]) == 1
        assert set(guard.stats.snapshot()["reasons"]) == {"ShapeError", "NumericalError"}


# ---------------------------------------------------------------------------
# InferenceService
# ---------------------------------------------------------------------------

def _slot(n=40, seed=11, alpha=0):
    a = random_adjacency_csr(n, density=0.25, seed=seed)
    return a, AdjacencySlot.from_graph(a, alpha=alpha)


class _SlowService(InferenceService):
    """Deterministic worker slowdown for admission-control tests."""

    compute_delay = 0.15

    def _compute_batch(self, batch, tier):
        time.sleep(self.compute_delay)
        return super()._compute_batch(batch, tier)


class TestInferenceService:
    def test_happy_path_matches_reference(self):
        a, slot = _slot()
        x = np.random.default_rng(0).random((40, 6)).astype(np.float32)
        with InferenceService(slot) as svc:
            y = svc.submit(x).result(5.0)
            np.testing.assert_allclose(y, spmm(a, x), rtol=1e-5)
            assert svc.health()["service"]["completed"] == 1

    def test_vector_requests(self):
        a, slot = _slot()
        v = np.random.default_rng(1).random(40).astype(np.float32)
        with InferenceService(slot) as svc:
            u = svc.submit(v).result(5.0)
            np.testing.assert_allclose(u, spmv(a, v), rtol=1e-5)

    def test_gcn_forward_serving(self):
        from repro.gnn.adjacency import CSRAdjacency
        from repro.gnn.gcn import two_layer_gcn_inference

        a = random_adjacency_csr(40, density=0.25, seed=4)
        slot = AdjacencySlot.from_graph(a, normalized=True)
        rng = np.random.default_rng(5)
        x = rng.random((40, 8)).astype(np.float32)
        w0 = rng.random((8, 6)).astype(np.float32) - 0.5
        w1 = rng.random((6, 3)).astype(np.float32) - 0.5
        expected = two_layer_gcn_inference(CSRAdjacency(slot.source), x, w0, w1)
        with InferenceService(slot, weights=(w0, w1)) as svc:
            y = svc.submit(x).result(5.0)
        np.testing.assert_allclose(y, expected, rtol=1e-4, atol=1e-5)

    def test_not_ready_and_closed_reject(self):
        _, slot = _slot()
        svc = InferenceService(slot)
        x = np.zeros((40, 2), dtype=np.float32)
        with pytest.raises(ServiceUnavailable):
            svc.submit(x)
        svc.start()
        svc.close()
        with pytest.raises(ServiceUnavailable):
            svc.submit(x)
        assert svc.state == "stopped"
        svc.close()  # idempotent

    def test_shape_validation_at_the_door(self):
        _, slot = _slot()
        with InferenceService(slot) as svc:
            with pytest.raises(ShapeError):
                svc.submit(np.zeros((13, 2), dtype=np.float32))
            with pytest.raises(ShapeError):
                svc.submit(np.zeros((40, 2, 2), dtype=np.float32))

    def test_overload_sheds_with_retry_after(self):
        _, slot = _slot()
        svc = _SlowService(slot, queue_capacity=2)
        x = np.random.default_rng(2).random((40, 4)).astype(np.float32)
        with svc:
            futures, sheds = [], []
            for _ in range(8):
                try:
                    futures.append(svc.submit(x))
                except OverloadError as exc:
                    sheds.append(exc)
            assert sheds, "bounded queue never shed"
            assert all(s.retry_after > 0 for s in sheds)
            assert svc.stats.snapshot()["shed"] == len(sheds)
            for f in futures:
                f.result(10.0)  # admitted requests all resolve

    def test_deadline_expires_in_queue(self):
        # The blocker's batch is held until the doomed request's deadline
        # has passed, so the doomed request is dequeued already expired.
        _, slot = _slot()
        svc = HeldService(slot, queue_capacity=4)
        x = np.random.default_rng(3).random((40, 4)).astype(np.float32)
        with svc:
            try:
                blocker = svc.submit(x, deadline_s=5.0)
                assert svc.entered.wait(10.0), "blocker never started"
                doomed = svc.submit(x, deadline_s=0.02)
                time.sleep(0.05)
            finally:
                svc.release.set()
            with pytest.raises(DeadlineExceeded):
                doomed.result(10.0)
            blocker.result(10.0)
            assert svc.stats.snapshot()["deadline_misses"] >= 1

    def test_nan_input_is_client_error_not_breaker_failure(self):
        a, slot = _slot()
        x = np.random.default_rng(4).random((40, 4)).astype(np.float32)
        x[3, 1] = np.nan
        with InferenceService(slot) as svc:
            fut = svc.submit(x)
            with pytest.raises(NumericalError) as ei:
                fut.result(5.0)
            assert getattr(ei.value, "input_rejection", False)
            assert svc.breaker.tier is ServeTier.FAST
            assert svc.breaker.state is BreakerState.CLOSED
            assert svc.stats.snapshot()["input_rejections"] == 1

    def test_transient_failure_is_retried_to_success(self, monkeypatch):
        a, slot = _slot(alpha=2)
        real_execute = KernelPlan.execute
        calls = []

        def fails_once(plan, b, **kw):
            calls.append(b.shape)
            if len(calls) == 1:
                raise NumericalError("injected non-finite product")
            return real_execute(plan, b, **kw)

        monkeypatch.setattr(KernelPlan, "execute", fails_once)
        x = np.random.default_rng(5).random((40, 4)).astype(np.float32)
        with InferenceService(
            slot, retry=RetryPolicy(max_attempts=3, base_s=0.001, cap_s=0.01),
        ) as svc:
            y = svc.submit(x).result(10.0)
        np.testing.assert_allclose(y, spmm(a, x), rtol=1e-4)
        assert svc.stats.snapshot()["retries"] == 1
        assert len(calls) == 2

    @pytest.mark.chaos
    def test_persistent_chaos_trips_to_degraded_but_stays_correct(self):
        a, slot = _slot(n=50, alpha=2)
        x = np.random.default_rng(6).random((50, 4)).astype(np.float32)
        expected = spmm(a, x)
        corrupt_deltas(slot.cbm, mode="nan", seed=0)  # every CBM product fails
        breaker = CircuitBreaker(
            window=8, failure_threshold=2, failure_rate=0.5,
            cooldown_s=30.0, probe_budget=2,  # long cooldown: no recovery here
        )
        with InferenceService(
            slot, breaker=breaker,
            retry=RetryPolicy(max_attempts=1, base_s=0.001, cap_s=0.01),
        ) as svc:
            failures = 0
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", FallbackWarning)
                for _ in range(12):
                    fut = svc.submit(x)
                    try:
                        y = fut.result(10.0)
                    except ReproError:
                        # Fail-fast FAST-tier errors before the breaker
                        # trips are typed and allowed; silent corruption
                        # is not.
                        failures += 1
                        continue
                    np.testing.assert_allclose(y, expected, rtol=1e-4)
        # Once GUARDED/DEGRADED take over, every request succeeds: the
        # typed failures are confined to the pre-trip FAST window.
        assert failures <= 4
        assert breaker.tier is ServeTier.DEGRADED
        events = [t["event"] for t in breaker.transition_log()]
        assert events.count("trip") >= 2

    def test_drain_completes_inflight_work(self):
        _, slot = _slot()
        svc = _SlowService(slot, queue_capacity=8)
        svc.compute_delay = 0.05
        x = np.random.default_rng(7).random((40, 4)).astype(np.float32)
        with svc:
            futures = [svc.submit(x) for _ in range(4)]
            assert svc.drain(timeout=10.0)
            assert all(f.done() for f in futures)
            with pytest.raises(ServiceUnavailable):
                svc.submit(x)  # draining: no new admissions

    def test_health_shape(self):
        _, slot = _slot()
        with InferenceService(slot) as svc:
            h = svc.health()
        for key in ("state", "ready", "queue_depth", "queue_capacity",
                    "breaker", "service", "guard", "generation", "live_workers"):
            assert key in h


class _PinnedBreaker(CircuitBreaker):
    """Serves every execution at one tier: no trips, no probes; records
    the outcomes it is fed."""

    def __init__(self, tier):
        super().__init__()
        self.tier = tier
        self.outcomes = []

    def acquire(self, *, width=1):
        return self.tier, False

    def record(self, tier, ok, *, probe=False):
        self.outcomes.append((tier, ok, probe))


class TestOutputDtypeAcrossTiers:
    """Every tier serves float32 for float32 weights and operands, bitwise
    equal to that tier's kernel called directly on each operand."""

    @pytest.mark.parametrize("batched", [False, True], ids=["unbatched", "batched"])
    @pytest.mark.parametrize("gcn", [True, False], ids=["gcn", "product"])
    @pytest.mark.parametrize("tier", list(ServeTier), ids=lambda t: t.name)
    def test_float32_out_matches_csr_reference(self, tier, gcn, batched):
        from repro.gnn.adjacency import CSRAdjacency
        from repro.gnn.gcn import two_layer_gcn_inference

        a = random_adjacency_csr(40, density=0.25, seed=4)
        slot = AdjacencySlot.from_graph(a, normalized=True)
        rng = np.random.default_rng(5)
        xs = [rng.random((40, 8)).astype(np.float32) for _ in range(2)]
        w0 = rng.random((8, 6)).astype(np.float32) - 0.5
        w1 = rng.random((6, 3)).astype(np.float32) - 0.5
        with InferenceService(
            slot, weights=(w0, w1) if gcn else None, breaker=_PinnedBreaker(tier)
        ) as svc:
            if batched:  # submitted together: they may share a batch
                ys = [f.result(5.0) for f in [svc.submit(x) for x in xs]]
            else:  # each awaited before the next: a batch of one
                ys = [svc.submit(x).result(5.0) for x in xs]
        if tier is ServeTier.DEGRADED:
            kernel = slot.float32_csr()
        else:
            kernel = GuardedAdjacency(GuardedKernel(slot.cbm, strict=True))
        for x, y in zip(xs, ys):
            if gcn:
                want = two_layer_gcn_inference(kernel, x, w0, w1)
                expected = two_layer_gcn_inference(CSRAdjacency(slot.source), x, w0, w1)
            else:
                want = kernel.matmul(x)
                expected = spmm(slot.source, x)
            assert y.dtype == np.float32
            assert np.array_equal(y, want)
            np.testing.assert_allclose(y, expected, rtol=1e-4, atol=1e-5)

    def test_float32_copy_is_lazy_and_shared_with_the_race(self):
        _, slot = _slot()
        assert slot._csr32 is None
        slot.tune(4)
        assert slot.float32_csr() is slot._csr32
        assert slot.float32_csr().a_hat.data.dtype == np.float32


# ---------------------------------------------------------------------------
# Hot swap
# ---------------------------------------------------------------------------

class TestHotSwap:
    def test_swap_archive_serves_the_new_matrix(self, tmp_path):
        a1, slot = _slot(seed=20)
        a2 = random_adjacency_csr(40, density=0.3, seed=21)
        cbm2, _ = build_cbm(a2, alpha=0)
        path = tmp_path / "next.npz"
        save_cbm(path, cbm2)
        x = np.random.default_rng(8).random((40, 4)).astype(np.float32)
        with InferenceService(slot) as svc:
            np.testing.assert_allclose(svc.submit(x).result(5.0), spmm(a1, x), rtol=1e-5)
            info = svc.swap_archive(path, warm_width=4)
            assert info["generation"] == 1
            y = svc.submit(x).result(5.0)
            np.testing.assert_allclose(y, spmm(a2, x), rtol=1e-5)
            assert svc.health()["generation"] == 1
            assert svc.stats.snapshot()["swaps"] == 1

    def test_corrupted_archive_is_rejected_and_old_slot_keeps_serving(self, tmp_path):
        a1, slot = _slot(seed=22)
        a2 = random_adjacency_csr(40, density=0.3, seed=23)
        cbm2, _ = build_cbm(a2, alpha=0)
        path = tmp_path / "bad.npz"
        save_cbm(path, cbm2)
        corrupt_archive(path, array="delta_data", mode="perturb", seed=0)
        x = np.random.default_rng(9).random((40, 4)).astype(np.float32)
        with InferenceService(slot) as svc:
            with pytest.raises(IntegrityError):
                svc.swap_archive(path)
            # Old generation still serving, correctly.
            assert svc.health()["generation"] == 0
            np.testing.assert_allclose(svc.submit(x).result(5.0), spmm(a1, x), rtol=1e-5)

    def test_retire_drains_workspaces(self):
        a, slot = _slot(seed=24)
        x = np.random.default_rng(10).random((40, 4)).astype(np.float32)
        slot.prepare(width=4)
        plan = slot.cbm.plan()
        c = plan.execute(x)  # exercise the pool
        del c
        assert slot.retire() > 0
        # Slot still computes after a drain (pool refills on demand).
        np.testing.assert_allclose(slot.cbm.matmul(x), spmm(a, x), rtol=1e-5)


# ---------------------------------------------------------------------------
# End-to-end mini soak (chaos job)
# ---------------------------------------------------------------------------

@pytest.mark.chaos
def test_mini_soak_end_to_end():
    from repro.graphs.generators import erdos_renyi_graph

    a = erdos_renyi_graph(250, 6.0, seed=13)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FallbackWarning)
        report = run_soak(
            a, clients=4, requests_per_client=8, p=8, deadline_s=2.0,
            recovery_rounds=60, seed=5,
        )
    assert report["checks"]["zero_wrong_results"], report["violations"]
    assert report["checks"]["zero_hung_requests"], report["violations"]
    assert report["checks"]["overload_was_shed"], report["violations"]
    assert report["checks"]["tripped_to_degraded"], report["violations"]
    assert report["checks"]["recovered_to_fast"], report["violations"]
    assert report["ok"]
    # The report is the acceptance evidence: these keys must be present.
    for key in ("phases", "breaker_transitions", "chaos", "service", "guard"):
        assert key in report
    # The GUARDED tier repaired the poisoned slot's products on the way down.
    assert report["guard"]["reasons"].get("NumericalError", 0) > 0
    assert report["chaos"]["poisoned_deltas"] > 0
