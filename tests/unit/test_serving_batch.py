"""Micro-batching stage suite: layout packing, batch formation, the
stacked execution paths, and the CI perf-regression gate.

The load-bearing invariants:

* every member of a batch receives output **bitwise identical** to the
  direct kernel product of its own operand (column-wise independence of
  the kernels plus row-partitioned GEMM stages), and keeps it after
  later batches run;
* a batch never mixes adjacency generations (hot swap closes it early);
* failure isolation is per-batch with per-request attribution — poison
  is charged to the poisoned member only, co-travellers are requeued
  without consuming retry budget;
* the regression gate has teeth: a doctored slow current record fails,
  and zero comparable levels also fails (no silent empty pass).
"""

import importlib.util
import json
import pathlib
import queue
import types
from collections import deque

import numpy as np
import pytest

from repro.errors import (
    DeadlineExceeded,
    NumericalError,
    ShapeError,
)
from repro.gnn.gcn import two_layer_gcn_inference
from repro.reliability.guard import GuardedAdjacency, GuardedKernel
from repro.serving import (
    KIND_GCN,
    KIND_PRODUCT,
    AdjacencySlot,
    BatchCollector,
    BatchConfig,
    BatchLayout,
    CircuitBreaker,
    Deadline,
    InferenceService,
    RetryPolicy,
    ServeTier,
    quantize_columns,
)
from repro.staticcheck import analyze_batch_layout
from repro.sparse.ops import spmm, spmv

from tests.conftest import HeldService, random_adjacency_csr

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent


class FakeClock:
    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class FakeRequest:
    """Just the attributes the collector reads: kind and width."""

    def __init__(self, width=1, kind=KIND_PRODUCT):
        self.kind = kind
        self.width = width


class ScriptedQueue:
    """Queue stand-in that serves a scripted item list.

    ``get_nowait`` raises ``Empty`` once the script is exhausted, as a
    real empty queue would; a blocking ``get`` on an exhausted script
    would hang a real worker forever, so it fails the test instead.
    """

    def __init__(self, items):
        self.items = deque(items)

    def get(self):
        if self.items:
            return self.items.popleft()
        raise AssertionError("collector blocked on an exhausted scripted queue")

    def get_nowait(self):
        if self.items:
            return self.items.popleft()
        raise queue.Empty


def make_collector(items, cfg):
    return BatchCollector(ScriptedQueue(items), cfg)


SLOT_G0 = types.SimpleNamespace(generation=0)


# ---------------------------------------------------------------------------
# Layout packing and quantisation
# ---------------------------------------------------------------------------
class TestLayout:
    def test_quantize_rounds_up(self):
        assert quantize_columns(1, 8) == 8
        assert quantize_columns(8, 8) == 8
        assert quantize_columns(9, 8) == 16
        assert quantize_columns(5, 1) == 5

    def test_quantize_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            quantize_columns(0, 8)
        with pytest.raises((ValueError, TypeError)):
            quantize_columns(4, 0)

    def test_pack_is_dense_left_to_right(self):
        layout = BatchLayout.pack([2, 1, 3], quantum=8, n_rows=7)
        assert layout.members == ((0, 2), (2, 1), (3, 3))
        assert layout.spans() == [(0, 2), (2, 3), (3, 6)]
        assert layout.used_columns == 6
        assert layout.total_columns == 8
        assert layout.padding_columns == 2
        assert layout.n_rows == 7

    def test_pack_without_quantum_has_no_padding(self):
        layout = BatchLayout.pack([4, 4])
        assert layout.total_columns == 8
        assert layout.padding_columns == 0

    def test_config_validation(self):
        with pytest.raises((ValueError, TypeError)):
            BatchConfig(max_columns=0)
        with pytest.raises((ValueError, TypeError)):
            BatchConfig(latency_budget_s=0)
        with pytest.raises((ValueError, TypeError)):
            BatchConfig(quantum=0)


# ---------------------------------------------------------------------------
# Batch formation (scripted queue: the collector never waits)
# ---------------------------------------------------------------------------
class TestCollector:
    def test_queued_requests_coalesce_without_waiting(self):
        cfg = BatchConfig(max_columns=64)
        reqs = [FakeRequest(width=2) for _ in range(3)]
        collector = make_collector(reqs, cfg)
        batch = collector.next_batch(lambda: SLOT_G0)
        assert batch.members == reqs
        assert batch.width == 6
        assert batch.generation == 0
        assert collector.stats.snapshot()["batches"] == 1

    def test_width_close_at_exact_cap(self):
        cfg = BatchConfig(max_columns=4)
        reqs = [FakeRequest(width=2), FakeRequest(width=2)]
        collector = make_collector(reqs, cfg)
        batch = collector.next_batch(lambda: SLOT_G0)
        assert batch.width == 4
        assert collector.stats.snapshot()["width_closes"] == 1

    def test_width_overflow_goes_to_pending_and_seeds_next_batch(self):
        cfg = BatchConfig(max_columns=4)
        reqs = [FakeRequest(width=3), FakeRequest(width=3)]
        collector = make_collector(reqs, cfg)
        first = collector.next_batch(lambda: SLOT_G0)
        assert first.members == [reqs[0]]
        assert collector.stats.snapshot()["width_closes"] == 1
        assert collector.pending_count() == 1
        second = collector.next_batch(lambda: SLOT_G0)
        assert second.members == [reqs[1]]
        assert collector.pending_count() == 0

    def test_kind_mismatch_parks_request_without_closing(self):
        cfg = BatchConfig(max_columns=64)
        product = FakeRequest(width=2, kind=KIND_PRODUCT)
        gcn = FakeRequest(width=2, kind=KIND_GCN)
        collector = make_collector([product, gcn], cfg)
        first = collector.next_batch(lambda: SLOT_G0)
        assert first.kind == KIND_PRODUCT
        assert first.members == [product]
        # The GCN request was parked, not dropped, and width_closes was
        # not charged for a *kind* mismatch.
        assert collector.stats.snapshot()["width_closes"] == 0
        assert collector.pending_count() == 1
        second = collector.next_batch(lambda: SLOT_G0)
        assert second.kind == KIND_GCN
        assert second.members == [gcn]

    def test_swap_mid_collection_closes_batch(self):
        cfg = BatchConfig(max_columns=64)
        reqs = [FakeRequest(width=1) for _ in range(2)]
        slot = types.SimpleNamespace(generation=0)

        calls = [0]

        def current_slot():
            # Generation flips right after the batch binds its slot.
            calls[0] += 1
            if calls[0] > 1:
                slot.generation = 1
            return slot

        collector = make_collector(reqs, cfg)
        batch = collector.next_batch(current_slot)
        assert batch.generation == 0
        assert batch.members == [reqs[0]]
        assert collector.stats.snapshot()["swap_closes"] == 1
        # The second request is still in the scripted queue, untouched.

    def test_pill_swallowed_mid_collection_is_credited_back(self):
        cfg = BatchConfig(max_columns=64)
        req = FakeRequest(width=1)
        collector = make_collector([req, None], cfg)
        batch = collector.next_batch(lambda: SLOT_G0)
        assert batch.members == [req]
        # The swallowed shutdown pill is delivered on the next call.
        assert collector.next_batch(lambda: SLOT_G0) is None

    def test_pill_as_first_item_returns_none(self):
        collector = make_collector([None], BatchConfig())
        assert collector.next_batch(lambda: SLOT_G0) is None

    def test_requeue_prefers_pending_over_fresh(self):
        cfg = BatchConfig(max_columns=64)
        fresh = FakeRequest(width=1)
        retry = FakeRequest(width=1)
        collector = make_collector([fresh], cfg)
        collector.requeue([retry])
        batch = collector.next_batch(lambda: SLOT_G0)
        # The requeued retry seeds the batch; the fresh arrival joins it.
        assert batch.members[0] is retry
        assert fresh in batch.members
        assert collector.stats.snapshot()["requeued"] == 1

    def test_drain_pending_empties_the_deque(self):
        collector = make_collector([], BatchConfig())
        reqs = [FakeRequest() for _ in range(3)]
        collector.requeue(reqs)
        assert collector.pending_count() == 3
        assert collector.drain_pending() == reqs
        assert collector.pending_count() == 0


# ---------------------------------------------------------------------------
# Stacked execution: bitwise parity with the direct kernel products
# ---------------------------------------------------------------------------
def _slot_pair(n=40, seed=7, alpha=2):
    a = random_adjacency_csr(n, 0.15, seed)
    return a, AdjacencySlot.from_graph(a, alpha=alpha)


class TestBatchedParity:
    def test_product_batched_equals_unbatched_bitwise(self):
        a, slot = _slot_pair()
        rng = np.random.default_rng(0)
        # Mixed widths and a 1-D vector rider in the same workload.
        operands = [
            rng.standard_normal((a.shape[0], w)).astype(np.float32)
            for w in (1, 3, 2, 5)
        ] + [rng.standard_normal(a.shape[0]).astype(np.float32)]
        with InferenceService(slot, seed=3) as svc:
            futures = [svc.submit(x) for x in operands]
            results = [f.result(30.0) for f in futures]
        # Reference: the direct kernel product of each operand alone.
        guard = GuardedKernel(slot.cbm, strict=True)
        for x, y in zip(operands, results):
            want = guard.matvec(x) if x.ndim == 1 else guard.matmul(x)
            assert y.shape == want.shape
            assert np.array_equal(y, want)
            # Numerically equal to the CSR reference (the CBM kernel
            # accumulates in a different order, so tolerance-based).
            ref = spmv(a, x) if x.ndim == 1 else spmm(a, x)
            np.testing.assert_allclose(y, ref, rtol=1e-4, atol=1e-4)

    def test_gcn_batched_equals_unbatched(self):
        a, _ = _slot_pair()
        rng = np.random.default_rng(1)
        p, hidden, classes = 3, 4, 2
        weights = (
            rng.standard_normal((p, hidden)).astype(np.float32),
            rng.standard_normal((hidden, classes)).astype(np.float32),
        )
        xs = [
            rng.standard_normal((a.shape[0], p)).astype(np.float32)
            for _ in range(6)
        ]
        slot = AdjacencySlot.from_graph(a, alpha=2, normalized=True)
        svc = InferenceService(slot, weights=weights, seed=3)
        with svc:
            futures = [svc.submit(x) for x in xs]
            results = [f.result(30.0) for f in futures]
        snap = svc.stats.snapshot()
        assert snap["coalesced"] > 0, "batch never formed; parity untested"
        adj = GuardedAdjacency(GuardedKernel(slot.cbm, strict=True))
        for x, y in zip(xs, results):
            assert np.array_equal(y, two_layer_gcn_inference(adj, x, *weights))

    def test_answers_survive_later_batches(self):
        # A member alone at a multiple of the quantum fills the whole
        # stacked width, so its answer is a view of the stacked product.
        # That product must never be handed to a later batch as its
        # stacked operand, or the later request overwrites this answer.
        a, slot = _slot_pair()
        cfg = BatchConfig()
        rng = np.random.default_rng(9)
        xs = [
            rng.standard_normal((a.shape[0], 2 * cfg.quantum)).astype(np.float32)
            for _ in range(4)
        ]
        with InferenceService(slot, batch=cfg) as svc:
            ys = [svc.submit(x).result(30.0) for x in xs]
        guard = GuardedKernel(slot.cbm, strict=True)
        for x, y in zip(xs, ys):
            assert np.array_equal(y, guard.matmul(x))

    def test_gcn_rejects_wrong_feature_width(self):
        a, _ = _slot_pair()
        slot = AdjacencySlot.from_graph(a, alpha=0, normalized=True)
        rng = np.random.default_rng(2)
        weights = (
            rng.standard_normal((3, 4)).astype(np.float32),
            rng.standard_normal((4, 2)).astype(np.float32),
        )
        with InferenceService(slot, weights=weights) as svc:
            with pytest.raises(ShapeError):
                svc.submit(np.ones((a.shape[0], 5), dtype=np.float32))
            with pytest.raises(ShapeError):
                svc.submit(np.ones(a.shape[0], dtype=np.float32))

    def test_expired_deadline_rejected_per_member(self):
        _, slot = _slot_pair()
        x = np.ones((slot.cbm.shape[1], 2), dtype=np.float32)
        with InferenceService(slot) as svc:
            svc.submit(x).result(30.0)  # warm: plan build off the hot path
            fut = svc.submit(x, deadline_s=1e-6)
            with pytest.raises(DeadlineExceeded):
                fut.result(30.0)
        assert svc.stats.snapshot()["deadline_misses"] >= 1

    def test_single_batched_compute_worker(self):
        # The batch IS the concurrency: more compute threads only convoy
        # on the GIL, so the service runs exactly one worker.
        _, slot = _slot_pair()
        with InferenceService(slot) as svc:
            health = svc.health()
            assert health["live_workers"] == 1
            assert health["batching"]["pending"] == 0
            assert "batches" in health["batching"]["collector"]

    def test_retry_after_counts_the_one_batched_compute_thread(self):
        # Eight queued requests at 10 ms each drain in 80 ms on the one
        # compute thread.
        _, slot = _slot_pair()
        svc = InferenceService(slot, queue_capacity=16)
        svc._observe_latency(0.010)
        for _ in range(8):
            svc._queue.put_nowait(object())
        assert svc.retry_after_estimate() == pytest.approx(0.08)


class TestWorkConserving:
    def test_lone_request_never_waits_for_company(self):
        # The budget would hold this batch open for 5 s if the collector
        # waited for co-travellers; a free worker runs it at once.
        _, slot = _slot_pair()
        slot.prepare()
        x = np.ones((slot.cbm.shape[1], 2), dtype=np.float32)
        with InferenceService(slot, batch=BatchConfig(latency_budget_s=5.0)) as svc:
            y = svc.submit(x).result(timeout=1.0)
        np.testing.assert_allclose(y, spmm(slot.source, x), rtol=1e-4, atol=1e-4)

    def test_requests_queued_during_a_forward_form_the_next_batch(self):
        a, slot = _slot_pair()
        rng = np.random.default_rng(8)
        xs = [rng.standard_normal((a.shape[0], 2)).astype(np.float32) for _ in range(6)]
        k = len(xs) - 1
        svc = HeldService(slot, seed=2)
        with svc:
            try:
                first = svc.submit(xs[0])
                assert svc.entered.wait(10.0), "first batch never started"
                rest = [svc.submit(x) for x in xs[1:]]
            finally:
                svc.release.set()
            ys = [f.result(10.0) for f in (first, *rest)]
        snap = svc.stats.snapshot()
        assert snap["batches"] == 2
        assert snap["coalesced"] == k
        for x, y in zip(xs, ys):
            np.testing.assert_allclose(y, spmm(a, x), rtol=1e-4, atol=1e-4)


# ---------------------------------------------------------------------------
# Failure isolation and attribution
# ---------------------------------------------------------------------------
class TestBatchFailureIsolation:
    def test_poisoned_member_attributed_co_travellers_survive(self):
        a, slot = _slot_pair()
        rng = np.random.default_rng(4)
        clean_x = [
            rng.standard_normal((a.shape[0], 2)).astype(np.float32) for _ in range(3)
        ]
        poison = np.full((a.shape[0], 2), np.nan, dtype=np.float32)
        with InferenceService(slot, seed=5) as svc:
            svc.submit(clean_x[0]).result(30.0)  # warm outside the poisoned batch
            futures = [svc.submit(x) for x in (clean_x[0], poison, *clean_x[1:])]
            results = []
            for i, fut in enumerate(futures):
                if i == 1:
                    with pytest.raises(NumericalError) as err:
                        fut.result(30.0)
                    assert getattr(err.value, "input_rejection", False)
                else:
                    results.append(fut.result(30.0))
        for x, y in zip([clean_x[0], *clean_x[1:]], results):
            np.testing.assert_allclose(y, spmm(a, x), rtol=1e-4, atol=1e-4)
        snap = svc.stats.snapshot()
        assert snap["input_rejections"] >= 1

    def test_batch_victims_requeue_without_attempt_charge(self):
        # Drive _attribute_poison directly: a poisoned member plus a
        # clean co-traveller — the co-traveller re-enters the collector
        # with attempts untouched.
        _, slot = _slot_pair()
        svc = InferenceService(slot)
        from repro.serving.batching import Batch
        from repro.serving.service import _Request

        clock = FakeClock()
        poisoned = _Request(
            np.full((slot.cbm.shape[1], 1), np.nan, dtype=np.float32),
            Deadline(10.0, clock=clock),
            vector=False,
        )
        clean = _Request(
            np.ones((slot.cbm.shape[1], 1), dtype=np.float32),
            Deadline(10.0, clock=clock),
            vector=False,
        )
        batch = Batch(slot, KIND_PRODUCT)
        batch.members = [poisoned, clean]
        err = NumericalError("stacked operand contains NaN/Inf")
        err.input_rejection = True
        svc._attribute_poison(batch, err)

        assert poisoned.future.done()
        rejected = poisoned.future.exception(0)
        assert isinstance(rejected, NumericalError)
        assert getattr(rejected, "input_rejection", False)
        assert not clean.future.done()
        assert clean.attempts == 0
        assert svc._collector.pending_count() == 1
        assert svc.stats.snapshot()["batch_victims"] == 1

    def test_transient_batch_failure_requeues_with_attempt_charge(self):
        _, slot = _slot_pair()
        svc = InferenceService(
            slot, retry=RetryPolicy(max_attempts=3, base_s=0.0001, cap_s=0.001)
        )
        from repro.serving.batching import Batch
        from repro.serving.service import _Request

        clock = FakeClock()
        fresh = _Request(
            np.ones((slot.cbm.shape[1], 1), dtype=np.float32),
            Deadline(10.0, clock=clock),
            vector=False,
        )
        exhausted = _Request(
            np.ones((slot.cbm.shape[1], 1), dtype=np.float32),
            Deadline(10.0, clock=clock),
            vector=False,
        )
        exhausted.attempts = 2  # this charge is its last allowed attempt
        batch = Batch(slot, KIND_PRODUCT)
        batch.members = [fresh, exhausted]
        svc._retry_or_fail_batch(
            batch, NumericalError("non-finite product"), np.random.default_rng(0)
        )

        # Both charged one attempt; only the one with budget re-enters.
        assert fresh.attempts == 1
        assert exhausted.attempts == 3
        assert not fresh.future.done()
        assert svc._collector.pending_count() == 1
        assert isinstance(exhausted.future.exception(0), NumericalError)
        snap = svc.stats.snapshot()
        assert snap["retries"] == 1
        assert snap["failed"] == 1

    def test_swap_mid_stream_keeps_generations_pure(self):
        a0 = random_adjacency_csr(40, 0.15, 11)
        a1 = random_adjacency_csr(40, 0.15, 12)
        slot0 = AdjacencySlot.from_graph(a0, alpha=2)
        rng = np.random.default_rng(6)
        xs = [
            rng.standard_normal((40, 2)).astype(np.float32) for _ in range(8)
        ]
        refs = {0: a0, 1: a1}
        with InferenceService(slot0, seed=7) as svc:
            futures = [svc.submit(x) for x in xs[:4]]
            svc.swap_slot(AdjacencySlot.from_graph(a1, alpha=2))
            futures += [svc.submit(x) for x in xs[4:]]
            for x, fut in zip(xs, futures):
                y = fut.result(30.0)
                gen = fut.generation
                assert gen in refs
                # The result matches the adjacency of the generation the
                # batch executed against — never a mixture.  (The two
                # random graphs differ far beyond float tolerance, so a
                # close match to the wrong generation is impossible.)
                np.testing.assert_allclose(y, spmm(refs[gen], x), rtol=1e-4, atol=1e-4)


# ---------------------------------------------------------------------------
# Breaker probe width and pooled stacked buffers
# ---------------------------------------------------------------------------
class TestProbeWidthAndPool:
    def test_probe_width_bounds_half_open_probes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=2,
            window=4,
            cooldown_s=0.5,
            probe_width=4,
            clock=clock,
        )
        for _ in range(2):
            tier, probe = breaker.acquire(width=1)
            breaker.record(tier, False, probe=probe)
        assert breaker.tier is not ServeTier.FAST
        clock.advance(1.0)  # cooldown elapses -> HALF_OPEN
        # A wide stacked batch never carries the probe; narrow ones do.
        tier_wide, probe_wide = breaker.acquire(width=32)
        assert not probe_wide
        tier_narrow, probe_narrow = breaker.acquire(width=4)
        assert probe_narrow

    def test_stacked_operand_padding_zero_filled_after_reuse(self):
        _, slot = _slot_pair()
        plan = slot.cbm.plan()
        xs = plan.stacked_operand(5, np.float32, quantum=8)
        assert xs.shape[1] == 8
        assert np.all(xs[:, 5:] == 0.0)
        xs[:] = np.nan  # dirty the whole buffer, including padding
        plan.release(xs)
        again = plan.stacked_operand(3, np.float32, quantum=8)
        # Recycled garbage in padding would feed the kernels: must be
        # re-zeroed on every acquire.
        assert np.all(again[:, 3:] == 0.0)
        plan.release(again)


# ---------------------------------------------------------------------------
# Static hazards on stacked layouts
# ---------------------------------------------------------------------------
class TestBatchLayoutHazards:
    def test_clean_packed_layout_passes(self):
        report = analyze_batch_layout(BatchLayout.pack([2, 3, 1], quantum=8))
        assert report.ok
        assert report.checks["batch.disjoint"]
        assert report.checks["batch.widths"]

    def test_overlap_is_cross_member_aliasing(self):
        layout = BatchLayout(members=((0, 4), (2, 4)), total_columns=8)
        report = analyze_batch_layout(layout)
        assert report.has("HZ-X001")
        assert not report.checks["batch.disjoint"]

    def test_out_of_bounds_span(self):
        layout = BatchLayout(members=((0, 4), (4, 8)), total_columns=8)
        report = analyze_batch_layout(layout)
        assert report.has("HZ-X002")

    def test_uninitialised_gap(self):
        layout = BatchLayout(members=((0, 2), (4, 2)), total_columns=8)
        report = analyze_batch_layout(layout)
        assert report.has("HZ-X003")

    def test_zero_width_member(self):
        layout = BatchLayout(members=((0, 0), (0, 2)), total_columns=8)
        report = analyze_batch_layout(layout)
        assert report.has("HZ-X004")
        assert not report.checks["batch.widths"]


# ---------------------------------------------------------------------------
# Regression gate (benchmarks/check_regression.py)
# ---------------------------------------------------------------------------
def _load_gate():
    path = REPO_ROOT / "benchmarks" / "check_regression.py"
    spec = importlib.util.spec_from_file_location("check_regression", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _record(dataset="Cora", rps=(1000.0, 2000.0), calibration=5000.0):
    return {
        "workload": {"dataset": dataset},
        "calibration_rps": calibration,
        "levels": [
            {"concurrency": c, "batched": {"rps": r}}
            for c, r in zip((4, 16), rps)
        ],
    }


class TestRegressionGate:
    def test_identical_records_pass(self):
        gate = _load_gate()
        report = gate.compare(_record(), _record())
        assert report["ok"]
        assert report["compared"] == 2
        assert all(row["change"] == 0.0 for row in report["rows"])

    def test_negative_control_doctored_slowdown_fails(self):
        # The acceptance criterion's negative control: a current record
        # 40% slower than baseline must trip the 15% gate.
        gate = _load_gate()
        slow = _record(rps=(600.0, 1200.0))
        report = gate.compare(slow, _record())
        assert not report["ok"]
        assert report["failures"] == 2
        assert all(row["status"] == "regressed" for row in report["rows"])

    def test_within_threshold_passes(self):
        gate = _load_gate()
        slightly_slow = _record(rps=(900.0, 1800.0))  # -10%, inside 15%
        report = gate.compare(slightly_slow, _record())
        assert report["ok"]

    def test_zero_comparable_levels_fails(self):
        # "Nothing matched, nothing failed" must not pass silently.
        gate = _load_gate()
        report = gate.compare(_record(dataset="PubMed"), _record(dataset="Cora"))
        assert not report["ok"]
        assert report["compared"] == 0
        assert all(row["status"] == "missing-in-current" for row in report["rows"])

    def test_calibration_normalisation_forgives_slow_machines(self):
        # A CI runner half the speed of the baseline machine scales rps
        # and calibration together: normalised passes, absolute fails.
        gate = _load_gate()
        slow_machine = _record(rps=(500.0, 1000.0), calibration=2500.0)
        assert gate.compare(slow_machine, _record())["ok"]
        assert not gate.compare(slow_machine, _record(), absolute=True)["ok"]

    def test_main_exit_codes(self, tmp_path):
        gate = _load_gate()
        cur = tmp_path / "cur.json"
        base = tmp_path / "base.json"
        base.write_text(json.dumps(_record()))
        cur.write_text(json.dumps(_record(rps=(500.0, 900.0))))
        assert gate.main(["--current", str(cur), "--baseline", str(base)]) == 1
        cur.write_text(json.dumps(_record()))
        assert gate.main(["--current", str(cur), "--baseline", str(base)]) == 0

    def test_committed_baseline_is_comparable_to_smoke_output(self):
        # The committed baseline must stay structurally valid — the gate
        # should find comparable levels when handed the baseline itself.
        gate = _load_gate()
        baseline = json.loads(
            (REPO_ROOT / "benchmarks" / "baselines" / "serving_batch_smoke.json")
            .read_text()
        )
        report = gate.compare(baseline, baseline)
        assert report["ok"]
        assert report["compared"] >= 1
