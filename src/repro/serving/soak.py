"""Chaos-under-load soak: correctness and liveness of the serving layer.

The harness drives an :class:`~repro.serving.service.InferenceService`
with concurrent client threads through three phases:

1. **healthy** — no faults; establishes the baseline and proves the
   breaker stays CLOSED at :attr:`ServeTier.FAST`;
2. **chaos** — the service hot-swaps (:meth:`InferenceService.swap_slot`)
   to a slot of the same graph whose CBM deltas are NaN-poisoned
   (:func:`~repro.reliability.chaos.corrupt_deltas`), and a fraction of
   requests carry NaN-poisoned operands; every CBM product now fails, so
   the breaker must walk the ladder down to :attr:`ServeTier.DEGRADED`
   while every *successful* response stays bit-comparable to the CSR
   reference;
3. **recovery** — the healthy slot is swapped back and light traffic
   drives the half-open probes until the breaker climbs back to FAST.

Two invariants are checked for every request in every phase:

* **no silent corruption** — each successful result is verified against
  ``spmm(source, x)`` computed independently by the client thread;
* **no hung requests** — every submitted request resolves (result or
  typed error) within its deadline budget plus a small grace window.

:func:`run_soak` returns a JSON-ready report (phase latencies, shed /
retry / breaker-transition counts, guard stats, violations list); the
CLI ``serve-bench`` subcommand and ``benchmarks/bench_serving_soak.py``
are thin wrappers over it.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.core.builder import build_cbm
from repro.errors import (
    DeadlineExceeded,
    NumericalError,
    OverloadError,
    ReproError,
)
from repro.reliability.chaos import corrupt_deltas, inject_nan
from repro.serving.backoff import RetryPolicy
from repro.serving.batching import BatchConfig
from repro.serving.breaker import CircuitBreaker, ServeTier
from repro.serving.service import AdjacencySlot, InferenceService
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import spmm, spmv


class _PhaseTally:
    """Per-phase outcome counters + latency samples (lock-protected)."""

    def __init__(self, name: str):
        self.name = name
        self.lock = threading.Lock()
        self.ok = 0
        self.wrong = 0
        self.cross_gen = 0
        self.shed = 0
        self.deadline = 0
        self.rejected = 0
        self.error = 0
        self.hung = 0
        self.latencies: list[float] = []
        self.violations: list[str] = []

    def summary(self) -> dict:
        lat = np.asarray(self.latencies, dtype=np.float64)
        return {
            "phase": self.name,
            "ok": self.ok,
            "wrong": self.wrong,
            "cross_generation": self.cross_gen,
            "shed": self.shed,
            "deadline_misses": self.deadline,
            "input_rejected": self.rejected,
            "errors": self.error,
            "hung": self.hung,
            "requests": self.ok + self.wrong + self.shed + self.deadline
            + self.rejected + self.error + self.hung,
            "latency_p50_ms": float(np.percentile(lat, 50) * 1e3) if lat.size else None,
            "latency_p99_ms": float(np.percentile(lat, 99) * 1e3) if lat.size else None,
        }


def _client(
    service: InferenceService,
    source: CSRMatrix,
    tally: _PhaseTally,
    *,
    requests: int,
    p: int,
    deadline_s: float,
    nan_fraction: float,
    seed: int,
) -> None:
    """One client thread: submit, wait, verify against the CSR reference."""
    rng = np.random.default_rng(seed)
    n = source.shape[1]
    for i in range(requests):
        x = rng.standard_normal((n, p)).astype(np.float32)
        poisoned = nan_fraction > 0.0 and rng.random() < nan_fraction
        if poisoned:
            x = inject_nan(x, fraction=0.01, seed=seed * 1009 + i)
        t0 = time.monotonic()
        try:
            future = service.submit(x, deadline_s=deadline_s)
        except OverloadError as exc:
            with tally.lock:
                tally.shed += 1
            time.sleep(min(exc.retry_after, 0.05))
            continue
        try:
            # Grace beyond the budget covers a product that started just
            # before the deadline; anything slower is a liveness violation.
            y = future.result(timeout=deadline_s + 5.0)
        except TimeoutError:
            with tally.lock:
                tally.hung += 1
                tally.violations.append(
                    f"{tally.name}: request did not resolve within "
                    f"deadline+grace (client seed {seed}, request {i})"
                )
            continue
        except DeadlineExceeded:
            with tally.lock:
                tally.deadline += 1
            continue
        except NumericalError as exc:
            with tally.lock:
                if poisoned and getattr(exc, "input_rejection", False):
                    tally.rejected += 1
                else:
                    tally.error += 1
            continue
        except ReproError:
            with tally.lock:
                tally.error += 1
            continue
        elapsed = time.monotonic() - t0
        expected = spmm(source, x)
        with tally.lock:
            tally.latencies.append(elapsed)
            if np.allclose(y, expected, rtol=1e-3, atol=1e-5, equal_nan=True):
                tally.ok += 1
            else:
                tally.wrong += 1
                tally.violations.append(
                    f"{tally.name}: result diverged from CSR reference "
                    f"(client seed {seed}, request {i}, max abs err "
                    f"{float(np.nanmax(np.abs(y - expected))):.3e})"
                )


def _burst(
    service: InferenceService,
    source: CSRMatrix,
    *,
    count: int,
    p: int,
    deadline_s: float,
    seed: int,
) -> _PhaseTally:
    """Fire-and-collect burst: submit ``count`` requests back-to-back
    (no waiting between submissions), exceeding the bounded queue so
    admission control must shed, then resolve and verify the admitted
    ones.  Proves load shedding is load *shedding* — the requests that
    were admitted still come back correct and on time."""
    tally = _PhaseTally("burst")
    rng = np.random.default_rng(seed)
    n = source.shape[1]
    # Pre-generate the operands: the burst must be submission-bound
    # (microseconds apart), not RNG-bound, to outrun the compute thread.
    operands = [rng.standard_normal((n, p)).astype(np.float32) for _ in range(count)]
    inflight: list[tuple[np.ndarray, object, float]] = []
    for x in operands:
        t0 = time.monotonic()
        try:
            inflight.append((x, service.submit(x, deadline_s=deadline_s), t0))
        except OverloadError:
            tally.shed += 1
    for x, future, t0 in inflight:
        try:
            y = future.result(timeout=deadline_s + 5.0)
        except TimeoutError:
            tally.hung += 1
            tally.violations.append("burst: admitted request did not resolve")
            continue
        except DeadlineExceeded:
            tally.deadline += 1
            continue
        except ReproError:
            tally.error += 1
            continue
        tally.latencies.append(time.monotonic() - t0)
        if np.allclose(y, spmm(source, x), rtol=1e-3, atol=1e-5):
            tally.ok += 1
        else:
            tally.wrong += 1
            tally.violations.append("burst: result diverged from CSR reference")
    return tally


def _run_phase(
    service: InferenceService,
    source: CSRMatrix,
    name: str,
    *,
    clients: int,
    requests_per_client: int,
    p: int,
    deadline_s: float,
    nan_fraction: float = 0.0,
    seed: int = 0,
) -> _PhaseTally:
    tally = _PhaseTally(name)
    threads = [
        threading.Thread(
            target=_client,
            args=(service, source, tally),
            kwargs=dict(
                requests=requests_per_client,
                p=p,
                deadline_s=deadline_s,
                nan_fraction=nan_fraction,
                seed=seed * 8191 + k,
            ),
            name=f"soak-client-{name}-{k}",
        )
        for k in range(clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return tally


def run_soak(
    a: CSRMatrix,
    *,
    alpha: int = 0,
    clients: int = 4,
    requests_per_client: int = 25,
    p: int = 16,
    deadline_s: float = 2.0,
    queue_capacity: int = 8,
    nan_fraction: float = 0.1,
    recovery_rounds: int = 40,
    seed: int = 0,
) -> dict:
    """Run the three-phase chaos soak; return a JSON-ready report.

    The report's ``checks`` block is the acceptance evidence: zero wrong
    results, zero hung requests, the breaker demonstrably tripped to
    DEGRADED under chaos, and it recovered to FAST once the faults
    stopped.  ``ok`` is the conjunction.

    The service caps a batch at ``p`` columns, so every request runs
    alone: this soak's subject is the tier ladder under a corrupted
    artifact, one outcome per request; coalescing under load is
    :func:`run_batched_soak`'s subject.
    """
    if clients < 1 or requests_per_client < 1:
        raise ValueError("need at least one client and one request per client")
    breaker = CircuitBreaker(
        window=12,
        failure_threshold=3,
        failure_rate=0.5,
        cooldown_s=0.25,
        max_cooldown_s=2.0,
        probe_budget=2,
    )
    slot = AdjacencySlot.from_graph(a, alpha=alpha)
    # The chaos phase's slot: the same graph with NaN in its CBM deltas.
    # It shares the CSR source (so DEGRADED serves the healthy copy) and
    # the GuardStats (so the report's guard block counts its fallbacks).
    bad_cbm, _ = build_cbm(a, alpha=alpha)
    corrupt_deltas(bad_cbm, mode="nan", seed=seed)
    poisoned = AdjacencySlot(bad_cbm, slot.source, stats=slot.stats)
    service = InferenceService(
        slot,
        queue_capacity=queue_capacity,
        default_deadline_s=deadline_s,
        retry=RetryPolicy(max_attempts=3, base_s=0.002, cap_s=0.05),
        breaker=breaker,
        batch=BatchConfig(max_columns=p),
        seed=seed,
    )
    report: dict = {
        "workload": {
            "nodes": a.shape[0],
            "nnz": a.nnz,
            "alpha": alpha,
            "clients": clients,
            "requests_per_client": requests_per_client,
            "feature_width": p,
            "deadline_s": deadline_s,
            "queue_capacity": queue_capacity,
            "nan_fraction": nan_fraction,
            "seed": seed,
        },
        "phases": [],
    }
    tripped_to_degraded = False
    recovered_to_fast = False
    with service:
        healthy = _run_phase(
            service, slot.source, "healthy",
            clients=clients, requests_per_client=requests_per_client,
            p=p, deadline_s=deadline_s, seed=seed + 1,
        )
        report["phases"].append(healthy.summary())

        # Overload burst: more back-to-back submissions than the bounded
        # queue can hold, so admission control must shed some of them.
        burst = _burst(
            service, slot.source,
            count=max(3 * queue_capacity, clients * 4),
            p=p, deadline_s=deadline_s, seed=seed + 50,
        )
        report["phases"].append(burst.summary())

        service.swap_slot(poisoned)
        chaotic = _run_phase(
            service, slot.source, "chaos",
            clients=clients, requests_per_client=requests_per_client,
            p=p, deadline_s=deadline_s, nan_fraction=nan_fraction,
            seed=seed + 2,
        )
        report["phases"].append(chaotic.summary())
        tripped_to_degraded = any(
            t["event"] == "trip" and t["tier"] == ServeTier.DEGRADED.name
            for t in breaker.transition_log()
        )

        service.swap_slot(slot)
        recovery = _PhaseTally("recovery")
        rounds = 0
        for rounds in range(1, recovery_rounds + 1):
            # Light traffic: enough to feed the half-open probes, short
            # waits so cooldowns elapse between rounds.
            tick = _run_phase(
                service, slot.source, "recovery",
                clients=1, requests_per_client=3,
                p=p, deadline_s=deadline_s, seed=seed + 100 + rounds,
            )
            with recovery.lock:
                for attr in ("ok", "wrong", "shed", "deadline", "rejected",
                             "error", "hung"):
                    setattr(recovery, attr, getattr(recovery, attr) + getattr(tick, attr))
                recovery.latencies.extend(tick.latencies)
                recovery.violations.extend(tick.violations)
            if breaker.tier == ServeTier.FAST:
                recovered_to_fast = True
                break
            time.sleep(0.1)
        summary = recovery.summary()
        summary["rounds"] = rounds
        report["phases"].append(summary)

    violations = (
        healthy.violations + burst.violations + chaotic.violations
        + recovery.violations
    )
    if burst.shed == 0:
        violations.append(
            "overload burst was never shed (admission control untested)"
        )
    if not tripped_to_degraded:
        violations.append("breaker never tripped to DEGRADED during chaos")
    if not recovered_to_fast:
        violations.append(
            f"breaker did not recover to FAST within {recovery_rounds} "
            f"recovery rounds (stuck at {breaker.tier.name})"
        )
    total_wrong = healthy.wrong + burst.wrong + chaotic.wrong + recovery.wrong
    total_hung = healthy.hung + burst.hung + chaotic.hung + recovery.hung
    report["breaker"] = breaker.describe()
    report["breaker_transitions"] = breaker.transition_log()
    report["chaos"] = {
        "injected": "corrupt_deltas(mode='nan')",
        "poisoned_deltas": int(np.isnan(poisoned.cbm.delta.data).sum()),
        "deltas": int(poisoned.cbm.delta.nnz),
    }
    report["service"] = service.stats.snapshot()
    report["guard"] = slot.stats.snapshot()
    report["checks"] = {
        "zero_wrong_results": total_wrong == 0,
        "zero_hung_requests": total_hung == 0,
        "overload_was_shed": burst.shed > 0,
        "tripped_to_degraded": tripped_to_degraded,
        "recovered_to_fast": recovered_to_fast,
    }
    report["violations"] = violations
    report["ok"] = not violations
    return report


# ----------------------------------------------------------------------
# Batched soak: the micro-batching stage under concurrency + hot swaps
# ----------------------------------------------------------------------
def _batched_client(
    service: InferenceService,
    sources: list[CSRMatrix],
    tally: _PhaseTally,
    *,
    requests: int,
    max_width: int,
    deadline_s: float,
    nan_fraction: float,
    seed: int,
) -> None:
    """One client of the batched soak: mixed widths (vectors ride along),
    every result verified against the CSR reference *of the generation
    that served it* (``future.generation``) — a result matching a
    different generation's reference is cross-generation contamination,
    the invariant the collector's bind-at-open + close-on-swap protects.
    """
    rng = np.random.default_rng(seed)
    n = sources[0].shape[1]
    for i in range(requests):
        width = int(rng.integers(1, max_width + 1))
        if width == 1 and rng.random() < 0.5:
            x = rng.standard_normal(n).astype(np.float32)
        else:
            x = rng.standard_normal((n, width)).astype(np.float32)
        poisoned = nan_fraction > 0.0 and rng.random() < nan_fraction
        if poisoned:
            x = inject_nan(x, fraction=0.01, seed=seed * 1009 + i)
        t0 = time.monotonic()
        try:
            future = service.submit(x, deadline_s=deadline_s)
        except OverloadError as exc:
            with tally.lock:
                tally.shed += 1
            time.sleep(min(exc.retry_after, 0.05))
            continue
        try:
            y = future.result(timeout=deadline_s + 5.0)
        except TimeoutError:
            with tally.lock:
                tally.hung += 1
                tally.violations.append(
                    f"{tally.name}: request did not resolve within "
                    f"deadline+grace (client seed {seed}, request {i})"
                )
            continue
        except DeadlineExceeded:
            with tally.lock:
                tally.deadline += 1
            continue
        except NumericalError as exc:
            with tally.lock:
                if poisoned and getattr(exc, "input_rejection", False):
                    tally.rejected += 1
                else:
                    tally.error += 1
            continue
        except ReproError:
            with tally.lock:
                tally.error += 1
            continue
        elapsed = time.monotonic() - t0
        gen = future.generation if future.generation is not None else 0
        src = sources[gen % len(sources)]
        expected = spmv(src, x) if x.ndim == 1 else spmm(src, x)
        matches = np.allclose(y, expected, rtol=1e-3, atol=1e-5)
        with tally.lock:
            tally.latencies.append(elapsed)
            if matches:
                tally.ok += 1
                continue
            tally.wrong += 1
            # Label the failure: does it match a *different* generation?
            other = sources[(gen + 1) % len(sources)]
            alt = spmv(other, x) if x.ndim == 1 else spmm(other, x)
            if len(sources) > 1 and np.allclose(y, alt, rtol=1e-3, atol=1e-5):
                tally.cross_gen += 1
                tally.violations.append(
                    f"{tally.name}: cross-generation contamination — result "
                    f"labelled generation {gen} matches the other slot "
                    f"(client seed {seed}, request {i})"
                )
            else:
                tally.violations.append(
                    f"{tally.name}: result diverged from every reference "
                    f"(client seed {seed}, request {i}, generation {gen})"
                )


def _run_batched_phase(
    service: InferenceService,
    sources: list[CSRMatrix],
    name: str,
    *,
    clients: int,
    requests_per_client: int,
    max_width: int,
    deadline_s: float,
    nan_fraction: float = 0.0,
    seed: int = 0,
) -> _PhaseTally:
    tally = _PhaseTally(name)
    threads = [
        threading.Thread(
            target=_batched_client,
            args=(service, sources, tally),
            kwargs=dict(
                requests=requests_per_client,
                max_width=max_width,
                deadline_s=deadline_s,
                nan_fraction=nan_fraction,
                seed=seed * 8191 + k,
            ),
            name=f"bsoak-client-{name}-{k}",
        )
        for k in range(clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return tally


def run_batched_soak(
    a: CSRMatrix,
    *,
    alpha: int = 0,
    clients: int = 6,
    requests_per_client: int = 20,
    max_width: int = 8,
    deadline_s: float = 2.0,
    queue_capacity: int = 64,
    max_columns: int = 32,
    nan_fraction: float = 0.15,
    swap_count: int = 8,
    swap_interval_s: float = 0.03,
    seed: int = 0,
) -> dict:
    """Soak the micro-batching stage; return a JSON-ready report.

    Three phases against an :class:`InferenceService` that coalesces up
    to ``max_columns`` stacked columns per batch:

    1. **healthy** — concurrent clients with mixed request widths
       (vectors ride along as width-1 columns); proves coalescing
       actually happens (``coalesced > 0``) and nothing goes wrong/hung;
    2. **swap storm** — a swapper thread alternates :meth:`swap_slot`
       between two prebuilt adjacencies while clients keep submitting;
       each client verifies its result against the reference matrix of
       ``future.generation`` (even generations = matrix A, odd = B), so
       a batch that mixed generations is *observable*, not just asserted;
    3. **poisoned** — a fraction of operands carry NaN; poisoned members
       must be rejected with ``input_rejection`` while their clean
       batchmates (batch victims) still resolve correctly.

    The ``checks`` block is the acceptance evidence: zero wrong, zero
    hung, zero cross-generation results, coalescing effective, poison
    isolated.  ``ok`` is the conjunction.
    """
    if clients < 1 or requests_per_client < 1:
        raise ValueError("need at least one client and one request per client")
    slot_a = AdjacencySlot.from_graph(a, alpha=alpha)
    # Second adjacency for the swap storm: the reverse-permuted graph —
    # same shape and degree profile, completely different products.
    from repro.sparse.convert import from_dense

    dense_b = a.toarray()[::-1, ::-1].copy()
    b = from_dense(dense_b)
    slot_b_proto = AdjacencySlot.from_graph(b, alpha=alpha)
    sources = [slot_a.source, slot_b_proto.source]
    cbms = [slot_a.cbm, slot_b_proto.cbm]

    service = InferenceService(
        slot_a,
        queue_capacity=queue_capacity,
        default_deadline_s=deadline_s,
        retry=RetryPolicy(max_attempts=3, base_s=0.002, cap_s=0.05),
        batch=BatchConfig(max_columns=max_columns),
        seed=seed,
    )
    report: dict = {
        "workload": {
            "nodes": a.shape[0],
            "nnz": a.nnz,
            "alpha": alpha,
            "clients": clients,
            "requests_per_client": requests_per_client,
            "max_width": max_width,
            "deadline_s": deadline_s,
            "queue_capacity": queue_capacity,
            "max_columns": max_columns,
            "nan_fraction": nan_fraction,
            "swap_count": swap_count,
            "seed": seed,
        },
        "phases": [],
    }
    with service:
        healthy = _run_batched_phase(
            service, sources, "healthy",
            clients=clients, requests_per_client=requests_per_client,
            max_width=max_width, deadline_s=deadline_s, seed=seed + 1,
        )
        report["phases"].append(healthy.summary())

        swaps_done = [0]

        def _swapper() -> None:
            for k in range(swap_count):
                # Alternate B, A, B, ... so generation parity maps to the
                # source list: even generations serve A, odd serve B.
                incoming = AdjacencySlot(cbms[(k + 1) % 2], sources[(k + 1) % 2])
                service.swap_slot(incoming)
                swaps_done[0] += 1
                time.sleep(swap_interval_s)

        storm = _PhaseTally("swap_storm")
        swapper = threading.Thread(target=_swapper, name="bsoak-swapper")
        swapper.start()
        storm_tick = _run_batched_phase(
            service, sources, "swap_storm",
            clients=clients, requests_per_client=requests_per_client,
            max_width=max_width, deadline_s=deadline_s, seed=seed + 2,
        )
        swapper.join()
        for attr in ("ok", "wrong", "cross_gen", "shed", "deadline",
                     "rejected", "error", "hung"):
            setattr(storm, attr, getattr(storm_tick, attr))
        storm.latencies = storm_tick.latencies
        storm.violations = storm_tick.violations
        summary = storm.summary()
        summary["swaps"] = swaps_done[0]
        report["phases"].append(summary)

        poisoned = _run_batched_phase(
            service, sources, "poisoned",
            clients=clients, requests_per_client=requests_per_client,
            max_width=max_width, deadline_s=deadline_s,
            nan_fraction=nan_fraction, seed=seed + 3,
        )
        report["phases"].append(poisoned.summary())

        service_stats = service.stats.snapshot()
        health = service.health()

    violations = healthy.violations + storm.violations + poisoned.violations
    coalesced = service_stats["coalesced"]
    if coalesced == 0:
        violations.append(
            "batching stage never coalesced two requests into one batch "
            "(micro-batching untested)"
        )
    if nan_fraction > 0.0 and poisoned.rejected == 0:
        violations.append(
            "poisoned phase produced no input rejections (attribution untested)"
        )
    total_wrong = healthy.wrong + storm.wrong + poisoned.wrong
    total_hung = healthy.hung + storm.hung + poisoned.hung
    total_cross = healthy.cross_gen + storm.cross_gen + poisoned.cross_gen
    report["service"] = service_stats
    report["batching"] = health["batching"]
    report["checks"] = {
        "zero_wrong_results": total_wrong == 0,
        "zero_hung_requests": total_hung == 0,
        "zero_cross_generation": total_cross == 0,
        "coalescing_effective": coalesced > 0,
        "poison_isolated": nan_fraction == 0.0 or poisoned.rejected > 0,
        "swaps_completed": swaps_done[0] == swap_count,
    }
    report["violations"] = violations
    report["ok"] = not violations and all(report["checks"].values())
    return report
