"""One soak harness: the serving, batching, streaming and crash soaks.

The paper validates CBM by checking its products against CSR's (§VI-B,
``repro verify``).  A soak repeats that check under load and injected
faults.  Each scenario is one function that sets up its system, runs
its phases and names its checks; the rest is shared: one client loop
(:func:`_client`), one phase tally (:class:`Tally`), one phase runner
(:class:`_Run`), one report and one renderer (:func:`render`).

Every report holds ``scenario``, ``workload``, ``phases`` (one row per
phase), ``checks`` (name → bool), ``violations``, ``ok`` and
``elapsed_s``, plus the scenario's own evidence keys.  ``ok`` holds only
when every check passed and no violation was recorded.

* :func:`serve` — healthy, an overload burst, chaos (a hot swap to a
  slot whose CBM deltas are NaN-poisoned, and 10% NaN operands), then
  recovery rounds until the breaker is back at FAST.  Each request runs
  alone (``BatchConfig(max_columns=p)``), so the breaker hears one
  outcome per request.
* :func:`batch` — healthy, a swap storm, then poisoned operands, with
  mixed widths (vectors ride along) coalesced up to 32 columns.
* :func:`stream` — a mutation storm with background rebuilds, kill-9
  rebuild trials on the live store, retention pressure on the pinned
  generation, then audits of the patched and the rebuilt artifact.
* :func:`crash` — randomized kill-9 trials over the archive, trainer,
  multi and streaming writers (:mod:`repro.recovery.crashsim`).

The serving scenarios check each answer as it arrives, against the CSR
reference of the generation that served it (``future.generation``),
with ``allclose(rtol=1e-3, atol=1e-5)``; an answer holding NaN or Inf is
wrong.  They hold no answers for later.  The stream scenario records
its answers and checks them bitwise after each phase, because the
publisher records a generation's reference only after its swap returns.
"""

from __future__ import annotations

import random
import shutil
import tempfile
import threading
import time
import warnings
from collections import deque
from pathlib import Path

import numpy as np

from repro.core.builder import build_cbm
from repro.core.io import save_cbm
from repro.errors import (
    DeadlineExceeded,
    NumericalError,
    OverloadError,
    ReproError,
    StalenessError,
)
from repro.recovery import crashsim
from repro.recovery.store import GenerationStore
from repro.reliability.chaos import corrupt_deltas, inject_nan
from repro.reliability.guard import FallbackWarning
from repro.serving.backoff import RetryPolicy
from repro.serving.batching import BatchConfig
from repro.serving.breaker import CircuitBreaker, ServeTier
from repro.serving.service import AdjacencySlot, InferenceService
from repro.sparse.convert import from_dense
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import spmm, spmv
from repro.staticcheck import audit_archive, audit_cbm
from repro.streaming.drift import DriftPolicy, DriftTracker
from repro.streaming.mutable import EdgeBatch, MutableAdjacency
from repro.streaming.rebuild import BackgroundRebuilder, publish_snapshot
from repro.utils.fmt import format_table

__all__ = ["SCENARIOS", "Tally", "batch", "crash", "patched_budget", "render", "serve", "stream"]

#: How long past its deadline a client waits before it calls a request
#: hung: a product that started just before the deadline runs to the end.
GRACE_S = 10.0
_RETRY = RetryPolicy(max_attempts=3, base_s=0.002, cap_s=0.05)


class Tally:
    """Outcome counts, latencies and violations of one soak phase.

    Each request ends in one outcome; ``cross_gen`` also counts as
    ``wrong`` and marks a wrong answer that matches the other slot.
    """

    OUTCOMES = ("ok", "wrong", "cross_gen", "shed", "deadline", "rejected", "errors", "hung")

    def __init__(self, name: str):
        self.name = name
        self.counts = dict.fromkeys(self.OUTCOMES, 0)
        self.latencies: list[float] = []
        self.violations: list[str] = []
        self.extra: dict = {}
        self._lock = threading.Lock()

    @property
    def requests(self) -> int:
        return sum(self.counts.values()) - self.counts["cross_gen"]

    def add(self, outcome: str | None, violation: str | None = None, latency=None) -> None:
        """Count one outcome (None: checked later), record a violation
        and a latency in seconds; any thread may call it."""
        with self._lock:
            if outcome is not None:
                self.counts[outcome] += 1
                if outcome == "cross_gen":
                    self.counts["wrong"] += 1
            if violation is not None:
                self.violations.append(f"{self.name}: {violation}")
            if latency is not None:
                self.latencies.append(latency)

    def summary(self) -> dict:
        """The phase's row of the report."""
        ms = np.asarray(self.latencies) * 1e3
        p50, p99 = np.percentile(ms, [50, 99]).round(3).tolist() if ms.size else (None, None)
        return {"phase": self.name, "requests": self.requests, **self.counts,
                "p50_ms": p50, "p99_ms": p99, **self.extra}


def _client(service, tally: Tally, requests, check, *, deadline_s: float, window: int = 1):
    """Submit each ``(x, poisoned)`` of ``requests``; sort each outcome into ``tally``.

    At most ``window`` requests are in flight: 1 is a closed-loop
    client, and a window as long as ``requests`` is a burst that submits
    everything before it waits.  ``check(future, x, y)`` judges an answer
    and returns ``(outcome, violation)``, or None when the scenario
    checks its answers after the phase.  A request must end in an answer
    or a typed error: a hang, a wrong answer or an untyped error is a
    violation.
    """
    inflight: deque = deque()
    for i, (x, poisoned) in enumerate(requests):
        t0 = time.monotonic()
        try:
            inflight.append((i, x, poisoned, t0, service.submit(x, deadline_s=deadline_s)))
        except OverloadError:
            tally.add("shed")
        while len(inflight) >= window:
            _settle(tally, check, deadline_s, *inflight.popleft())
    while inflight:
        _settle(tally, check, deadline_s, *inflight.popleft())


def _settle(tally: Tally, check, deadline_s: float, i, x, poisoned, t0, future) -> None:
    try:
        y = future.result(timeout=deadline_s + GRACE_S)
    except TimeoutError:
        tally.add("hung", f"request {i} did not resolve within its deadline + {GRACE_S:.0f}s")
        return
    except DeadlineExceeded:
        tally.add("deadline")
        return
    except NumericalError as exc:
        rejected = poisoned and getattr(exc, "input_rejection", False)
        tally.add("rejected" if rejected else "errors")
        return
    except ReproError:
        tally.add("errors")
        return
    except Exception as exc:  # noqa: BLE001 - an untyped failure is the finding
        tally.add("errors", f"request {i} failed untyped: {type(exc).__name__}: {exc}")
        return
    latency = time.monotonic() - t0
    outcome, violation = check(future, x, y) or (None, None)
    tally.add(outcome, violation, latency)


def _operands(n: int, count: int, seed: int, *, widths: tuple[int, int], nan_fraction=0.0):
    """``count`` float32 operands ``(x, poisoned)``, widths drawn from the
    inclusive range ``widths``; a width-1 draw is a vector half the time,
    and a ``nan_fraction`` share carries NaN."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        width = int(rng.integers(widths[0], widths[1] + 1))
        shape = (n,) if width == 1 and rng.random() < 0.5 else (n, width)
        x = rng.standard_normal(shape).astype(np.float32)
        poisoned = nan_fraction > 0.0 and rng.random() < nan_fraction
        if poisoned:
            x = inject_nan(x, fraction=0.01, seed=seed * 1009 + i)
        yield x, poisoned


def _matches(y: np.ndarray, source: CSRMatrix, x: np.ndarray) -> bool:
    """``y`` has the shape of ``source @ x``, is finite, and equals it
    within the serving tolerance."""
    expected = spmv(source, x) if x.ndim == 1 else spmm(source, x)
    return (
        y.shape == expected.shape
        and bool(np.isfinite(y).all())
        and np.allclose(y, expected, rtol=1e-3, atol=1e-5)
    )


def _against(sources: list[CSRMatrix]):
    """Answer check for the serving scenarios: generation ``g`` serves
    ``sources[g % len(sources)]``, and a wrong answer that matches the
    next source is cross-generation."""

    def check(future, x, y):
        gen = future.generation or 0
        if _matches(y, sources[gen % len(sources)], x):
            return "ok", None
        if len(sources) > 1 and _matches(y, sources[(gen + 1) % len(sources)], x):
            return "cross_gen", f"answer labelled generation {gen} matches the other slot"
        return "wrong", f"answer diverged from generation {gen}'s CSR reference"

    return check


class _Run:
    """One scenario run: its phase tallies, its clock and its report."""

    def __init__(self, scenario: str, workload: dict, progress):
        self.scenario = scenario
        self.workload = workload
        self.progress = progress
        self.tallies: list[Tally] = []
        self.t0 = time.perf_counter()

    def say(self, msg: str) -> None:
        if self.progress is not None:
            self.progress(msg)

    def tally(self, name: str) -> Tally:
        self.say(f"phase {name}")
        self.tallies.append(Tally(name))
        return self.tallies[-1]

    def phase(self, name, service, clients, requests_of, check, *, deadline_s, window=1) -> Tally:
        """Run ``clients`` client threads; client ``k`` submits ``requests_of(k)``."""
        tally = self.tally(name)
        threads = [
            threading.Thread(
                target=_client,
                args=(service, tally, requests_of(k), check),
                kwargs=dict(deadline_s=deadline_s, window=window),
                name=f"soak-{name}-{k}",
            )
            for k in range(clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return tally

    def total(self, *outcomes: str) -> int:
        return sum(t.counts[o] for t in self.tallies for o in outcomes)

    def report(self, checks: dict, violations=(), *, phases=None, **evidence) -> dict:
        violations = [v for t in self.tallies for v in t.violations] + list(violations)
        return {
            "scenario": self.scenario,
            "workload": self.workload,
            "phases": [t.summary() for t in self.tallies] if phases is None else phases,
            "checks": checks,
            "violations": violations,
            "ok": all(checks.values()) and not violations,
            "elapsed_s": round(time.perf_counter() - self.t0, 3),
            **evidence,
        }


def serve(
    a: CSRMatrix,
    *,
    alpha: int = 0,
    clients: int = 4,
    requests: int = 15,
    p: int = 16,
    deadline_s: float = 2.0,
    seed: int = 0,
    progress=None,
) -> dict:
    """Chaos under load: healthy → burst → chaos → recovery; returns the report.

    ``requests`` is per client and phase.  Checks: zero wrong, zero hung,
    the burst was shed, the breaker tripped to DEGRADED in the chaos
    phase and recovered to FAST, and poisoned operands were rejected.
    """
    slot = AdjacencySlot.from_graph(a, alpha=alpha)
    # The chaos phase's slot: the same graph with NaN in its CBM deltas.
    # It shares the CSR source (so DEGRADED serves the healthy copy) and
    # the GuardStats (so the report's guard block counts its fallbacks).
    bad_cbm, _ = build_cbm(a, alpha=alpha)
    corrupt_deltas(bad_cbm, mode="nan", seed=seed)
    poisoned = AdjacencySlot(bad_cbm, slot.source, stats=slot.stats)
    breaker = CircuitBreaker(
        window=12, failure_threshold=3, failure_rate=0.5,
        cooldown_s=0.25, max_cooldown_s=2.0, probe_budget=2,
    )
    queue_capacity = 8
    service = InferenceService(
        slot, queue_capacity=queue_capacity, default_deadline_s=deadline_s, retry=_RETRY,
        breaker=breaker, batch=BatchConfig(max_columns=p), seed=seed,
    )
    workload = dict(nodes=a.shape[0], nnz=a.nnz, alpha=alpha, clients=clients,
                    requests=requests, p=p, deadline_s=deadline_s, seed=seed)
    run = _Run("serve", workload, progress)
    n, check = a.shape[1], _against([slot.source])

    def load(name, phase_seed, nan_fraction=0.0):
        return run.phase(name, service, clients, lambda k: _operands(
            n, requests, phase_seed * 8191 + k, widths=(p, p), nan_fraction=nan_fraction,
        ), check, deadline_s=deadline_s)

    # More back-to-back submissions than the bounded queue holds, made
    # up front so the burst outruns the compute thread.
    burst_ops = list(_operands(n, max(3 * queue_capacity, 4 * clients), seed + 50, widths=(p, p)))
    recovered = False
    with warnings.catch_warnings(), service:
        # The chaos phase degrades on purpose; the guard block counts it.
        warnings.simplefilter("ignore", FallbackWarning)
        load("healthy", seed + 1)
        burst = run.phase("burst", service, 1, lambda k: burst_ops, check,
                          deadline_s=deadline_s, window=len(burst_ops))
        service.swap_slot(poisoned)
        chaos = load("chaos", seed + 2, nan_fraction=0.1)
        tripped = any(t["event"] == "trip" and t["tier"] == ServeTier.DEGRADED.name
                      for t in breaker.transition_log())
        service.swap_slot(slot)
        recovery = run.tally("recovery")
        for rounds in range(1, 61):
            # Light traffic feeds the half-open probes; the pause between
            # rounds lets the cooldowns elapse.
            _client(service, recovery, _operands(n, 3, (seed + 100 + rounds) * 8191, widths=(p, p)),
                    check, deadline_s=deadline_s)
            recovered = breaker.tier == ServeTier.FAST
            if recovered:
                break
            time.sleep(0.1)
        recovery.extra["rounds"] = rounds
    checks = {
        "zero_wrong": run.total("wrong") == 0,
        "zero_hung": run.total("hung") == 0,
        "overload_was_shed": burst.counts["shed"] > 0,
        "tripped_to_degraded": tripped,
        "recovered_to_fast": recovered,
        "poison_isolated": chaos.counts["rejected"] > 0,
    }
    return run.report(
        checks,
        breaker=breaker.describe(),
        breaker_transitions=breaker.transition_log(),
        chaos={
            "injected": "corrupt_deltas(mode='nan')",
            "poisoned_deltas": int(np.isnan(bad_cbm.delta.data).sum()),
            "deltas": int(bad_cbm.delta.nnz),
        },
        service=service.stats.snapshot(),
        guard=slot.stats.snapshot(),
    )


def batch(
    a: CSRMatrix, *, clients: int = 6, requests: int = 12, seed: int = 0, progress=None
) -> dict:
    """Coalescing under load: healthy → swap storm → poisoned; returns the report.

    Requests have widths 1–16 and batches stack up to 32 columns.  A
    swapper alternates the service between ``a`` and its reverse
    permutation, and each answer is checked against the reference of
    the generation that served it.  Checks: zero wrong, zero hung, zero
    cross-generation, coalescing happened, poisoned operands were
    rejected while their batchmates resolved, and every swap completed.
    """
    slots = [
        AdjacencySlot.from_graph(a),
        # Same shape and degree profile, entirely different products.
        AdjacencySlot.from_graph(from_dense(a.toarray()[::-1, ::-1].copy())),
    ]
    deadline_s, swap_count = 2.0, 8
    service = InferenceService(
        slots[0], queue_capacity=64, default_deadline_s=deadline_s, retry=_RETRY,
        batch=BatchConfig(max_columns=32), seed=seed,
    )
    workload = dict(nodes=a.shape[0], nnz=a.nnz, clients=clients, requests=requests, seed=seed)
    run = _Run("batch", workload, progress)
    n, check = a.shape[1], _against([s.source for s in slots])

    def load(name, phase_seed, nan_fraction=0.0):
        return run.phase(name, service, clients, lambda k: _operands(
            n, requests, phase_seed * 8191 + k, widths=(1, 16), nan_fraction=nan_fraction,
        ), check, deadline_s=deadline_s)

    swaps = 0

    def swapper() -> None:
        nonlocal swaps
        for k in range(swap_count):
            # B, A, B, ...: even generations serve A, odd ones B.
            nxt = slots[(k + 1) % 2]
            service.swap_slot(AdjacencySlot(nxt.cbm, nxt.source))
            swaps += 1
            time.sleep(0.03)

    with service:
        load("healthy", seed + 1)
        swapping = threading.Thread(target=swapper, name="soak-swapper")
        swapping.start()
        storm = load("swap_storm", seed + 2)
        swapping.join()
        storm.extra["swaps"] = swaps
        poison = load("poisoned", seed + 3, nan_fraction=0.15)
        stats, health = service.stats.snapshot(), service.health()
    checks = {
        "zero_wrong": run.total("wrong") == 0,
        "zero_hung": run.total("hung") == 0,
        "zero_cross_generation": run.total("cross_gen") == 0,
        "coalescing_effective": stats["coalesced"] > 0,
        "poison_isolated": poison.counts["rejected"] > 0,
        "swaps_completed": swaps == swap_count,
    }
    return run.report(checks, service=stats, batching=health["batching"])


def patched_budget(tracker_snapshot: dict) -> int:
    """The staleness budget the live patched matrix is audited with: the
    deltas it carries beyond the last rebuild plus the edges patched
    since (replayed ones included), at least 1."""
    snap = tracker_snapshot
    return max(
        1, max(0, snap["live_deltas"] - snap["baseline_deltas"]) + snap["edges_since_rebuild"]
    )


def _bitwise(tally: Tally, records: list, refs: dict, budget: int) -> int:
    """Check recorded answers against the generation that served them.

    An answer must bitwise-equal that generation's CBM product, or its
    CSR product (the DEGRADED tier), and its graph version may lag the
    live graph by at most ``budget``.  Returns the largest lag seen.
    """
    max_stale = 0
    for gen, x, y, live_version in records:
        if gen not in refs:
            tally.add("wrong", f"answer labelled generation {gen}, which was never "
                               "published: a torn or phantom swap")
            continue
        version, cbm, source = refs[gen]
        if not (np.array_equal(y, cbm.matmul(x)) or np.array_equal(y, spmm(source, x))):
            tally.add("wrong", f"answer does not bitwise-match generation {gen}'s "
                               "CBM or CSR product")
            continue
        if version is not None:
            stale = live_version - version
            max_stale = max(max_stale, stale)
            if stale > budget:
                tally.add("wrong", f"served graph version {version} is {stale} versions "
                                   f"behind the live graph; the budget is {budget}")
                continue
        tally.add("ok")
    return max_stale


def _default_adjacency(seed: int) -> CSRMatrix:
    rng = np.random.default_rng(seed)
    d = (rng.random((96, 96)) < 0.06).astype(np.float32)
    d = np.maximum(d, d.T)
    np.fill_diagonal(d, 0.0)
    return from_dense(d)


def stream(
    a: CSRMatrix | None = None,
    *,
    clients: int = 4,
    requests: int = 40,
    mutations: int = 18,
    trials: int = 3,
    seed: int = 7,
    progress=None,
) -> dict:
    """Mutation storm with kill-9 rebuilds over one live system; returns the report.

    ``a`` defaults to a synthetic 96-node graph.  Storm: ``clients``
    threads send ``requests`` each while a mutator applies ``mutations``
    edge batches (publishing each patched snapshot) and a background
    rebuilder commits and hot-swaps fresh generations.  Then ``trials``
    rebuild workers are SIGKILLed at random sync points of the same
    store, each followed by a swap to the surviving generation and
    ``requests // 2`` verified requests.  Then retention pressure on
    the pinned generation, and audits of the patched and rebuilt CBMs.
    """
    staleness_budget, deadline_s, retain, burst = 12, 5.0, 3, requests // 2
    if a is None:
        a = _default_adjacency(seed)
    rng = random.Random(seed)
    root = Path(tempfile.mkdtemp(prefix="mutsoak-"))
    tracker = DriftTracker(DriftPolicy(
        max_drift=0.2, staleness_budget=staleness_budget, enforce=False, columns=2,
    ))
    mutable = MutableAdjacency.from_graph(a, tracker=tracker)
    store = GenerationStore(root / "store", retain=retain)
    nprng = np.random.default_rng(seed)
    operands = [nprng.standard_normal((a.shape[0], w)).astype(np.float32) for w in (2, 3, 4) * 4]

    version0, cbm0, source0 = mutable.snapshot()
    slot0 = AdjacencySlot(cbm0, source0, tracker=tracker)
    slot0.graph_version = version0
    # generation → (graph version or None, CBM, CSR source) of what it served
    refs: dict[int, tuple] = {0: (version0, cbm0, source0)}
    refs_lock = threading.Lock()

    def publish(svc: InferenceService, mut: MutableAdjacency) -> None:
        with refs_lock:
            version, gen, slot = publish_snapshot(mut, svc)
            refs[gen] = (version, slot.cbm, slot.source)

    def recorder(log: list):
        def check(future, x, y):
            log.append((future.generation or 0, x, y, mutable.version))
        return check

    def requests_from(offset: int, count: int):
        return ((operands[(offset + i) % len(operands)], False) for i in range(count))

    service = InferenceService(
        slot0, queue_capacity=max(128, clients * 16), default_deadline_s=deadline_s,
        batch=BatchConfig(max_columns=32), seed=seed,
    )
    rebuilder = BackgroundRebuilder(
        mutable, store, service, publisher=publish, poll_interval_s=0.01
    )
    workload = dict(nodes=a.shape[0], nnz=a.nnz, clients=clients, requests=requests,
                    mutations=mutations, trials=trials, seed=seed)
    run = _Run("stream", workload, progress)
    violations: list[str] = []
    patches, stalls = [], 0
    with service:
        # Warm the plan, the pool and batch formation off the clock.
        for fut in [service.submit(operands[i % len(operands)]) for i in range(8)]:
            fut.result(30.0)
        rebuilder.start()

        def mutator() -> None:
            nonlocal stalls
            for j in range(mutations):
                _, _, src = mutable.snapshot()
                edges = EdgeBatch.random(src, inserts=3, deletes=3, seed=seed * 7919 + j)
                try:
                    patches.append(mutable.apply(edges))
                except StalenessError:
                    stalls += 1
                    time.sleep(0.01)
                    continue
                publish(service, mutable)
                time.sleep(0.002)

        storm_log: list = []
        mutating = threading.Thread(target=mutator, name="soak-mutator")
        mutating.start()
        storm = run.phase("storm", service, clients,
                          lambda k: requests_from(k * requests, requests),
                          recorder(storm_log), deadline_s=deadline_s)
        mutating.join()
        rebuilder.stop()
        if not rebuilder.reports:
            # The storm was too short for the drift trigger: one cycle
            # now, so the store always holds a generation.
            rebuilder.rebuild_once()

        crash_log: list = []
        crashed = run.tally("crash")
        graph_path = root / "crash-input.npz"
        save_cbm(graph_path, mutable.snapshot()[1])
        results = []
        for t_idx in range(trials):
            trial = crashsim.run_trial(
                "streaming", crash_at=rng.randint(1, crashsim._POINTS_PER_COMMIT * 2),
                seed=rng.randint(0, 2**31 - 1), iterations=2,
                root=str(store.root), graph=str(graph_path),
            )
            results.append(trial)
            run.say(f"crash trial {t_idx}: crash_at={trial.crash_at} "
                    f"{'killed' if trial.killed else 'clean'} kept={trial.kept}")
            violations.extend(f"crash trial {t_idx}: {v}" for v in trial.violations)
            # Serve a verified burst from the surviving latest generation.
            # A worker's generations carry its own graph versions, so only
            # the bitwise check applies (version None).
            gen = service.swap_generation(store)["generation"]
            with refs_lock:
                refs[gen] = (None, service._slot.cbm, service._slot.source)
            _client(service, crashed, requests_from(t_idx * burst, burst),
                    recorder(crash_log), deadline_s=deadline_s)

        # Retention pressure: commit enough generations to push the live
        # slot's pinned generation out of the keep window; the pin, not
        # retention order, must keep it on disk.
        run.say("retention pressure on the pinned generation")
        pin = getattr(service._slot, "_pin", None)
        pinned_survives = False
        if pin is not None:
            press_cbm, _ = build_cbm(mutable.snapshot()[2])
            for _ in range(retain + 1):
                with store.begin(meta={"kind": "cbm-archive", "streaming": True}) as txn:
                    save_cbm(txn.path("adjacency.npz", kind="cbm"), press_cbm)
            pinned_survives = pin[1] in store.pinned() and (
                store.root / f"gen-{pin[1]:06d}"
            ).is_dir()

    max_stale = max(_bitwise(storm, storm_log, refs, staleness_budget),
                    _bitwise(crashed, crash_log, refs, staleness_budget))
    committed = [g.index for g in store.generations()]
    quarantined = any(t.quarantined for t in results)
    patched_audit = audit_cbm(mutable.snapshot()[1], subject="patched-cbm",
                              staleness_budget=patched_budget(tracker.snapshot()))
    latest = store.latest()
    rebuilt_audit = None if latest is None else audit_archive(
        latest.file("adjacency.npz"), subject="rebuilt-cbm")
    for name, audit in (("patched", patched_audit), ("rebuilt", rebuilt_audit)):
        if audit is not None:
            violations.extend(f"{name}-audit: {f.code}: {f.message}" for f in audit.findings)
    checks = {
        "min_requests": sum(t.requests for t in run.tallies) >= clients * requests + trials * burst,
        "zero_wrong": run.total("wrong") == 0,
        "zero_hung": run.total("hung") == 0,
        "zero_dropped": run.total("shed") == 0,
        "zero_errors": run.total("errors", "deadline", "rejected") == 0,
        "staleness_within_budget": max_stale <= staleness_budget,
        "rebuilds_completed": len(rebuilder.reports) >= 1 and len(committed) >= 1,
        "all_crash_trials_killed": all(t.killed for t in results),
        "crash_recovery_clean": all(t.ok for t in results),
        "quarantine_reasons_logged": not quarantined
        or (store.quarantine_dir / "QUARANTINE.log").exists(),
        "pinned_generation_survives_prune": pinned_survives,
        "patched_audit_ok": patched_audit.ok,
        "rebuilt_audit_ok": rebuilt_audit is not None and rebuilt_audit.ok,
    }
    report = run.report(
        checks,
        violations,
        stalls=stalls,
        max_staleness=max_stale,
        patches_applied=len(patches),
        rebuilds=len(rebuilder.reports),
        generations_committed=committed,
        generations_published=sorted(refs),
        crash=[dict(crash_at=t.crash_at, killed=t.killed, announced=t.announced,
                    kept=t.kept, quarantined=t.quarantined, ok=t.ok) for t in results],
        tracker=tracker.snapshot(),
    )
    if report["ok"]:
        shutil.rmtree(root, ignore_errors=True)
    else:
        report["root"] = str(root)
    return report


def crash(
    *,
    trials: int = 60,
    workloads: tuple = crashsim.WORKLOADS,
    iterations: int = 3,
    break_protocol: bool = False,
    seed: int = 0,
    progress=None,
) -> dict:
    """Randomized kill-9 trials over the persistence tier; returns the report.

    Trial ``k`` runs ``workloads[k % len(workloads)]`` in a fresh store
    and SIGKILLs it at a sync point drawn over the workload's span, plus
    a margin so some trials finish clean.  Each check is one invariant
    of :func:`~repro.recovery.crashsim.run_trial`, held by every trial.
    ``break_protocol`` runs the commit-marker-first writer instead, which
    must fail ``committed_generations_kept``.
    """
    if break_protocol:
        workloads = ("archive",)  # the buggy writer stands in for every workload
    rng = random.Random(seed)
    run = _Run("crash", dict(trials=trials, iterations=iterations,
                             break_protocol=break_protocol, seed=seed), progress)
    rows = {w: dict(phase=w, trials=0, killed=0, commits=0, quarantined=0, stray_tmp=0,
                    max_recovery_ms=0.0, violations=0) for w in workloads}
    results, violations = [], []
    for k in range(trials):
        workload = workloads[k % len(workloads)]
        if break_protocol:
            # The buggy writer has one sync point per iteration, between
            # its premature commit marker and the payload: always kill there.
            crash_at = rng.randint(1, iterations)
        else:
            # multi commits 3 payload writes + the marker + the manifest.
            per_commit = 3 * 3 + 4 if workload == "multi" else crashsim._POINTS_PER_COMMIT
            crash_at = rng.randint(1, per_commit * iterations + 3)
        trial = crashsim.run_trial(
            workload, crash_at=crash_at, seed=rng.randint(0, 2**31 - 1),
            iterations=iterations, break_protocol=break_protocol,
        )
        results.append(trial)
        row = rows[workload]
        row["trials"] += 1
        row["killed"] += trial.killed
        row["commits"] += len(trial.announced)
        row["quarantined"] += trial.quarantined
        row["stray_tmp"] += trial.stray_tmp
        row["max_recovery_ms"] = round(max(row["max_recovery_ms"], trial.recovery_s * 1e3), 3)
        row["violations"] += len(trial.violations)
        where = f"[{workload} crash_at={crash_at}" + (f" root={trial.root}" if trial.root else "")
        violations.extend(f"{where}] {v}" for v in trial.violations)
        run.say(f"[{k + 1:3d}/{trials}] {workload:9s} crash_at={crash_at:3d} "
                f"{'killed' if trial.killed else 'clean '} committed={len(trial.announced)} "
                f"kept={len(trial.kept)} quarantined={trial.quarantined} "
                f"{'ok' if trial.ok else 'VIOLATION'}")
    checks = {name: not any(name in t.failed for t in results) for name in crashsim.TRIAL_CHECKS}
    return run.report(
        checks,
        violations,
        phases=list(rows.values()),
        killed=sum(t.killed for t in results),
        commits_observed=sum(len(t.announced) for t in results),
        max_recovery_s=max((t.recovery_s for t in results), default=0.0),
    )


SCENARIOS = {"serve": serve, "batch": batch, "stream": stream, "crash": crash}


def render(report: dict) -> str:
    """The report as text: a header, one table row per phase, each check
    and each violation."""
    workload = ", ".join(f"{k}={v}" for k, v in report["workload"].items())
    lines = [f"soak {report['scenario']} ({workload}) — {report['elapsed_s']:.1f}s"]
    columns = list(dict.fromkeys(k for ph in report["phases"] for k in ph))
    lines.append(format_table(columns, [[_cell(ph.get(c)) for c in columns]
                                        for ph in report["phases"]]))
    lines += [f"  [{'ok' if ok else 'FAIL'}] {name}" for name, ok in report["checks"].items()]
    lines += [f"  violation: {v}" for v in report["violations"]]
    failed = sum(not ok for ok in report["checks"].values())
    lines.append(f"  {'OK' if report['ok'] else 'FAIL'}: {failed} failed check(s), "
                 f"{len(report['violations'])} violation(s)")
    return "\n".join(lines)


def _cell(value):
    if value is None:
        return "-"
    return f"{value:.2f}" if isinstance(value, float) else value
