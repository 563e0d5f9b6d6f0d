"""Circuit breaker over the CBM fast path: a three-tier degradation ladder.

The paper's CBM kernel is fast but has more failure modes than the CSR
baseline (in-place update stage, compression-tree trust, branch-parallel
workers).  The breaker hears one outcome per execution — a failure when
a strict fast path raised or a guarded execution had to fall back, else
a success — and moves the adjacency down a ladder of serving tiers when
the failure rate in a rolling window crosses the threshold:

* :attr:`ServeTier.FAST` — strict guarded CBM: validated planned
  products, fail-fast (failures surface to the breaker, not the client);
* :attr:`ServeTier.GUARDED` — fallback-protected CBM: the guard repairs
  failures with the reference chain, so clients still get answers while
  every repaired execution still counts as a failure;
* :attr:`ServeTier.DEGRADED` — the CSR reference product only: slower,
  but structurally independent of every CBM failure mode.

State machine (per adjacency)::

                 failures >= threshold in window
      CLOSED ────────────────────────────────────► OPEN  (tier += 1)
        ▲                                            │ cooldown elapses
        │ probes all succeed: tier -= 1;             ▼
        │ re-OPEN to climb further, or          HALF_OPEN ── probe at tier-1
        │ CLOSE when back at FAST                    │
        └───────────────────────────────── probe fails: back to OPEN
                                            (cooldown grows, capped)

Recovery is stepwise: DEGRADED proves GUARDED healthy before GUARDED
probes FAST, each step gated by ``probe_budget`` successful half-open
probes.  All methods are thread-safe; ``clock`` is injectable for tests.
"""

from __future__ import annotations

import enum
import threading
import time
from collections import deque


class ServeTier(enum.IntEnum):
    """Execution tier for one request; higher is safer and slower."""

    FAST = 0
    GUARDED = 1
    DEGRADED = 2


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Failure-rate breaker with tiered degradation and half-open probing.

    Parameters
    ----------
    window:
        Number of recent outcomes kept for the failure-rate computation.
    failure_threshold:
        Minimum failures inside the window before a trip is considered.
    failure_rate:
        Minimum failure fraction inside the window to trip.
    cooldown_s:
        How long an OPEN breaker waits before probing; doubles on every
        failed probe round (capped at ``max_cooldown_s``) and resets on
        promotion.
    probe_budget:
        Consecutive successful half-open probes required to climb one tier.
    probe_width:
        Maximum stacked-operand width (dense columns) a half-open probe
        may carry.  The micro-batching stage executes whole batches at
        one tier, so an unbounded probe would expose up to
        ``max_columns`` coalesced requests to the faster (suspect) tier
        at once; with a cap, wide batches keep serving at the safe tier
        and only narrow batches probe.  ``None`` (default) disables the
        cap.
    """

    def __init__(
        self,
        *,
        window: int = 16,
        failure_threshold: int = 4,
        failure_rate: float = 0.5,
        cooldown_s: float = 1.0,
        max_cooldown_s: float = 30.0,
        probe_budget: int = 3,
        probe_width: int | None = None,
        clock=time.monotonic,
    ):
        if window < 1 or failure_threshold < 1 or probe_budget < 1:
            raise ValueError("window, failure_threshold, probe_budget must be >= 1")
        if not 0.0 < failure_rate <= 1.0:
            raise ValueError(f"failure_rate must lie in (0, 1], got {failure_rate}")
        if cooldown_s <= 0 or max_cooldown_s < cooldown_s:
            raise ValueError("need 0 < cooldown_s <= max_cooldown_s")
        if probe_width is not None and probe_width < 1:
            raise ValueError(f"probe_width must be >= 1 or None, got {probe_width}")
        self.probe_width = probe_width
        self.window = window
        self.failure_threshold = failure_threshold
        self.failure_rate = failure_rate
        self.base_cooldown_s = cooldown_s
        self.max_cooldown_s = max_cooldown_s
        self.probe_budget = probe_budget
        self._clock = clock
        self._lock = threading.Lock()

        self.state = BreakerState.CLOSED
        self.tier = ServeTier.FAST
        self.transitions: list[dict] = []
        self._outcomes: deque[bool] = deque(maxlen=window)
        self._cooldown_s = cooldown_s
        self._opened_at: float | None = None
        self._probes_issued = 0
        self._probe_successes = 0

    # ------------------------------------------------------------------
    def _record_transition(self, event: str) -> None:
        self.transitions.append(
            {
                "event": event,
                "state": self.state.value,
                "tier": self.tier.name,
                "at": self._clock(),
            }
        )

    def _trip(self) -> None:
        """Degrade one tier and open (called under the lock)."""
        if self.tier < ServeTier.DEGRADED:
            self.tier = ServeTier(self.tier + 1)
        self.state = BreakerState.OPEN
        self._opened_at = self._clock()
        self._cooldown_s = self.base_cooldown_s  # fresh tier, fresh cooldown
        self._outcomes.clear()
        self._probes_issued = 0
        self._probe_successes = 0
        self._record_transition("trip")

    def _promote(self) -> None:
        """Climb one tier after a successful probe round (under the lock)."""
        self.tier = ServeTier(self.tier - 1)
        self._cooldown_s = self.base_cooldown_s
        self._outcomes.clear()
        self._probes_issued = 0
        self._probe_successes = 0
        if self.tier == ServeTier.FAST:
            self.state = BreakerState.CLOSED
            self._opened_at = None
            self._record_transition("promote")
        else:
            # Not home yet: re-open so the next cooldown probes the
            # next-faster tier — stepwise DEGRADED → GUARDED → FAST.
            self.state = BreakerState.OPEN
            self._opened_at = self._clock()
            self._record_transition("promote")

    # ------------------------------------------------------------------
    def acquire(self, *, width: int = 1) -> tuple[ServeTier, bool]:
        """Pick the tier for one execution; returns ``(tier, is_probe)``.

        In HALF_OPEN state up to ``probe_budget`` in-flight executions
        are routed one tier faster than the current one (the probe);
        everyone else serves at the safe tier.  ``width`` is the stacked
        operand width of the execution (1 for a lone vector): when
        ``probe_width`` is configured, executions wider than it never
        probe — a coalesced batch is many requests, and the blast radius
        of a failed probe should stay one request wide.
        """
        with self._lock:
            if (
                self.state is BreakerState.OPEN
                and self.tier > ServeTier.FAST
                and self._opened_at is not None
                and self._clock() - self._opened_at >= self._cooldown_s
            ):
                self.state = BreakerState.HALF_OPEN
                self._probes_issued = 0
                self._probe_successes = 0
                self._record_transition("half_open")
            if (
                self.state is BreakerState.HALF_OPEN
                and self._probes_issued < self.probe_budget
                and (self.probe_width is None or width <= self.probe_width)
            ):
                self._probes_issued += 1
                return ServeTier(self.tier - 1), True
            return self.tier, False

    def record(self, tier: ServeTier, ok: bool, *, probe: bool = False) -> None:
        """Feed one execution's outcome back (``probe`` as returned by
        acquire).  A guarded execution whose guard fell back is a failure,
        so a probe that needed the fallback fails the probe round."""
        with self._lock:
            if probe:
                if self.state is not BreakerState.HALF_OPEN:
                    return  # stale probe outcome from before a state change
                if not ok:
                    # Probe failed: stay at the safe tier, back off longer.
                    self._cooldown_s = min(self._cooldown_s * 2.0, self.max_cooldown_s)
                    self.state = BreakerState.OPEN
                    self._opened_at = self._clock()
                    self._probes_issued = 0
                    self._probe_successes = 0
                    self._record_transition("probe_failed")
                    return
                self._probe_successes += 1
                if self._probe_successes >= self.probe_budget:
                    self._promote()
                return
            self._outcomes.append(ok)
            if ok or self.tier >= ServeTier.DEGRADED:
                return
            # Failures count in every state: an adjacency already OPEN at
            # GUARDED must still be able to trip down to DEGRADED while
            # its internal fallbacks keep firing.
            failures = sum(1 for o in self._outcomes if not o)
            if (
                failures >= self.failure_threshold
                and failures / len(self._outcomes) >= self.failure_rate
            ):
                self._trip()

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        with self._lock:
            outcomes = list(self._outcomes)
            return {
                "state": self.state.value,
                "tier": self.tier.name,
                "window": len(outcomes),
                "recent_failures": sum(1 for o in outcomes if not o),
                "cooldown_s": self._cooldown_s,
                "transitions": len(self.transitions),
                "probe_budget": self.probe_budget,
                "probe_width": self.probe_width,
            }

    def transition_log(self) -> list[dict]:
        with self._lock:
            return [dict(t) for t in self.transitions]
