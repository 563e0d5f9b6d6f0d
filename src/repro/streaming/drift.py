"""Compression-drift metering for stream-patched CBMs.

In-place patches keep the matrix *exact* but erode compression quality:
every patched delta row may spend more deltas than the fresh-build
optimum, so the SpMM op count (the quantity Properties 1–2 bound)
creeps up.  :class:`DriftTracker` prices the live matrix with the same
:mod:`repro.core.opcount` accounting the paper's cost model uses,
compares it against the op count captured at the last fresh rebuild,
and exposes

* ``drift``   — fractional op-count growth since the rebuild baseline
  (0.0 = as good as fresh), and
* ``staleness`` — patch batches absorbed since that rebuild,

plus a rebuild trigger (:meth:`DriftTracker.should_rebuild`) that fires
when either crosses its :class:`DriftPolicy` threshold.  With
``enforce=True`` the staleness budget becomes backpressure:
:meth:`DriftTracker.check_staleness` raises
:class:`~repro.errors.StalenessError` so writers stall instead of
drifting unboundedly far from the last durable generation.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.core import opcount
from repro.errors import StalenessError

__all__ = ["DriftPolicy", "DriftTracker"]


@dataclass(frozen=True)
class DriftPolicy:
    """When to rebuild, and how stale a patched matrix may get.

    ``max_drift`` is the fractional op-count growth that triggers a
    rebuild (0.25 = rebuild once patched SpMM costs 25% more than
    fresh); ``staleness_budget`` caps patch batches between rebuilds;
    ``enforce`` turns the budget from a trigger into backpressure;
    ``columns`` is the operand width the op model is priced at (both
    sides scale linearly in it, so it only matters for readability of
    the reported numbers).
    """

    max_drift: float = 0.25
    staleness_budget: int = 64
    enforce: bool = False
    columns: int = 1

    def __post_init__(self):
        if self.max_drift < 0:
            raise ValueError(f"max_drift must be >= 0, got {self.max_drift}")
        if self.staleness_budget < 1:
            raise ValueError(
                f"staleness_budget must be >= 1, got {self.staleness_budget}"
            )
        if self.columns < 1:
            raise ValueError(f"columns must be >= 1, got {self.columns}")


class DriftTracker:
    """Thread-safe drift/staleness counters for one mutable adjacency."""

    def __init__(self, policy: DriftPolicy | None = None):
        self.policy = policy if policy is not None else DriftPolicy()
        self._lock = threading.Lock()
        self._baseline_ops: int | None = None
        self._baseline_deltas = 0
        self._live_ops = 0
        self._live_deltas = 0
        self._version = 0
        self._rebuilt_version = 0
        self._patches_since_rebuild = 0
        self._edges_since_rebuild = 0
        self._rebuilds = 0
        self._replayed_total = 0

    def _ops(self, cbm) -> int:
        return int(
            opcount.cbm_spmm_ops(
                cbm.delta, cbm.tree, self.policy.columns, variant=cbm.variant.value
            ).total
        )

    # ------------------------------------------------------------------
    # Event hooks (called by MutableAdjacency)
    # ------------------------------------------------------------------
    def mark_rebuilt(self, cbm, *, version: int, replayed: int = 0) -> None:
        """Reset the drift baseline to a freshly rebuilt matrix."""
        ops = self._ops(cbm)
        deltas = int(cbm.num_deltas)
        with self._lock:
            if self._baseline_ops is not None:
                self._rebuilds += 1
            self._baseline_ops = ops
            self._baseline_deltas = deltas
            self._live_ops = ops
            self._live_deltas = deltas
            self._version = int(version)
            self._rebuilt_version = int(version)
            self._patches_since_rebuild = 0
            self._edges_since_rebuild = 0
            self._replayed_total += int(replayed)

    def note_patch(self, cbm, *, version: int, edges: int) -> None:
        """Record one applied patch batch and reprice the live matrix."""
        ops = self._ops(cbm)
        deltas = int(cbm.num_deltas)
        with self._lock:
            self._live_ops = ops
            self._live_deltas = deltas
            self._version = int(version)
            self._patches_since_rebuild += 1
            self._edges_since_rebuild += int(edges)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def drift(self) -> float:
        """Fractional op-count growth vs the last rebuild baseline."""
        with self._lock:
            if not self._baseline_ops:
                return 0.0
            return self._live_ops / self._baseline_ops - 1.0

    def staleness(self) -> int:
        """Patch batches absorbed since the last rebuild."""
        with self._lock:
            return self._patches_since_rebuild

    def should_rebuild(self) -> bool:
        """True when drift or staleness crossed the policy thresholds."""
        p = self.policy
        with self._lock:
            if self._baseline_ops and (
                self._live_ops / self._baseline_ops - 1.0 > p.max_drift
            ):
                return True
            return self._patches_since_rebuild >= p.staleness_budget

    def check_staleness(self) -> None:
        """Backpressure hook: raise when the enforced budget is spent."""
        p = self.policy
        if not p.enforce:
            return
        with self._lock:
            stale = self._patches_since_rebuild
        if stale >= p.staleness_budget:
            raise StalenessError(
                f"staleness budget spent: {stale} patch batches since the "
                f"last rebuild (budget {p.staleness_budget}) — wait for the "
                "background rebuild to land before mutating further",
                staleness=stale,
                budget=p.staleness_budget,
            )

    def snapshot(self) -> dict:
        """All counters, for health endpoints and soak reports."""
        p = self.policy
        with self._lock:
            baseline = self._baseline_ops or 0
            drift = (self._live_ops / baseline - 1.0) if baseline else 0.0
            return {
                "drift": drift,
                "max_drift": p.max_drift,
                "staleness": self._patches_since_rebuild,
                "staleness_budget": p.staleness_budget,
                "enforce": p.enforce,
                "version": self._version,
                "rebuilt_version": self._rebuilt_version,
                "edges_since_rebuild": self._edges_since_rebuild,
                "rebuilds": self._rebuilds,
                "replayed_total": self._replayed_total,
                "baseline_ops": baseline,
                "live_ops": self._live_ops,
                "baseline_deltas": self._baseline_deltas,
                "live_deltas": self._live_deltas,
            }
