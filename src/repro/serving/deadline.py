"""Per-request deadline budgets for the inference service.

A :class:`Deadline` is an absolute :func:`time.monotonic` instant plus
helpers to read the remaining budget.  It is created at admission time
and travels with the request: the queue wait, every kernel attempt, and
every backoff sleep all draw from the same budget.  The service checks
it when a batch is about to run (an expired member is rejected with
:class:`~repro.errors.DeadlineExceeded`) and before each retry; a
product that has started runs to completion.
"""

from __future__ import annotations

import time

from repro.utils.validation import check_positive


class Deadline:
    """An absolute monotonic-clock deadline with a fixed initial budget.

    ``clock`` is injectable for tests (defaults to :func:`time.monotonic`).
    """

    __slots__ = ("budget_s", "started_at", "expires_at", "_clock")

    def __init__(self, budget_s: float, *, clock=time.monotonic):
        check_positive(budget_s, "budget_s")
        self.budget_s = float(budget_s)
        self._clock = clock
        self.started_at = clock()
        self.expires_at = self.started_at + self.budget_s

    def remaining(self) -> float:
        """Seconds left before expiry (clamped at 0)."""
        return max(0.0, self.expires_at - self._clock())

    @property
    def expired(self) -> bool:
        return self._clock() >= self.expires_at

    def elapsed(self) -> float:
        return self._clock() - self.started_at

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Deadline(budget_s={self.budget_s}, remaining={self.remaining():.3f}s)"
