"""Retry policy: exponential backoff with decorrelated jitter.

Transient fast-path failures (a non-finite product from finite inputs)
are worth one or two more attempts — but naive fixed-interval retries
synchronise clients into retry storms.
The service uses *decorrelated jitter* (Brooker's variant of capped
exponential backoff): each delay is drawn uniformly from
``[base, prev * 3]`` and capped, which decorrelates concurrent retriers
while still growing the expected delay geometrically.

Every sleep is additionally clamped to the request's remaining deadline
budget by the caller — a retry never outlives its request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import NumericalError, ServingError


@dataclass(frozen=True)
class RetryPolicy:
    """How many attempts a request gets and how long to wait between them.

    ``max_attempts`` counts the first attempt: ``max_attempts=3`` means at
    most two retries.  ``base_s`` seeds the first delay; ``cap_s`` bounds
    every delay.
    """

    max_attempts: int = 3
    base_s: float = 0.005
    cap_s: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_s <= 0 or self.cap_s < self.base_s:
            raise ValueError(
                f"need 0 < base_s <= cap_s, got base_s={self.base_s}, cap_s={self.cap_s}"
            )

    def delays(self, rng: np.random.Generator) -> Iterator[float]:
        """Infinite stream of decorrelated-jitter delays (caller slices it)."""
        prev = self.base_s
        while True:
            prev = min(self.cap_s, float(rng.uniform(self.base_s, prev * 3.0)))
            yield prev


def is_transient(exc: BaseException) -> bool:
    """Whether retrying the fast path could plausibly fix this failure.

    A non-finite *output* from finite inputs may be an in-flight buffer
    race or injected corruption — retry (the circuit breaker catches the
    persistent case).  A non-finite *input* (the guard marks those with
    ``input_rejection``), a shape mismatch, a serving-layer signal
    (overload, deadline), or any non-library error is deterministic from
    the request's point of view — do not retry.
    """
    if getattr(exc, "input_rejection", False):
        return False
    if isinstance(exc, ServingError):
        return False
    return isinstance(exc, NumericalError)
