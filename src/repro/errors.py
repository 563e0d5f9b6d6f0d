"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one base class.  Subclasses are grouped by the subsystem
that raises them; the messages are written to be actionable (they name the
offending argument and the constraint that was violated).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ShapeError(ReproError, ValueError):
    """An operand has an incompatible or malformed shape."""

    @classmethod
    def mismatch(cls, op: str, left: tuple, right: tuple) -> "ShapeError":
        return cls(f"{op}: incompatible shapes {left} and {right}")


class DTypeError(ReproError, TypeError):
    """An operand has an unsupported dtype."""


class NotBinaryError(ReproError, ValueError):
    """A matrix expected to be binary contains values outside {0, 1}."""


class FormatError(ReproError, ValueError):
    """A sparse container's internal arrays violate a format invariant.

    Raised by the ``check_format`` validators of the COO/CSR/CSC containers,
    e.g. out-of-range indices, non-monotone index pointers, or mismatched
    array lengths.
    """


class CompressionError(ReproError, RuntimeError):
    """The CBM compression pipeline could not produce a valid tree."""


class TreeError(ReproError, ValueError):
    """A compression tree is structurally invalid (cycle, bad root, ...)."""


class DatasetError(ReproError, KeyError):
    """An unknown dataset name was requested from the registry.

    ``KeyError.__str__`` wraps the message in ``repr`` quotes (it normally
    carries a missing *key*, not a sentence), which made CLI output read as
    ``'unknown dataset ...'``; override it so the message renders verbatim.
    """

    def __str__(self) -> str:
        return Exception.__str__(self)


class ConvergenceError(ReproError, RuntimeError):
    """An iterative procedure (e.g. generator calibration or GNN training)
    failed to converge or diverged.

    When raised by :func:`repro.gnn.train.train_gcn` divergence detection,
    the ``last_good`` attribute holds the most recent healthy
    :class:`~repro.gnn.train.TrainCheckpoint` (or None if the very first
    epoch diverged).
    """

    last_good = None


class ParallelError(ReproError, RuntimeError):
    """The parallel executor or schedule simulator hit an inconsistent state."""


class NumericalError(ReproError, ArithmeticError):
    """A kernel input or output contains non-finite values (NaN/Inf)."""


class IntegrityError(FormatError):
    """A stored artifact failed its checksum — the payload was corrupted."""


class CheckpointError(ReproError, RuntimeError):
    """A training checkpoint could not be saved, loaded, or resumed from."""


class RecoveryError(ReproError, RuntimeError):
    """The durable generation store (:mod:`repro.recovery`) was misused or
    has no usable state (e.g. no committed generation to load or roll back
    to).  Corrupted *content* raises :class:`IntegrityError` instead."""


class GNNError(ReproError, ValueError):
    """Invalid GNN model configuration or input."""


class ServingError(ReproError, RuntimeError):
    """Base class for the in-process inference service (:mod:`repro.serving`)."""


class OverloadError(ServingError):
    """The service shed this request: the bounded queue is full.

    ``retry_after`` is the service's estimate (seconds) of when capacity
    should be available again, derived from the queue depth and the
    recent per-request service time — clients back off at least that long.
    """

    def __init__(self, message: str, *, retry_after: float = 0.0):
        super().__init__(message)
        self.retry_after = float(retry_after)


class DeadlineExceeded(ServingError):
    """A request's deadline budget expired before a result was produced.

    Raised by the service worker (never left hanging): the request either
    timed out while queued, or its remaining budget was exhausted by the
    kernel attempts and backoff sleeps.
    """


class ServiceUnavailable(ServingError):
    """The service is not accepting requests (not started, draining, or
    stopped)."""


class StalenessError(ServingError):
    """Mutation pressure exceeded the streaming staleness budget.

    Raised by :class:`repro.streaming.DriftTracker` (when enforcement is
    enabled) as backpressure against further in-place patches: the live
    CBM has absorbed more patch batches since its last fresh rebuild than
    the configured budget allows, so the writer must wait for (or
    trigger) a rebuild before mutating further.  ``staleness`` is the
    observed patch count since the last rebuild, ``budget`` the
    configured limit it exceeded.
    """

    def __init__(self, message: str, *, staleness: int = 0, budget: int = 0):
        super().__init__(message)
        self.staleness = int(staleness)
        self.budget = int(budget)
