"""Dynamic lock-witness recorder: observed acquisition orders vs the graph.

The SC7xx pass (:mod:`repro.staticcheck.locks`) claims its static lock
acquisition graph *over-approximates* every order the runtime can
exhibit.  That claim is only worth something if it is checked, so this
module provides the test-only instrumentation that checks it: wrap the
lock attributes of live objects in recording proxies, run a real
workload (the serving/streaming soaks, or the miniature exercise behind
``repro check concurrency --witness``), and then require every
*witnessed* edge — lock ``B`` acquired by a thread already holding
``A`` — to be present in the static graph.

A witnessed edge the static pass did not predict means the analysis has
a blind spot (an unresolved call path, a lock acquired through a foreign
object) and is reported as ``SC704``; a witnessed *pair of opposing*
edges is a live lock-order inversion — the dynamic proof of an SC701
cycle — and is reported as ``SC705``.  Both surface through the same
:class:`~repro.staticcheck.report.AuditReport` machinery as everything
else, so the CI cross-check job fails loudly instead of silently
trusting the static result.

Instrumentation is deliberately shallow: proxies record ``acquire`` /
``release`` (and context-manager entry/exit) per thread and delegate
everything else.  ``Condition.wait`` re-acquires its lock internally
without passing through the proxy — the witness sees the *acquisition
order*, which is what the graph models, not hold durations.  Nothing in
production code imports this module.
"""

from __future__ import annotations

import threading

from repro.staticcheck.report import AuditReport, Severity

_LOCK_TYPES = (type(threading.Lock()), type(threading.RLock()))


class LockWitness:
    """Records per-thread lock acquisition order across proxied locks."""

    def __init__(self):
        self._tls = threading.local()
        self._mu = threading.Lock()
        #: (held, acquired) -> observation count
        self.edges: dict[tuple[str, str], int] = {}
        #: lock name -> acquisition count
        self.acquisitions: dict[str, int] = {}

    def _stack(self) -> list[str]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def on_acquire(self, name: str) -> None:
        stack = self._stack()
        with self._mu:
            self.acquisitions[name] = self.acquisitions.get(name, 0) + 1
            for held in stack:
                if held != name:
                    key = (held, name)
                    self.edges[key] = self.edges.get(key, 0) + 1
        stack.append(name)

    def on_release(self, name: str) -> None:
        stack = self._stack()
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] == name:
                del stack[i]
                return

    def inversions(self) -> list[tuple[str, str]]:
        """Witnessed edge pairs observed in both directions (live cycles)."""
        return sorted(
            (a, b) for (a, b) in self.edges if a < b and (b, a) in self.edges
        )


class WitnessedLock:
    """Recording proxy over a Lock/RLock (drop-in for ``with``/acquire)."""

    def __init__(self, inner, name: str, witness: LockWitness):
        self._inner = inner
        self._name = name
        self._witness = witness

    def acquire(self, *args, **kwargs) -> bool:
        ok = self._inner.acquire(*args, **kwargs)
        if ok:
            self._witness.on_acquire(self._name)
        return ok

    def release(self) -> None:
        self._inner.release()
        self._witness.on_release(self._name)

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class WitnessedCondition:
    """Recording proxy over a Condition: entry/exit recorded, wait delegated."""

    def __init__(self, inner, name: str, witness: LockWitness):
        self._inner = inner
        self._name = name
        self._witness = witness

    def __enter__(self):
        self._inner.__enter__()
        self._witness.on_acquire(self._name)
        return self

    def __exit__(self, *exc):
        self._witness.on_release(self._name)
        return self._inner.__exit__(*exc)

    def acquire(self, *args, **kwargs) -> bool:
        ok = self._inner.acquire(*args, **kwargs)
        if ok:
            self._witness.on_acquire(self._name)
        return ok

    def release(self) -> None:
        self._inner.release()
        self._witness.on_release(self._name)

    def wait(self, timeout=None):
        return self._inner.wait(timeout)

    def wait_for(self, predicate, timeout=None):
        return self._inner.wait_for(predicate, timeout)

    def notify(self, n: int = 1) -> None:
        self._inner.notify(n)

    def notify_all(self) -> None:
        self._inner.notify_all()


def instrument(obj, witness: LockWitness, *, owner: str | None = None) -> list[str]:
    """Replace ``obj``'s Lock/RLock/Condition attributes with proxies.

    Returns the qualified names (``Class.attr``) now being witnessed.
    Safe to call once per object; already-proxied attributes are left
    alone.  Test-only: mutates the live object.
    """
    cls = owner or type(obj).__name__
    wrapped: list[str] = []
    for attr, val in list(vars(obj).items()):
        name = f"{cls}.{attr}"
        if isinstance(val, (WitnessedLock, WitnessedCondition)):
            continue
        if isinstance(val, _LOCK_TYPES):
            setattr(obj, attr, WitnessedLock(val, name, witness))
            wrapped.append(name)
        elif isinstance(val, threading.Condition):
            setattr(obj, attr, WitnessedCondition(val, name, witness))
            wrapped.append(name)
    return wrapped


def witness_service(service, witness: LockWitness | None = None) -> LockWitness:
    """Instrument an :class:`InferenceService` and its helpers (duck-typed).

    Wraps the service's own locks plus those of its stats object, batch
    collector and breaker, so a soak run through the instrumented service
    records every acquisition order the serving layer actually exhibits.  Returns the witness for later
    :func:`cross_check`.
    """
    w = witness or LockWitness()
    instrument(service, w)
    stats = getattr(service, "stats", None)
    if stats is not None:
        instrument(stats, w)
    collector = getattr(service, "_collector", None)
    if collector is not None:
        instrument(collector, w)
    breaker = getattr(service, "breaker", None)
    if breaker is not None:
        instrument(breaker, w)
    return w


def cross_check(
    witness: LockWitness,
    graph,
    *,
    subject: str = "lock-witness",
) -> AuditReport:
    """Require every witnessed edge to be predicted by the static graph.

    ``graph`` is the :class:`~repro.staticcheck.locks.LockGraph` from
    :func:`~repro.staticcheck.locks.scan_locks`.  SC704 (warning) for an
    observed edge the static pass missed — the static result cannot be
    trusted for those locks until the blind spot is closed; SC705
    (error) for an observed two-way ordering, which is a deadlock in
    waiting regardless of what the static pass thinks.
    """
    report = AuditReport(subject=subject)
    unpredicted = [
        (a, b, n)
        for (a, b), n in sorted(witness.edges.items())
        if not graph.has_edge(a, b)
    ]
    if unpredicted:
        for a, b, n in unpredicted[:8]:
            report.add(
                "SC704",
                f"witnessed lock-order edge `{a}` → `{b}` ({n}×) is absent "
                "from the static acquisition graph — the SC7xx pass has a "
                "blind spot on this path (unresolved call or foreign-object "
                "lock); model it or the static verdict is unsound here",
                severity=Severity.WARNING,
            )
        report.failed("witness.predicted")
    else:
        report.passed("witness.predicted")
    inversions = witness.inversions()
    if inversions:
        for a, b in inversions[:8]:
            report.add(
                "SC705",
                f"witnessed lock-order inversion: `{a}` and `{b}` were each "
                "acquired while holding the other — a deadlock in waiting, "
                "observed live (dynamic confirmation of an SC701 cycle)",
            )
        report.failed("witness.acyclic")
    else:
        report.passed("witness.acyclic")
    return report
