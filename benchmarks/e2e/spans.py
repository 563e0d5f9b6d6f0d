"""In-memory spans for the traced benchmark run.

A span is one timed call across a layer boundary: name, start, end, the
span that caused it (``parent``) and the request or forward it belongs
to (``trace``).  Spans are recorded by the benchmark's own code around
its calls into the library's public functions; nothing inside ``src/``
is instrumented.  They stay in memory until :meth:`Tracer.write` dumps
them as JSON lines at the end of the run.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Collects spans; nesting is tracked per thread."""

    def __init__(self) -> None:
        self._spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def record(self, name: str, start: float, end: float, *, trace: int,
               parent: int | None = None) -> int:
        """Add a finished span (times from ``time.perf_counter``); returns its id."""
        with self._lock:
            sid = len(self._spans)
            self._spans.append({"id": sid, "name": name, "start": start, "end": end,
                                "parent": parent, "trace": trace})
        return sid

    @contextmanager
    def span(self, name: str, trace: int):
        """Time the enclosed block as a child of the innermost open span."""
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        sid = self.record(name, time.perf_counter(), float("nan"), trace=trace, parent=parent)
        stack.append(sid)
        try:
            yield sid
        finally:
            stack.pop()
            self._spans[sid]["end"] = time.perf_counter()

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its direct children cover."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self._spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        return {s["id"]: s["end"] - s["start"] - child_time[s["id"]] for s in self._spans}

    def durations(self, name: str, *, parent: str | None = None) -> list[float]:
        """Durations (s) of every span called ``name``, optionally only
        those whose parent span is called ``parent``."""
        out = []
        for s in self._spans:
            if s["name"] != name:
                continue
            if parent is not None and (
                s["parent"] is None or self._spans[s["parent"]]["name"] != parent
            ):
                continue
            out.append(s["end"] - s["start"])
        return out

    def median_ms(self, name: str, *, parent: str | None = None) -> float:
        return 1e3 * statistics.median(self.durations(name, parent=parent))

    def unattributed_frac(self, name: str) -> float:
        """Median share of a ``name`` span not covered by its children."""
        own = self.self_times()
        return statistics.median(
            own[s["id"]] / (s["end"] - s["start"]) for s in self._spans if s["name"] == name
        )

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self._spans:
                fh.write(json.dumps(s) + "\n")
