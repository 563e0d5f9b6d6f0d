"""Seeded-defect mutation catalog for the concurrency verifier.

Acceptance harness for the whole-stack verifier: a catalog of known
concurrency defects — span-discipline violations, happens-before
races, torn commit protocols, deadlock cycles, blocking calls under
locks, predicate-free condition waits — each seeded into an otherwise
clean plan or module.  The verifier must detect EVERY entry (100%
detection, asserted both per-entry and in aggregate) while reporting
ZERO findings on the clean control versions of the same shapes.  This
is the negative control CI runs in the ``concurrency-check`` job: a
verifier that cannot find a planted bug proves nothing about HEAD
being clean.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.builder import build_cbm
from repro.staticcheck import (
    Access,
    FusedStage,
    analyze_ir,
    lint_source,
    lower_batch_layout,
    lower_kernel_plan,
    lower_stream_swap,
)
from repro.staticcheck.ir import spans_of
from repro.staticcheck.locks import scan_lock_source

from tests.conftest import random_adjacency_csr


# ----------------------------------------------------------------------
# Shared clean fixtures the mutants start from


def _kernel_plan():
    a = random_adjacency_csr(100, density=0.15, seed=3)
    cbm, _ = build_cbm(a, alpha=2)
    return cbm.plan(update="level")


def _batch_ir():
    from repro.serving.batching import BatchLayout

    return lower_batch_layout(
        BatchLayout.pack([1, 2, 4, 8], quantum=8, n_rows=16)
    )


_LOCK_PRELUDE = (
    "import threading\n"
    "a_lock = threading.Lock()\n"
    "b_lock = threading.Lock()\n"
)


def _codes_of(report) -> set[str]:
    return {f.code for f in report.findings}


# ----------------------------------------------------------------------
# The catalog: (name, expected code prefix, detector)
#
# Each detector seeds exactly one defect and returns the codes the
# verifier reported.  Expected prefixes, not exact codes, so a defect
# caught under a sibling rule (e.g. R401 vs R402 for an unsafe fusion)
# still counts as detected — but a silent pass never does.


def _mut_batch_overlap():
    ir = _batch_ir()
    (acc,) = ir.stage("member0").writes
    lo, hi = int(acc.spans[0, 0]), int(acc.spans[0, 1])
    ir.replace_stage("member0", writes=(Access("stacked", spans_of((lo, hi + 1))),))
    return _codes_of(analyze_ir(ir))


def _mut_batch_oob():
    ir = _batch_ir()
    total = ir.buffers["stacked"].size
    ir.replace_stage(
        "member3", writes=(Access("stacked", spans_of((total - 1, total + 3))),)
    )
    return _codes_of(analyze_ir(ir))


def _mut_batch_gap():
    ir = _batch_ir()
    (acc,) = ir.stage("member1").writes
    lo, hi = int(acc.spans[0, 0]), int(acc.spans[0, 1])
    ir.replace_stage(
        "member1", writes=(Access("stacked", spans_of((lo + 1, hi + 1))),)
    )
    return _codes_of(analyze_ir(ir))


def _mut_batch_zero_width():
    ir = _batch_ir()
    ir.replace_stage("member0", writes=(Access("stacked", spans_of((0, 0))),))
    return _codes_of(analyze_ir(ir))


def _mut_kernel_dropped_join():
    ir = lower_kernel_plan(_kernel_plan())
    ir.replace_stage("finalize", after=())
    return _codes_of(analyze_ir(ir))


def _mut_kernel_unsafe_fusion():
    plan = _kernel_plan()
    if len(plan.branches) < 2:
        pytest.skip("plan has fewer than two branches")
    n = int(plan.shape[0])
    fused = (FusedStage("row-scale", branch=0, rows=np.arange(n)),)
    return _codes_of(analyze_ir(lower_kernel_plan(plan, fused=fused)))


def _mut_kernel_lost_barrier():
    ir = lower_kernel_plan(_kernel_plan())
    sids = [s.sid for s in ir.stages if s.sid.startswith("branch")]
    if len(sids) < 1:
        pytest.skip("plan has no branches")
    # a branch dispatched before the multiply finished reads garbage
    ir.replace_stage(sids[0], after=())
    return _codes_of(analyze_ir(ir))


def _mut_stream_serve_early():
    ir = lower_stream_swap()
    ir.replace_stage("serve", after=())
    return _codes_of(analyze_ir(ir))


def _mut_stream_commit_first():
    ir = lower_stream_swap()
    stages = {s.sid: s for s in ir.stages}
    ir.stages = [stages[s] for s in ("snapshot", "commit", "build", "publish", "serve")]
    return _codes_of(analyze_ir(ir))


def _mut_deadlock_ab_ba():
    src = _LOCK_PRELUDE + (
        "def fwd():\n"
        "    with a_lock:\n"
        "        with b_lock:\n"
        "            pass\n"
        "def bwd():\n"
        "    with b_lock:\n"
        "        with a_lock:\n"
        "            pass\n"
    )
    return {f.code for f in scan_lock_source(src).findings}


def _mut_deadlock_interprocedural():
    src = _LOCK_PRELUDE + (
        "def takes_b():\n"
        "    with b_lock:\n"
        "        pass\n"
        "def takes_a():\n"
        "    with a_lock:\n"
        "        pass\n"
        "def fwd():\n"
        "    with a_lock:\n"
        "        takes_b()\n"
        "def bwd():\n"
        "    with b_lock:\n"
        "        takes_a()\n"
    )
    return {f.code for f in scan_lock_source(src).findings}


def _mut_result_under_lock():
    src = _LOCK_PRELUDE + (
        "def f(fut):\n"
        "    with a_lock:\n"
        "        return fut.result()\n"
    )
    return {f.code for f in scan_lock_source(src).findings}


def _mut_dispatch_under_lock():
    src = _LOCK_PRELUDE + (
        "def f(pool, job):\n"
        "    with a_lock:\n"
        "        return pool.submit(job)\n"
    )
    return {f.code for f in scan_lock_source(src).findings}


def _mut_wait_without_predicate():
    src = (
        "import threading\n"
        "class S:\n"
        "    def __init__(self):\n"
        "        self._cond = threading.Condition()\n"
        "    def f(self):\n"
        "        with self._cond:\n"
        "            self._cond.wait()\n"
    )
    return {f.code for f in scan_lock_source(src).findings}


def _mut_queue_get_under_lock():
    src = (
        "def f(self):\n"
        "    with self._lock:\n"
        "        return self._queue.get()\n"
    )
    return {f.code for f in lint_source(src)}


def _mut_event_wait_under_lock():
    src = (
        "def f(self):\n"
        "    with self._lock:\n"
        "        self._ready.wait()\n"
    )
    return {f.code for f in lint_source(src)}


CATALOG = [
    ("batch-member-overlap", "HZ-X001", _mut_batch_overlap),
    ("batch-out-of-bounds", "HZ-X002", _mut_batch_oob),
    ("batch-unowned-gap", "HZ-X003", _mut_batch_gap),
    ("batch-zero-width", "HZ-X004", _mut_batch_zero_width),
    ("kernel-dropped-join", "HZ-R4", _mut_kernel_dropped_join),
    ("kernel-unsafe-fusion", "HZ-R4", _mut_kernel_unsafe_fusion),
    ("kernel-lost-dispatch-barrier", "HZ-R4", _mut_kernel_lost_barrier),
    ("stream-serve-before-publish", "HZ-R402", _mut_stream_serve_early),
    ("stream-commit-before-build", "HZ-R403", _mut_stream_commit_first),
    ("deadlock-ab-ba", "SC701", _mut_deadlock_ab_ba),
    ("deadlock-interprocedural", "SC701", _mut_deadlock_interprocedural),
    ("future-result-under-lock", "SC702", _mut_result_under_lock),
    ("pool-dispatch-under-lock", "SC702", _mut_dispatch_under_lock),
    ("cond-wait-no-predicate-loop", "SC703", _mut_wait_without_predicate),
    ("queue-get-under-lock", "SC401", _mut_queue_get_under_lock),
    ("event-wait-under-lock", "SC401", _mut_event_wait_under_lock),
]


class TestMutationCatalog:
    def test_catalog_meets_size_floor(self):
        assert len(CATALOG) >= 12

    @pytest.mark.parametrize(
        "name,expected,detect", CATALOG, ids=[c[0] for c in CATALOG]
    )
    def test_defect_is_detected(self, name, expected, detect):
        codes = detect()
        assert any(c.startswith(expected) for c in codes), (
            f"seeded defect {name!r} escaped: expected a {expected}* "
            f"finding, got {sorted(codes) or 'nothing'}"
        )

    def test_aggregate_detection_rate_is_total(self):
        """100% of the catalog, computed in one place for the CI log."""
        missed = []
        for name, expected, detect in CATALOG:
            try:
                codes = detect()
            except Exception as exc:  # pytest.skip propagates as Skipped
                if type(exc).__name__ == "Skipped":
                    continue
                raise
            if not any(c.startswith(expected) for c in codes):
                missed.append(name)
        assert missed == [], f"detection rate below 100%: missed {missed}"


class TestCleanControls:
    """The same shapes, unmutated, must produce ZERO findings."""

    def test_kernel_plan_clean(self):
        rep = analyze_ir(lower_kernel_plan(_kernel_plan()))
        assert rep.findings == [], rep.render()

    def test_kernel_plan_safe_fusion_clean(self):
        plan = _kernel_plan()
        fused = (
            (FusedStage("row-scale", branch=0),) if len(plan.branches) else ()
        )
        rep = analyze_ir(lower_kernel_plan(plan, fused=fused))
        assert rep.findings == [], rep.render()

    def test_batch_layout_clean(self):
        rep = analyze_ir(_batch_ir())
        assert rep.findings == [], rep.render()

    def test_stream_swap_clean(self):
        rep = analyze_ir(lower_stream_swap())
        assert rep.findings == [], rep.render()

    def test_ordered_locks_clean(self):
        src = _LOCK_PRELUDE + (
            "def one():\n"
            "    with a_lock:\n"
            "        with b_lock:\n"
            "            pass\n"
            "def two():\n"
            "    with a_lock:\n"
            "        with b_lock:\n"
            "            pass\n"
        )
        assert scan_lock_source(src).findings == []

    def test_clean_head_has_zero_concurrency_findings(self):
        """Acceptance: the shipped tree itself reports nothing."""
        import pathlib

        from repro.staticcheck import analyze_locks

        root = pathlib.Path(__file__).resolve().parents[2]
        report, _ = analyze_locks([root / "src" / "repro"], root=root)
        assert report.findings == [], report.render()
