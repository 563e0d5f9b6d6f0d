"""Unit tests for the unified concurrency IR and its engine.

Covers the IR node types and span helpers, each lowering (kernel plan,
batch layout, streaming swap, fused stages), the
happens-before race analysis (HZ-R401/R402), and the commit-coverage
protocol check (HZ-R403) — both on clean plans (every verdict must be
clean) and on hand-mutated ones (every seeded defect must be found).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.builder import build_cbm
from repro.staticcheck import (
    Access,
    Buffer,
    FusedStage,
    PlanIR,
    SpanPolicy,
    Stage,
    analyze_ir,
    lower_batch_layout,
    lower_kernel_plan,
    lower_stream_swap,
)
from repro.staticcheck.hb import HBGraph
from repro.staticcheck.ir import rows_to_spans, spans_of

from tests.conftest import random_adjacency_csr


# ----------------------------------------------------------------------
# Span helpers and IR plumbing


class TestSpanHelpers:
    def test_rows_to_spans_coalesces_runs(self):
        spans = rows_to_spans([7, 0, 1, 2, 5, 6, 2])
        assert spans.tolist() == [[0, 3], [5, 8]]

    def test_rows_to_spans_empty(self):
        assert rows_to_spans([]).shape == (0, 2)

    def test_spans_of_shapes(self):
        assert spans_of().shape == (0, 2)
        assert spans_of((0, 4), (4, 8)).tolist() == [[0, 4], [4, 8]]


class TestPlanIR:
    def test_duplicate_buffer_rejected(self):
        ir = PlanIR(subject="s")
        ir.add_buffer(Buffer("x", size=4))
        with pytest.raises(ValueError):
            ir.add_buffer(Buffer("x", size=4))

    def test_duplicate_stage_rejected(self):
        ir = PlanIR(subject="s")
        ir.add_buffer(Buffer("x", size=4))
        ir.add_stage(Stage(sid="a", lane="main"))
        with pytest.raises(ValueError):
            ir.add_stage(Stage(sid="a", lane="main"))

    def test_replace_stage_rebuilds_in_place(self):
        ir = PlanIR(subject="s")
        ir.add_stage(Stage(sid="a", lane="main"))
        ir.replace_stage("a", lane="other")
        assert ir.stage("a").lane == "other"
        with pytest.raises(KeyError):
            ir.replace_stage("nope", lane="x")

    def test_unknown_buffer_access_raises(self):
        ir = PlanIR(subject="s")
        ir.add_stage(
            Stage(sid="a", lane="main", writes=(Access("ghost", spans_of((0, 1))),))
        )
        with pytest.raises(KeyError):
            analyze_ir(ir)

    @pytest.mark.parametrize("allow_trailing", [False, True])
    def test_trailing_gap_is_a_gap_unless_allowed(self, allow_trailing):
        policy = SpanPolicy(gap=("T-GAP", "t.gap"), allow_trailing=allow_trailing)
        ir = PlanIR(subject="s")
        ir.add_buffer(Buffer("out", size=10, unit="row", policy=policy))
        ir.add_stage(
            Stage(sid="a", lane="main", writes=(Access("out", spans_of((0, 8))),))
        )
        rep = analyze_ir(ir)
        assert rep.has("T-GAP") is not allow_trailing
        assert rep.checks["t.gap"] is allow_trailing


# ----------------------------------------------------------------------
# Happens-before analysis on hand-built IRs


def _two_lane_ir(*, mode2="w", after=(), atomic=False):
    ir = PlanIR(subject="hand")
    ir.add_buffer(Buffer("buf", size=10, unit="row", atomic=atomic))
    ir.add_stage(
        Stage(sid="a", lane="lane0", writes=(Access("buf", spans_of((0, 6))),))
    )
    acc = Access("buf", spans_of((4, 10)), mode=mode2)
    ir.add_stage(
        Stage(
            sid="b",
            lane="lane1",
            after=after,
            reads=(acc,) if mode2 == "r" else (),
            writes=(acc,) if mode2 == "w" else (),
        )
    )
    return ir


class TestHappensBefore:
    def test_unordered_overlapping_writes_flagged(self):
        rep = analyze_ir(_two_lane_ir())
        assert rep.has("HZ-R401")
        assert rep.checks["hb.races"] is False

    def test_after_edge_orders_the_writes(self):
        rep = analyze_ir(_two_lane_ir(after=("a",)))
        assert rep.ok and rep.checks["hb.races"] is True

    def test_unordered_read_write_flagged(self):
        rep = analyze_ir(_two_lane_ir(mode2="r"))
        assert rep.has("HZ-R402")

    def test_same_lane_program_order_is_hb(self):
        ir = PlanIR(subject="hand")
        ir.add_buffer(Buffer("buf", size=10, unit="row"))
        ir.add_stage(
            Stage(sid="a", lane="main", writes=(Access("buf", spans_of((0, 6))),))
        )
        ir.add_stage(
            Stage(sid="b", lane="main", writes=(Access("buf", spans_of((4, 10))),))
        )
        assert analyze_ir(ir).ok

    def test_atomic_buffer_exempt_from_races(self):
        rep = analyze_ir(_two_lane_ir(atomic=True))
        assert rep.ok

    def test_disjoint_spans_never_conflict(self):
        ir = PlanIR(subject="hand")
        ir.add_buffer(Buffer("buf", size=10, unit="row"))
        ir.add_stage(
            Stage(sid="a", lane="lane0", writes=(Access("buf", spans_of((0, 5))),))
        )
        ir.add_stage(
            Stage(sid="b", lane="lane1", writes=(Access("buf", spans_of((5, 10))),))
        )
        assert analyze_ir(ir).ok

    def test_hb_graph_reachability(self):
        ir = _two_lane_ir(after=("a",))
        g = HBGraph(ir.stages)
        assert g.reaches("a", "b") and not g.reaches("b", "a")
        assert g.ordered("a", "b") and g.ordered("b", "a")

    def test_commit_must_cover_its_write(self):
        ir = PlanIR(subject="hand")
        ir.add_buffer(Buffer("payload", size=4, unit="row"))
        ir.add_buffer(Buffer("marker", size=1, unit="marker"))
        ir.add_stage(
            Stage(
                sid="commit",
                lane="w",
                writes=(Access("marker", spans_of((0, 1))),),
                role="commit",
                covers=("write",),
            )
        )
        ir.add_stage(
            Stage(sid="write", lane="w", writes=(Access("payload", spans_of((0, 4))),))
        )
        rep = analyze_ir(ir)
        assert rep.has("HZ-R403")
        assert rep.checks["hb.commits"] is False


# ----------------------------------------------------------------------
# Kernel-plan lowering (threaded branches, level schedules, fusion)


@pytest.fixture(scope="module")
def cbm_plan():
    a = random_adjacency_csr(120, density=0.12, seed=5)
    cbm, _ = build_cbm(a, alpha=2)
    return cbm.plan(update="level")


class TestKernelPlanLowering:
    def test_threaded_plan_is_race_free(self, cbm_plan):
        rep = analyze_ir(lower_kernel_plan(cbm_plan, threaded=True))
        assert rep.ok, rep.render()

    def test_sequential_levels_are_race_free(self, cbm_plan):
        rep = analyze_ir(lower_kernel_plan(cbm_plan, threaded=False))
        assert rep.ok, rep.render()

    def test_fused_stage_on_own_branch_is_safe(self, cbm_plan):
        if not len(cbm_plan.branches):
            pytest.skip("plan has no branches")
        fused = (FusedStage("row-scale", branch=0),)
        rep = analyze_ir(lower_kernel_plan(cbm_plan, fused=fused))
        assert rep.ok, rep.render()

    def test_fused_stage_after_join_is_safe(self, cbm_plan):
        fused = (FusedStage("activation", branch=None),)
        rep = analyze_ir(lower_kernel_plan(cbm_plan, fused=fused))
        assert rep.ok, rep.render()

    def test_fused_stage_stealing_foreign_rows_is_rejected(self, cbm_plan):
        if len(cbm_plan.branches) < 2:
            pytest.skip("plan has fewer than two branches")
        n = int(cbm_plan.shape[0])
        fused = (FusedStage("row-scale", branch=0, rows=np.arange(n)),)
        rep = analyze_ir(lower_kernel_plan(cbm_plan, fused=fused))
        assert rep.has("HZ-R4")
        assert rep.checks["hb.races"] is False

    def test_branch_stage_swapped_onto_shared_lane_stays_ordered(self, cbm_plan):
        # Sanity of the model: two branches forced onto ONE lane are
        # ordered by program order, so the IR stays clean — lanes, not
        # stage identity, carry the concurrency.
        ir = lower_kernel_plan(cbm_plan)
        branch_sids = [s.sid for s in ir.stages if s.sid.startswith("branch")]
        for sid in branch_sids:
            ir.replace_stage(sid, lane="worker0")
        assert analyze_ir(ir).ok

    def test_dropped_join_barrier_is_detected(self, cbm_plan):
        if len(cbm_plan.branches) < 1:
            pytest.skip("plan has no branches")
        ir = lower_kernel_plan(cbm_plan)
        # finalize reads every row; severing its barrier races the lanes
        ir.replace_stage("finalize", after=())
        rep = analyze_ir(ir)
        assert rep.has("HZ-R402")


# ----------------------------------------------------------------------
# Batch-layout lowering


class TestBatchLayoutLowering:
    def _layout(self, widths, columns=64):
        from repro.serving.batching import BatchConfig, BatchLayout

        cfg = BatchConfig(max_columns=columns)
        return BatchLayout.pack(widths, quantum=cfg.quantum, n_rows=16)

    def test_packed_layout_is_clean(self):
        rep = analyze_ir(lower_batch_layout(self._layout([1, 2, 4, 8])))
        assert rep.ok, rep.render()

    def test_member_overlap_is_ownership_not_generic_race(self):
        ir = lower_batch_layout(self._layout([4, 4]))
        first = ir.stages[0]
        (acc,) = first.writes
        lo, hi = int(acc.spans[0, 0]), int(acc.spans[0, 1])
        ir.replace_stage(
            first.sid, writes=(Access("stacked", spans_of((lo, hi + 1))),)
        )
        rep = analyze_ir(ir)
        assert rep.has("HZ-X001")
        # policy-governed buffer: overlap reported once, not doubled as R401
        assert not rep.has("HZ-R401")

    def test_out_of_bounds_member(self):
        ir = lower_batch_layout(self._layout([4, 4]))
        total = ir.buffers["stacked"].size
        ir.replace_stage(
            "member1", writes=(Access("stacked", spans_of((total - 2, total + 2))),)
        )
        rep = analyze_ir(ir)
        assert rep.has("HZ-X002")

    def test_gap_between_members(self):
        ir = lower_batch_layout(self._layout([4, 4]))
        second = ir.stage("member1")
        (acc,) = second.writes
        lo, hi = int(acc.spans[0, 0]), int(acc.spans[0, 1])
        ir.replace_stage(
            "member1", writes=(Access("stacked", spans_of((lo + 1, hi + 1))),)
        )
        rep = analyze_ir(ir)
        assert rep.has("HZ-X003")

    def test_zero_width_member(self):
        ir = lower_batch_layout(self._layout([4, 4]))
        ir.replace_stage("member0", writes=(Access("stacked", spans_of((0, 0))),))
        rep = analyze_ir(ir)
        assert rep.has("HZ-X004")


# ----------------------------------------------------------------------
# Streaming swap lowering


class TestStreamSwapLowering:
    def test_protocol_is_clean(self):
        assert analyze_ir(lower_stream_swap()).ok

    def test_serving_before_publish_is_a_torn_read(self):
        ir = lower_stream_swap()
        ir.replace_stage("serve", after=())
        rep = analyze_ir(ir)
        assert rep.has("HZ-R402")

    def test_commit_covering_future_work_is_torn(self):
        ir = lower_stream_swap()
        stages = {s.sid: s for s in ir.stages}
        order = ["snapshot", "commit", "build", "publish", "serve"]
        ir.stages = [stages[sid] for sid in order]
        rep = analyze_ir(ir)
        assert rep.has("HZ-R403")
