"""Migration property: the unified IR reproduces the legacy verdicts.

``analyze_batch_layout`` lowers through the unified plan IR
(:mod:`repro.staticcheck.ir`); the pre-IR implementation is kept as the
oracle (``_legacy_analyze_batch_layout``).  This suite drives random —
including deliberately malformed — batch layouts through both paths and
requires identical verdicts on the shared domain: same finding codes,
same named-check outcomes, same overall ok.  The IR is allowed to *add*
checks (the happens-before family) but never to flip or drop a legacy
one.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.batching import BatchLayout
from repro.staticcheck import analyze_batch_layout, analyze_ir, lower_batch_layout
from repro.staticcheck.hazards import _legacy_analyze_batch_layout


def _assert_equivalent(ir_report, legacy_report):
    # Compare code SETS: the IR may report one finding per buffer where
    # the legacy pass aggregated; which rules fired, the named checks,
    # and the overall ok must match exactly.
    ir_codes = sorted({f.code for f in ir_report.findings})
    legacy_codes = sorted({f.code for f in legacy_report.findings})
    assert ir_codes == legacy_codes, (
        f"finding codes diverged: IR {ir_codes} vs legacy {legacy_codes}\n"
        f"--- IR ---\n{ir_report.render()}\n"
        f"--- legacy ---\n{legacy_report.render()}"
    )
    for name, verdict in legacy_report.checks.items():
        assert name in ir_report.checks, f"IR dropped legacy check {name!r}"
        assert ir_report.checks[name] == verdict, (
            f"check {name!r} flipped: IR {ir_report.checks[name]} "
            f"vs legacy {verdict}"
        )
    assert ir_report.ok == legacy_report.ok


# ----------------------------------------------------------------------
# Batch layouts: random members, including overlapping / out-of-bounds /
# zero-width / gapped ones a buggy collector could produce


_members = st.lists(
    st.tuples(
        st.integers(min_value=-4, max_value=40),   # offset
        st.integers(min_value=-3, max_value=10),   # width
    ),
    min_size=0,
    max_size=6,
)


@given(members=_members, total=st.integers(min_value=0, max_value=60))
@settings(max_examples=200, deadline=None)
def test_batch_verdicts_identical(members, total):
    layout = BatchLayout(members=tuple(members), total_columns=total, n_rows=8)
    ir_report = analyze_ir(lower_batch_layout(layout))
    legacy = _legacy_analyze_batch_layout(layout)
    _assert_equivalent(ir_report, legacy)


@given(
    widths=st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=6),
    quantum=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=100, deadline=None)
def test_packed_layouts_clean_under_both(widths, quantum):
    """The collector's only real shape must stay clean through both paths."""
    layout = BatchLayout.pack(widths, quantum=quantum, n_rows=8)
    assert _legacy_analyze_batch_layout(layout).ok
    assert analyze_batch_layout(layout).ok
