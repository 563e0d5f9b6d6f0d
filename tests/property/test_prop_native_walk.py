"""Property: the compiled update stage equals the NumPy level walk bit
for bit, over every variant, alpha, dtype and operand layout.

Operands are integer-valued, so a walk that added in another order or
fused a multiply into an add would show as a changed bit, not as a
rounding difference a tolerance could hide.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.builder import build_cbm
from repro.runtime import native
from repro.runtime.plan import apply_level_schedule
from repro.sparse.convert import from_dense

WIDTH = 7  # columns of the operand the 2-D layouts are cut from


@st.composite
def walk_cases(draw, max_n=16):
    n = draw(st.integers(1, max_n))
    return {
        "d": draw(arrays(np.float32, (n, n), elements=st.sampled_from([0.0, 1.0]))),
        "variant": draw(st.sampled_from(["A", "AD", "DAD", "D1AD2"])),
        "alpha": draw(st.integers(0, 6)),
        "dtype": draw(st.sampled_from([np.float32, np.float64])),
        "layout": draw(st.sampled_from(["1d", "2d", "column-slice"])),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def _operand(full: np.ndarray, layout: str) -> np.ndarray:
    if layout == "1d":
        return full[:, 0].copy()
    if layout == "2d":
        return full[:, :4].copy()
    return full[:, 2:6]  # a view: row stride WIDTH, four contiguous columns


class TestCompiledWalk:
    @given(walk_cases())
    @settings(max_examples=150, deadline=None)
    def test_bitwise_equals_level_walk(self, case):
        if native.load() is None:
            pytest.skip("no C compiler: the compiled walk is unavailable")
        rng = np.random.default_rng(case["seed"])
        d, variant, dtype, layout = case["d"], case["variant"], case["dtype"], case["layout"]
        n = d.shape[0]
        diag = rng.integers(1, 4, n).astype(np.float64) if variant != "A" else None
        diag_left = rng.integers(1, 4, n).astype(np.float64) if variant == "D1AD2" else None
        cbm, _ = build_cbm(
            from_dense(d), alpha=case["alpha"], variant=variant, diag=diag, diag_left=diag_left
        )
        plan = cbm.plan()
        assert plan.describe()["update"] == "native"
        scale = plan.row_scale.astype(dtype) if plan.row_scaled else None
        full = rng.integers(-8, 9, size=(n, WIDTH)).astype(dtype)

        want = _operand(full, layout).copy()
        apply_level_schedule(want, plan.level_pairs, row_scale=scale)

        walked = full.copy()
        c = _operand(walked, layout)
        assert native.walker(cbm.tree)(c, scale)
        assert np.ascontiguousarray(c).tobytes() == want.tobytes()
        if layout == "column-slice":  # columns outside the slice untouched
            assert np.array_equal(walked[:, :2], full[:, :2])
            assert np.array_equal(walked[:, 6:], full[:, 6:])

        planned = full.copy()
        c = _operand(planned, layout)
        plan.apply_update(c)
        assert np.ascontiguousarray(c).tobytes() == want.tobytes()
