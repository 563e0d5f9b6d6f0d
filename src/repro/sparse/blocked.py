"""Cache-aware column-blocked SpMM (Section V-B's SIMD/locality concerns).

When the dense operand ``B`` is wide (the paper uses 500 columns), one
row of ``B`` spans 2 KiB and the gather working set of a sparse row
easily exceeds L1.  Splitting ``B`` into column panels bounds the panel
working set so gathered rows stay cache-resident across the sparse
matrix's column reuse — the standard tiling MKL applies internally.

Provided for both the plain CSR kernel (:func:`spmm_blocked`) and the CBM
kernel (:func:`cbm_matmul_blocked`, which also blocks the update stage so
each panel of the result is finished while still warm).  Results are
bitwise-identical per panel to the unblocked kernels; the ablation
benchmark measures whether blocking pays at this problem size.
"""

from __future__ import annotations

import numpy as np

from repro.core.cbm import CBMMatrix
from repro.errors import ShapeError
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import Engine, spmm
from repro.utils.validation import check_dense, check_positive

DEFAULT_PANEL = 128


def panel_bounds(total: int, panel: int) -> list[tuple[int, int]]:
    """Column ranges [(lo, hi), ...] covering ``total`` in ``panel`` chunks."""
    check_positive(panel, "panel")
    return [(lo, min(lo + panel, total)) for lo in range(0, total, panel)]


def spmm_blocked(
    a: CSRMatrix,
    b: np.ndarray,
    *,
    panel: int = DEFAULT_PANEL,
    engine: Engine | None = None,
) -> np.ndarray:
    """CSR × dense with column panelling; equals :func:`repro.sparse.ops.spmm`."""
    b = check_dense(b, name="b", ndim=2)
    if a.shape[1] != b.shape[0]:
        raise ShapeError.mismatch("spmm_blocked", a.shape, b.shape)
    out = np.empty((a.shape[0], b.shape[1]), dtype=np.result_type(a.data, b))
    for lo, hi in panel_bounds(b.shape[1], panel):
        out[:, lo:hi] = spmm(a, np.ascontiguousarray(b[:, lo:hi]), engine=engine)
    return out


def cbm_matmul_blocked(
    cbm: CBMMatrix,
    b: np.ndarray,
    *,
    panel: int = DEFAULT_PANEL,
    engine: Engine | None = None,
) -> np.ndarray:
    """CBM SpMM with column panelling of both stages.

    Each panel runs the multiplication stage and its update stage before
    the next panel starts, so the partial-result rows being propagated
    down the compression tree are still cache-hot — the fusion the paper
    aims at with its row-update/scaling fusion, applied along the other
    axis.
    """
    b = check_dense(b, name="b", ndim=2)
    if cbm.shape[1] != b.shape[0]:
        raise ShapeError.mismatch("cbm_matmul_blocked", cbm.shape, b.shape)
    out = np.empty((cbm.shape[0], b.shape[1]), dtype=np.float32)
    for lo, hi in panel_bounds(b.shape[1], panel):
        out[:, lo:hi] = cbm.matmul(np.ascontiguousarray(b[:, lo:hi]), engine=engine)
    return out


def sweep_panel_sizes(
    kernel,
    b_width: int,
    *,
    panels: tuple[int, ...] = (32, 64, 128, 256, 512),
) -> list[tuple[int, float]]:
    """Time ``kernel(panel)`` across panel sizes; returns (panel, seconds).

    ``kernel`` is a callable taking the panel size; panels wider than the
    operand collapse to one unblocked call and are still reported (they
    serve as the baseline row of the ablation table).
    """
    from repro.utils.timing import measure

    results = []
    for panel in panels:
        eff = min(panel, b_width)
        t = measure(lambda: kernel(eff), max_repeats=10, min_total=0.1)
        results.append((panel, t.mean))
    return results
