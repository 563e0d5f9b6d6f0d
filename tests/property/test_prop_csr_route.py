"""Property tests for the tuned CSR route of the serving FAST tier.

When :meth:`AdjacencySlot.tune` picks ``csr``, the FAST tier serves the
float32 SciPy product of the slot's source instead of the CBM plan.  Over
random graphs, binary or GCN-normalised (a float64 source), for bare
products, matvecs and two-layer GCN forwards, the CSR route must keep the
CBM route's output contract: float32 with the same shape, bitwise equal
to the float32 SciPy product of the source for integer operands and
weights, and bitwise equal between the batched and unbatched paths.
"""

from unittest import mock

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.serving import AdjacencySlot, BatchConfig, InferenceService
from repro.sparse.convert import from_dense

KINDS = ("product", "matvec", "gcn")
HIDDEN, CLASSES = 3, 2


@st.composite
def route_case(draw):
    n = draw(st.integers(2, 24))
    dense = draw(arrays(np.float32, (n, n), elements=st.sampled_from([0.0, 1.0])))
    return (
        dense,
        draw(st.sampled_from(KINDS)),
        draw(st.integers(1, 4)),  # operand width
        draw(st.integers(1, 4)),  # concurrent requests
        draw(st.integers(0, 2)),  # alpha
        draw(st.booleans()),  # GCN-normalised slot
        draw(st.integers(0, 2**16)),
    )


def _ints(rng, shape):
    return rng.integers(-3, 4, size=shape).astype(np.float32)


def _serve(slot, operands, weights, batched):
    with InferenceService(
        slot,
        weights=weights,
        batch=BatchConfig() if batched else None,
        seed=1,
    ) as svc:
        futures = [svc.submit(x) for x in operands]
        return [f.result(30.0) for f in futures]


@given(route_case())
@settings(max_examples=40, deadline=None)
def test_csr_route_matches_float32_scipy_batched_and_unbatched(case):
    dense, kind, width, count, alpha, normalized, seed = case
    template = AdjacencySlot.from_graph(from_dense(dense), alpha=alpha, normalized=normalized)
    cbm, source = template.cbm, template.source
    n = source.shape[0]
    rng = np.random.default_rng(seed)
    weights = None
    if kind == "gcn":
        weights = (_ints(rng, (width, HIDDEN)), _ints(rng, (HIDDEN, CLASSES)))
    shape = (n,) if kind == "matvec" else (n, width)
    operands = [_ints(rng, shape) for _ in range(count)]

    m = sp.csr_matrix(
        (source.data.astype(np.float32), source.indices, source.indptr), shape=source.shape
    )
    if kind == "gcn":
        w0, w1 = weights
        expected = [(m @ np.maximum((m @ x) @ w0, 0.0)) @ w1 for x in operands]
    else:
        expected = [m @ x for x in operands]

    cbm_route = _serve(AdjacencySlot(cbm, source), operands, weights, batched=False)
    plan = cbm.plan()
    ran = (plan.stats.executions, plan.stats.matvecs)
    outputs = {}
    for batched in (False, True):
        slot = AdjacencySlot(cbm, source)
        with mock.patch(
            "repro.serving.service.interleaved_best",
            lambda candidates: {"cbm": 2.0, "csr": 1.0},
        ):
            assert slot.tune(width) == "csr"
        outputs[batched] = _serve(slot, operands, weights, batched)
    # The CSR route never touched the CBM kernels.
    assert (plan.stats.executions, plan.stats.matvecs) == ran

    for y_cbm, want, y_un, y_b in zip(cbm_route, expected, outputs[False], outputs[True]):
        for y in (y_un, y_b):
            assert y.dtype == np.float32
            assert y.shape == y_cbm.shape
            assert np.array_equal(y, want)
        assert np.array_equal(y_un, y_b)
