"""Property-based tests for the micro-batching serving stage.

Two invariants, driven over random request mixes:

* **Bitwise parity** — whatever mix of widths (including 1-D vector
  riders) the collector coalesces, every member's output is bitwise
  identical to the direct kernel product of its own operand: a strict
  ``GuardedKernel`` ``matmul``/``matvec``, or the two-layer GCN forward
  over it.  This is the correctness contract the throughput win rests
  on: column-wise independent kernels plus row-partitioned GEMM stages.
* **Guard fallback mid-batch** — when the CBM payload is corrupted and
  the breaker has degraded the service to the guarded tier, the stacked
  forward falls back to the CSR reference and every member still
  receives exactly the reference product; the fallback is invisible to
  requesters except in the guard stats.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import build_cbm
from repro.gnn.gcn import two_layer_gcn_inference
from repro.reliability import FallbackWarning, GuardedAdjacency, GuardedKernel
from repro.reliability.chaos import corrupt_deltas
from repro.serving import (
    AdjacencySlot,
    CircuitBreaker,
    InferenceService,
    ServeTier,
)
from repro.sparse.ops import spmm

from tests.conftest import random_adjacency_csr

N = 30
_A = random_adjacency_csr(N, 0.2, 13)
_CBM, _ = build_cbm(_A, alpha=2)


def _fresh_slot():
    # Reuse the module-level CBM (plans and pools stay warm across
    # examples) but give each service its own slot + guard stats.
    return AdjacencySlot(_CBM, _A)


@st.composite
def request_mixes(draw):
    """A batch-worth of operands: widths 1..5, some as 1-D vectors."""
    widths = draw(st.lists(st.integers(1, 5), min_size=1, max_size=8))
    vector_flags = draw(
        st.lists(st.booleans(), min_size=len(widths), max_size=len(widths))
    )
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    operands = []
    for w, as_vector in zip(widths, vector_flags):
        if as_vector and w == 1:
            operands.append(rng.standard_normal(N).astype(np.float32))
        else:
            operands.append(rng.standard_normal((N, w)).astype(np.float32))
    return operands


@given(request_mixes())
@settings(max_examples=10, deadline=None)
def test_batched_bitwise_equals_unbatched(operands):
    with InferenceService(_fresh_slot(), seed=1) as svc:
        futures = [svc.submit(x) for x in operands]
        outs = [f.result(30.0) for f in futures]
    guard = GuardedKernel(_CBM, strict=True)
    for x, y in zip(operands, outs):
        want = guard.matvec(x) if x.ndim == 1 else guard.matmul(x)
        assert y.shape == want.shape
        assert y.dtype == want.dtype
        assert np.array_equal(y, want)


@given(request_mixes())
@settings(max_examples=10, deadline=None)
def test_gcn_batched_bitwise_equals_unbatched(operands):
    # GCN serving fixes the feature width at W0's input dimension, so
    # reuse only the example count and seeds: every operand becomes a
    # (N, p) block.
    p, hidden, classes = 2, 3, 2
    rng = np.random.default_rng(len(operands))
    weights = (
        rng.standard_normal((p, hidden)).astype(np.float32),
        rng.standard_normal((hidden, classes)).astype(np.float32),
    )
    xs = [
        (x[:, None] if x.ndim == 1 else x[:, :1]) @ np.ones((1, p), dtype=np.float32)
        + rng.standard_normal((N, p)).astype(np.float32)
        for x in operands
    ]
    with InferenceService(_fresh_slot(), weights=weights, seed=1) as svc:
        futures = [svc.submit(x) for x in xs]
        outs = [f.result(30.0) for f in futures]
    adj = GuardedAdjacency(GuardedKernel(_CBM, strict=True))
    for x, y in zip(xs, outs):
        assert np.array_equal(y, two_layer_gcn_inference(adj, x, *weights))


@pytest.mark.filterwarnings("ignore::repro.reliability.FallbackWarning")
@given(request_mixes())
@settings(max_examples=8, deadline=None)
def test_guard_fallback_mid_batch_serves_reference(operands):
    # Corrupt a private copy of the CBM payload; a pre-tripped breaker
    # pins the service at the guarded tier, where the stacked forward
    # detects the poison and falls back to the CSR reference.
    operands = [x for x in operands if x.ndim == 2]
    if not operands:
        operands = [np.ones((N, 2), dtype=np.float32)]
    cbm, _ = build_cbm(_A, alpha=2)
    corrupt_deltas(cbm, mode="nan", seed=0)
    breaker = CircuitBreaker(failure_threshold=1, window=2)
    tier, probe = breaker.acquire()
    breaker.record(tier, False, probe=probe)  # trip FAST -> GUARDED
    assert breaker.tier is ServeTier.GUARDED
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FallbackWarning)
        with InferenceService(AdjacencySlot(cbm, _A), breaker=breaker, seed=1) as svc:
            futures = [svc.submit(x) for x in operands]
            outs = [f.result(30.0) for f in futures]
    for x, y in zip(operands, outs):
        # The CSR kernels are column-wise independent, so the member's
        # slice of the stacked fallback product is exactly spmm(a, x).
        assert np.array_equal(y, spmm(_A, x))
