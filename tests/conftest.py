"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.serving import InferenceService
from repro.sparse.convert import from_dense
from repro.sparse.csr import CSRMatrix


def random_binary_dense(
    n: int, m: int | None = None, density: float = 0.2, seed: int = 0
) -> np.ndarray:
    """Random dense binary matrix (float32 values in {0, 1})."""
    rng = np.random.default_rng(seed)
    return (rng.random((n, m or n)) < density).astype(np.float32)


def random_adjacency_dense(n: int, density: float = 0.2, seed: int = 0) -> np.ndarray:
    """Random symmetric binary matrix with a zero diagonal."""
    d = random_binary_dense(n, n, density, seed)
    d = np.maximum(d, d.T)
    np.fill_diagonal(d, 0.0)
    return d


def random_binary_csr(n: int, density: float = 0.2, seed: int = 0) -> CSRMatrix:
    return from_dense(random_binary_dense(n, n, density, seed))


def random_adjacency_csr(n: int, density: float = 0.2, seed: int = 0) -> CSRMatrix:
    return from_dense(random_adjacency_dense(n, density, seed))


@pytest.fixture
def small_adjacency() -> CSRMatrix:
    """A 40-node random undirected graph, moderately dense."""
    return random_adjacency_csr(40, density=0.25, seed=42)


@pytest.fixture
def clustered_adjacency() -> CSRMatrix:
    """A graph with near-identical rows (high CBM compressibility)."""
    rng = np.random.default_rng(7)
    n = 60
    d = np.zeros((n, n), dtype=np.float32)
    # Three cliques of 20 with small perturbations.
    for b in range(3):
        lo, hi = 20 * b, 20 * (b + 1)
        d[lo:hi, lo:hi] = 1.0
    flip = rng.integers(0, n, size=(15, 2))
    for i, j in flip:
        if i != j:
            d[i, j] = d[j, i] = 1.0 - d[i, j]
    np.fill_diagonal(d, 0.0)
    return from_dense(d)


@pytest.fixture
def paper_figure_matrix() -> CSRMatrix:
    """The 4x4 example matrix of the paper's Figure 1.

    A = [[1,1,0,1],
         [1,1,1,1],
         [0,1,0,1],
         [1,1,0,1]]  (rows chosen to exercise +/- deltas and ties).
    """
    a = np.array(
        [
            [1, 1, 0, 1],
            [1, 1, 1, 1],
            [0, 1, 0, 1],
            [1, 1, 0, 1],
        ],
        dtype=np.float32,
    )
    return from_dense(a)


class HeldService(InferenceService):
    """Holds the first batch's forward until the test sets ``release``.

    ``entered`` is set once that batch is executing, so a test can queue
    requests behind it and know they form later batches.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.entered = threading.Event()
        self.release = threading.Event()

    def _compute_batch(self, batch, tier):
        if not self.entered.is_set():
            self.entered.set()
            self.release.wait(30.0)
        return super()._compute_batch(batch, tier)
