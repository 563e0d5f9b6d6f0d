"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import heapq
import threading

import numpy as np
import pytest

from repro.core.distance import DistanceGraph
from repro.core.tree import VIRTUAL, CompressionTree
from repro.errors import CompressionError
from repro.runtime import native
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


def same_graph(g: DistanceGraph, want: DistanceGraph) -> bool:
    """Byte-identical distance graphs: every array with its dtype, and
    the same rows, orientation and alpha."""
    return (g.n, g.directed, g.alpha) == (want.n, want.directed, want.alpha) and all(
        getattr(g, k).dtype == getattr(want, k).dtype
        and getattr(g, k).shape == getattr(want, k).shape
        and getattr(g, k).tobytes() == getattr(want, k).tobytes()
        for k in ("src", "dst", "weight", "row_nnz")
    )


def prim_mst(g: DistanceGraph) -> CompressionTree:
    """MST via lazy-deletion heap Prim started at the virtual node.

    Independent weight oracle for :func:`repro.core.mst.kruskal_mst`;
    identical tie-breaking toward virtual edges (they enter the heap first
    at equal weight and heapq is stable on insertion order via the
    counter)."""
    if g.directed:
        raise CompressionError("prim_mst requires an undirected distance graph")
    n = g.n
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    for s, d, w in zip(g.src, g.dst, g.weight, strict=True):
        adj[int(s)].append((int(d), int(w)))
        adj[int(d)].append((int(s), int(w)))
    for x in range(n):
        adj[n].append((x, int(g.row_nnz[x])))

    parent = np.full(n, VIRTUAL, dtype=np.int64)
    wout = np.zeros(n, dtype=np.int64)
    in_tree = np.zeros(n + 1, dtype=bool)
    in_tree[n] = True
    heap: list[tuple[int, int, int, int]] = []
    counter = 0
    for v, w in adj[n]:
        heap.append((w, counter, n, v))
        counter += 1
    heapq.heapify(heap)
    taken = 0
    while heap and taken < n:
        w, _, u, v = heapq.heappop(heap)
        if in_tree[v]:
            continue
        in_tree[v] = True
        parent[v] = VIRTUAL if u == n else u
        wout[v] = w
        taken += 1
        for nxt, nw in adj[v]:
            if not in_tree[nxt]:
                counter += 1
                heapq.heappush(heap, (nw, counter, v, nxt))
    if taken != n:
        raise CompressionError(f"Prim reached {taken} of {n} rows")
    return CompressionTree(parent=parent, weight=wout)


def pin_update_path(monkeypatch, update: str) -> None:
    """Make plans built after this call run one update-stage walk:
    ``"edge"`` the compiled per-edge walk, ``"level"`` the NumPy level
    walk it falls back to (``"level"`` hides the whole library, so builds
    after the call run SciPy's candidate stage and, at alpha > 0, the
    NumPy arborescence rounds too)."""
    if update == "level":
        monkeypatch.setattr(native, "load", lambda: None)
    elif native.load() is None:
        pytest.skip("no C compiler: the compiled walk is unavailable")


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
