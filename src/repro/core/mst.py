"""Minimum spanning trees of the extended distance graph (Section III).

The paper's compression tree for the un-pruned (symmetric) distance graph
is any MST of the graph extended with the virtual node, rooted at the
virtual node.  :func:`kruskal_mst` fixes Kruskal's edge order with one
NumPy sort, then hands the graph to SciPy's compiled
``csgraph.minimum_spanning_tree`` and orients the result with
``csgraph.breadth_first_order`` from the virtual node.

Ties are broken in favour of virtual-node edges, implementing the paper's
"engineered to ignore" rule (Section IV): a compression opportunity whose
delta count equals the row's nnz is worthless, so the row is stored as a
plain adjacency list, which also shortens update-stage dependency chains.

:class:`UnionFind` serves the Björklund–Lingas ablation
(:mod:`repro.core.bl2001`).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from repro.core.distance import DistanceGraph
from repro.core.tree import VIRTUAL, CompressionTree
from repro.errors import CompressionError


class UnionFind:
    """Array-based disjoint sets with path halving and union by size."""

    __slots__ = ("parent", "size")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of a and b; False when already joined."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True


def kruskal_mst(g: DistanceGraph) -> CompressionTree:
    """MST of the virtual-node-extended distance graph, in Kruskal's order.

    ``g`` must be undirected (``alpha=None`` construction).  Virtual edges
    (weight ``nnz(x)``) are implicit in ``g`` and added here.  Edges are
    ranked by weight, virtual before real on a tie, then by position;
    each edge's 1-based rank is its weight for SciPy (a zero would be
    dropped as "no edge").  Distinct weights make the MST unique, so it
    is exactly the edge set a union-find pass in rank order would keep.
    A malformed graph raises :class:`CompressionError`
    (:meth:`DistanceGraph.validate`).
    """
    g.validate()
    if g.directed:
        raise CompressionError("kruskal_mst requires an undirected distance graph")
    n = g.n
    src = np.concatenate([g.src, np.full(n, n, dtype=np.int64)])
    dst = np.concatenate([g.dst, np.arange(n, dtype=np.int64)])
    w = np.concatenate([g.weight, g.row_nnz]).astype(np.int64)
    # Secondary key 0 for virtual edges, 1 for real ones: ties go virtual.
    is_real = np.concatenate(
        [np.ones(g.num_edges, dtype=np.int8), np.zeros(n, dtype=np.int8)]
    )
    order = np.lexsort((is_real, w))
    rank = np.empty(len(order), dtype=np.float64)
    rank[order] = np.arange(1, len(order) + 1)
    # One stored entry per edge, in row ``dst``: parallel edges stay
    # separate entries (a COO build would sum their ranks).  ``dst`` is
    # two sorted runs for candidate_edges output, which a stable sort
    # merges in linear time.
    by_row = np.argsort(dst, kind="stable")
    indptr = np.zeros(n + 2, dtype=np.int64)
    np.cumsum(np.bincount(dst, minlength=n + 1), out=indptr[1:])
    graph = sp.csr_array((rank[by_row], src[by_row], indptr), shape=(n + 1, n + 1))
    tree = csgraph.minimum_spanning_tree(graph)
    if tree.nnz != n:
        raise CompressionError(f"Kruskal selected {tree.nnz} edges, expected {n}")
    chosen = order[tree.data.astype(np.int64) - 1]
    reached, pred = csgraph.breadth_first_order(
        tree, n, directed=False, return_predecessors=True
    )
    if len(reached) != n + 1:
        raise CompressionError("spanning tree does not reach every row")
    parent = pred[:n].astype(np.int64)
    parent[parent == n] = VIRTUAL
    # Each tree edge belongs to the endpoint whose predecessor is the other.
    s, d = src[chosen], dst[chosen]
    child = np.where(pred[d] == s, d, s)
    weight = np.zeros(n, dtype=np.int64)
    weight[child] = w[chosen]
    return CompressionTree(parent=parent, weight=weight)
