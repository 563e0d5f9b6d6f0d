"""The compression tree of the CBM format.

A compression tree assigns every row ``x`` a reference row ``parent[x]``;
the virtual node (the empty row) is encoded as :data:`VIRTUAL` (-1).  Rows
parented by the virtual node are stored as plain adjacency lists; every
other row is stored as deltas against its parent.

Beyond the parent array the class precomputes the orderings the
multiplication kernels need:

* :meth:`topological_order` — parents before children (update stage,
  Section IV).
* :meth:`levels` — edges grouped by depth; within one level no child is
  another child's parent, which is what lets the update stage run as a
  handful of vectorised batched row additions instead of one axpy per edge.
* :meth:`branches` — the branch decomposition of Section V-B: each subtree
  hanging off the virtual node is an independent unit of parallel work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.errors import TreeError

VIRTUAL = -1
"""Parent value marking rows compressed against the virtual (empty) row."""


@dataclass
class CompressionTree:
    """Rooted forest over matrix rows; roots hang off the virtual node.

    ``parent[x]`` is the reference row of row ``x`` or :data:`VIRTUAL`.
    ``weight[x]`` is the number of deltas used to encode row ``x`` (for a
    virtual-parent row this equals its nnz).
    """

    parent: np.ndarray
    weight: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.parent = np.asarray(self.parent, dtype=np.int64).ravel()
        n = len(self.parent)
        if self.weight is None:
            self.weight = np.zeros(n, dtype=np.int64)
        else:
            self.weight = np.asarray(self.weight, dtype=np.int64).ravel()
            if len(self.weight) != n:
                raise TreeError(
                    f"weight has length {len(self.weight)}, expected {n}"
                )
        self.validate()

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.parent)

    def validate(self) -> None:
        """Check parent indices and acyclicity; raise :class:`TreeError`.

        The depths computed for the cycle check fill the cache that
        :meth:`levels` and :meth:`topological_order` read.
        """
        n = self.n
        bad = (self.parent != VIRTUAL) & ((self.parent < 0) | (self.parent >= n))
        if np.any(bad):
            raise TreeError(f"parent indices out of range at rows {np.flatnonzero(bad)[:5]}")
        if np.any(self.parent == np.arange(n)):
            raise TreeError("a row cannot be its own parent")
        # Acyclicity via iterative depth computation; a cycle never resolves.
        depth = self.depth()
        if n and depth.max(initial=0) >= n + 1:
            raise TreeError("compression tree contains a cycle")
        self._depth = depth

    def depth(self) -> np.ndarray:
        """Depth of each row: 0 for virtual-parent rows, parent depth + 1 else.

        Computed by repeated relaxation (each pass finalises one level), so a
        cycle shows up as depths exceeding n, which :meth:`validate` rejects.
        """
        n = self.n
        depth = np.where(self.parent == VIRTUAL, 0, -1).astype(np.int64)
        pending = np.flatnonzero(depth < 0)
        guard = 0
        while len(pending):
            pd = depth[self.parent[pending]]
            ready = pd >= 0
            depth[pending[ready]] = pd[ready] + 1
            pending = pending[~ready]
            guard += 1
            if guard > n + 1:
                # Remaining rows form cycles; mark them past n for validate().
                depth[pending] = n + 1
                break
        return depth

    # ------------------------------------------------------------------
    @cached_property
    def _depth(self) -> np.ndarray:
        return self.depth()

    @property
    def roots(self) -> np.ndarray:
        """Rows compressed directly against the virtual node."""
        return np.flatnonzero(self.parent == VIRTUAL)

    @property
    def tree_edges(self) -> np.ndarray:
        """Rows with a real (non-virtual) parent — the update-stage work."""
        return np.flatnonzero(self.parent != VIRTUAL)

    @property
    def num_tree_edges(self) -> int:
        return int(np.count_nonzero(self.parent != VIRTUAL))

    def topological_order(self) -> np.ndarray:
        """All rows ordered so every parent precedes its children."""
        return np.argsort(self._depth, kind="stable")

    def levels(self) -> list[np.ndarray]:
        """Non-root rows grouped by depth (level k children have level-(k-1) parents).

        ``levels()[0]`` is the set of rows at depth 1.  The update stage
        processes levels in order; inside a level, rows can be updated as
        one vectorised batch because their parents all live at strictly
        smaller depths.
        """
        d = self._depth
        maxd = int(d.max(initial=0))
        order = np.argsort(d, kind="stable")
        ds = d[order]
        out = []
        for k in range(1, maxd + 1):
            lo = np.searchsorted(ds, k, side="left")
            hi = np.searchsorted(ds, k, side="right")
            out.append(order[lo:hi])
        return out

    def branches(self) -> list[np.ndarray]:
        """Subtrees hanging off the virtual node, each in topological order.

        This is the unit of parallel work of Section V-B: there are no data
        dependencies across branches, so each list can be replayed by a
        different thread.  Rows include the branch root itself.
        """
        n = self.n
        # Union-find-free labelling: propagate root label down by depth.
        label = np.full(n, -1, dtype=np.int64)
        order = self.topological_order()
        for x in order:
            p = self.parent[x]
            label[x] = x if p == VIRTUAL else label[p]
        groups: dict[int, list[int]] = {}
        for x in order:
            groups.setdefault(int(label[x]), []).append(int(x))
        return [np.asarray(groups[r], dtype=np.int64) for r in sorted(groups)]

    def children_counts(self) -> np.ndarray:
        """Number of direct children of each row (virtual node excluded)."""
        counts = np.zeros(self.n, dtype=np.int64)
        real = self.parent[self.parent != VIRTUAL]
        np.add.at(counts, real, 1)
        return counts

    def total_weight(self) -> int:
        """Total number of deltas across all rows (tree cost incl. virtual edges)."""
        return int(self.weight.sum())

    def stats(self) -> dict:
        """Shape summary used by benchmarks and the parallel simulator."""
        d = self._depth
        branches = self.branches()
        return {
            "rows": self.n,
            "roots": int(len(self.roots)),
            "tree_edges": self.num_tree_edges,
            "max_depth": int(d.max(initial=0)),
            "mean_depth": float(d.mean()) if self.n else 0.0,
            "branches": len(branches),
            "largest_branch": max((len(b) for b in branches), default=0),
            "total_weight": self.total_weight(),
        }
