"""The compression tree of the CBM format.

A compression tree assigns every row ``x`` a reference row ``parent[x]``;
the virtual node (the empty row) is encoded as :data:`VIRTUAL` (-1).  Rows
parented by the virtual node are stored as plain adjacency lists; every
other row is stored as deltas against its parent.

The tree owns a frozen copy of its parent array and computes, once while
validating it, the orderings the multiplication kernels need:

* :meth:`topological_order` — parents before children; without the
  roots, and with each row's parent, it is :meth:`edge_schedule`, the
  update stage of Section IV.
* :meth:`levels` / :meth:`level_pairs` — edges grouped by depth; within
  one level no child is another child's parent, which is what lets the
  update stage run as a handful of vectorised batched row additions
  instead of one axpy per edge.
* :meth:`branches` — the branch decomposition of Section V-B: each subtree
  hanging off the virtual node is an independent unit of parallel work
  (derived lazily, on first use).

All of them are read-only arrays.  Only ``weight`` may change without
the parent array changing (a streaming patch re-counts some rows'
deltas), and :meth:`CompressionTree.reweighted` makes such a tree
sharing the parent array and schedule instead of re-validating them.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from repro.errors import TreeError

VIRTUAL = -1
"""Parent value marking rows compressed against the virtual (empty) row."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class _Schedule:
    """Depth-derived orderings of one validated parent array.

    Shared by every tree over the same parent array (see
    :meth:`CompressionTree.reweighted`), so no patched snapshot pays for
    it again; the branch decomposition is filled in on first use.
    """

    __slots__ = ("depth", "order", "edges", "edge_parents", "levels", "level_parents", "branches")

    def __init__(self, parent: np.ndarray, depth: np.ndarray):
        self.depth = _frozen(depth)
        self.order = _frozen(np.argsort(depth, kind="stable"))
        # The non-root rows follow the roots in the depth-sorted order,
        # and level k is the run of depth-k rows among them.
        maxd = int(depth.max(initial=0))
        bounds = np.searchsorted(depth[self.order], np.arange(1, maxd + 2))
        self.edges = self.order[bounds[0]:]
        self.edge_parents = _frozen(parent[self.edges])
        spans = list(zip(bounds[:-1] - bounds[0], bounds[1:] - bounds[0], strict=True))
        self.levels = [self.edges[lo:hi] for lo, hi in spans]
        self.level_parents = [self.edge_parents[lo:hi] for lo, hi in spans]
        self.branches: list[np.ndarray] | None = None


@dataclass
class CompressionTree:
    """Rooted forest over matrix rows; roots hang off the virtual node.

    ``parent[x]`` is the reference row of row ``x`` or :data:`VIRTUAL`;
    the tree keeps its own read-only int64 copy, so the caller's array
    is never frozen or aliased.  ``weight[x]`` is the number of deltas
    used to encode row ``x`` (for a virtual-parent row this equals its
    nnz).
    """

    parent: np.ndarray
    weight: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.parent = np.ravel(self.parent).astype(np.int64)
        if self.weight is None:
            self.weight = np.zeros(self.n, dtype=np.int64)
        else:
            self.weight = self._checked_weight(self.weight)
        self.validate()

    def _checked_weight(self, weight) -> np.ndarray:
        weight = np.asarray(weight, dtype=np.int64).ravel()
        if len(weight) != self.n:
            raise TreeError(f"weight has length {len(weight)}, expected {self.n}")
        return weight

    def reweighted(self, weight) -> CompressionTree:
        """This tree with new per-row delta counts, sharing its frozen
        parent array and schedule: nothing is re-validated, only the
        length of ``weight`` is checked.

        Streaming patches use it: they re-count some rows' deltas but
        never move a parent.
        """
        tree = copy.copy(self)
        tree.weight = self._checked_weight(weight)
        return tree

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.parent)

    def validate(self) -> None:
        """Check parent indices and acyclicity; raise :class:`TreeError`.

        Freezes the parent array and computes the schedule from the
        depths the cycle check produces, so a tree runs :meth:`depth`
        once in its life.
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
        _frozen(self.parent)
        self._schedule = _Schedule(self.parent, depth)

    def depth(self) -> np.ndarray:
        """Depth of each row: 0 for virtual-parent rows, parent depth + 1 else.

        Computed by repeated relaxation (each pass finalises one level).
        A pass that resolves no row means the rows still pending lie on
        or below a cycle; they are marked n + 1, which :meth:`validate`
        rejects.
        """
        n = self.n
        depth = np.where(self.parent == VIRTUAL, 0, -1).astype(np.int64)
        pending = np.flatnonzero(depth < 0)
        while len(pending):
            pd = depth[self.parent[pending]]
            ready = pd >= 0
            if not ready.any():
                depth[pending] = n + 1
                break
            depth[pending[ready]] = pd[ready] + 1
            pending = pending[~ready]
        return depth

    # ------------------------------------------------------------------
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
        return self._schedule.order

    def levels(self) -> list[np.ndarray]:
        """Non-root rows grouped by depth (level k children have level-(k-1) parents).

        ``levels()[0]`` is the set of rows at depth 1.  The update stage
        processes levels in order; inside a level, rows can be updated as
        one vectorised batch because their parents all live at strictly
        smaller depths.
        """
        return list(self._schedule.levels)

    def level_pairs(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """``(children, parents)`` per level: :meth:`levels` with each
        level's parent rows, ``parent[children]``."""
        s = self._schedule
        return list(zip(s.levels, s.level_parents, strict=True))

    def edge_schedule(self) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, parents)``: the non-root rows in topological order and
        each one's parent — the paper's update stage, one axpy per pair.

        :meth:`level_pairs` are slices of these two arrays.
        """
        s = self._schedule
        return s.edges, s.edge_parents

    def branches(self) -> list[np.ndarray]:
        """Subtrees hanging off the virtual node, each in topological order.

        This is the unit of parallel work of Section V-B: there are no data
        dependencies across branches, so each list can be replayed by a
        different thread.  Rows include the branch root itself.
        """
        s = self._schedule
        if s.branches is None:
            # Union-find-free labelling: propagate root label down by depth.
            label = np.full(self.n, -1, dtype=np.int64)
            for x in s.order:
                p = self.parent[x]
                label[x] = x if p == VIRTUAL else label[p]
            groups: dict[int, list[int]] = {}
            for x in s.order:
                groups.setdefault(int(label[x]), []).append(int(x))
            s.branches = [
                _frozen(np.asarray(groups[r], dtype=np.int64)) for r in sorted(groups)
            ]
        return list(s.branches)

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
        d = self._schedule.depth
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
