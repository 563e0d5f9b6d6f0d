"""Minimum-cost arborescence (Chu–Liu/Edmonds) for pruned distance graphs.

With edge pruning enabled (alpha > 0, Section V-C) the distance graph is
directed, so the compression tree is a minimum-cost arborescence rooted at
the virtual node.  This module implements Chu–Liu/Edmonds from scratch
with full parent recovery:

1.  Every non-root node picks its cheapest incoming edge.
2.  If the picked edges are acyclic they form the arborescence.
3.  Otherwise every cycle is contracted into a supernode, entering-edge
    weights are reduced by the cycle edge they displace, and the loop
    repeats on the contracted multigraph.  Expansion walks the
    contractions backwards: inside each cycle all picked edges are kept
    except the one entering the node where the external edge lands.

Each round touches only what the last contraction changed.  Contracting a
cycle leaves every other node's incoming edges and their weights alone,
so its pick carries over; only the new supernodes pick again, and every
new cycle runs through one of them, so the cycle search starts from them
alone.  A supernode's incoming edges are its members' incoming edges from
outside the cycle, and of the edges from one source only the one the pick
rule prefers is kept: parallel edges receive the same weight reductions
in every later round, so no other can ever be picked.  Rounds are not
few: at alpha=4 COLLAB takes 74 (75 with the self-loops of GCN
normalisation) and ogbn-proteins takes 240.

The rounds run compiled (``runtime/arborescence.c``, loaded by
:mod:`repro.runtime.native` into the library that also holds the update
stage), one pass over the entries each round gathers: a union-find maps
sources to live nodes, a per-source slot keeps the best entry, and each
in-list keeps only its pick at its head.  The order of the rest is never
read, since a contraction keeps the lowest (weight, id) entry per source
wherever it sits.  Without a compiler, or on input the C code does not
take (an index out of range, a self-loop, a negative weight), the same
rounds run as NumPy passes: one lexsort of all edges by (destination,
weight, edge id) sorts every in-list, and a round costs a sort of the new
supernodes' incoming edges, O(n) vectorised relabelling and a Python walk
from each new supernode.  Both give the same tree.

Ties are broken by the lowest weight, then toward virtual-node edges, then
by the lowest edge id, in every round.  Virtual edges are numbered before
the real ones, so the last two rules are one edge-id order.  This mirrors
the MST tie rule (worthless compression opportunities go to the
adjacency-list case, which also raises the virtual root's out-degree — the
parallelism knob of Section V-C).  The rule is a total order on edges, and
the incremental bookkeeping never reorders two edges that a full per-round
re-sort could still compare, so the tree is exactly the one the
round-by-round algorithm picks.
"""

from __future__ import annotations

import numpy as np

from repro.core.distance import DistanceGraph
from repro.core.tree import VIRTUAL, CompressionTree
from repro.errors import CompressionError
from repro.runtime import native

# Rows of the in-list pool: the original edge id of an entry, its weight
# reduced to the round its owner was contracted in, the node whose in-list
# it was copied from (its level-local destination), and the slot it was
# copied from (-1 for the original edges).
_EID, _W, _OWNER, _FROM = range(4)


def _ranges(lo: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(lo[i], lo[i] + length[i])`` over ``i``."""
    total = int(length.sum())
    starts = np.cumsum(length) - length
    return np.repeat(lo - starts, length) + np.arange(total, dtype=np.int64)


def _find_cycles(succ: np.ndarray, starts, root: int) -> list[np.ndarray]:
    """Cycles of the pick graph ``v -> succ[v]`` that pass through ``starts``."""
    walk = np.zeros(len(succ), dtype=np.int64)  # 1-based walk that visited a node
    cycles: list[np.ndarray] = []
    for token, start in enumerate(starts, start=1):
        path = []
        v = int(start)
        while v != root and not walk[v]:
            walk[v] = token
            path.append(v)
            v = int(succ[v])
        if v != root and walk[v] == token:
            cycles.append(np.asarray(path[path.index(v):], dtype=np.int64))
    return cycles


def minimum_arborescence(g: DistanceGraph) -> CompressionTree:
    """Minimum-cost arborescence of the virtual-rooted distance graph.

    Accepts directed *or* undirected distance graphs (an undirected graph
    is expanded to both orientations first — on symmetric weights the
    result has the same cost as the MST, a property the test suite pins).
    A malformed graph raises :class:`CompressionError`
    (:meth:`DistanceGraph.validate`).
    """
    g.validate()
    n = g.n
    if g.directed:
        e_src, e_dst, e_w = g.src, g.dst, g.weight
    else:
        e_src = np.concatenate([g.src, g.dst])
        e_dst = np.concatenate([g.dst, g.src])
        e_w = np.concatenate([g.weight, g.weight])
    root = n
    # Original edges: root -> x for every row x, then the real ones.  An
    # edge's id is its position here, so the tie rule is (weight, id).
    src0 = np.concatenate([np.full(n, root), e_src]).astype(np.int64, copy=False)
    dst0 = np.concatenate([np.arange(n), e_dst]).astype(np.int64, copy=False)
    w0 = np.concatenate([g.row_nnz, e_w]).astype(np.int64, copy=False)

    e = _compiled_rounds(n, src0, dst0, w0)
    if e is None:
        e = _numpy_rounds(n, src0, dst0, w0)
    if not np.array_equal(dst0[e], np.arange(n)):
        raise CompressionError("expansion: a row received an edge entering another row")
    parent = np.where(src0[e] == root, VIRTUAL, src0[e])
    return CompressionTree(parent=parent, weight=w0[e])


def _compiled_rounds(
    n: int, src0: np.ndarray, dst0: np.ndarray, w0: np.ndarray
) -> np.ndarray | None:
    """Each row's chosen edge id from the compiled rounds; None when the
    library is unavailable or the input is one the C code does not take.

    Taken: equal lengths, real edges with ``0 <= src, dst < n`` and
    ``src != dst``, and no negative weight.
    """
    lib = native.load()
    if lib is None or not len(src0) == len(dst0) == len(w0):
        return None
    real_src, real_dst = src0[n:], dst0[n:]
    if len(real_src) and (
        min(real_src.min(), real_dst.min()) < 0
        or max(real_src.max(), real_dst.max()) >= n
        or np.any(real_src == real_dst)
    ):
        return None
    if len(w0) and w0.min() < 0:
        return None
    picked = np.empty(n, dtype=np.int64)
    status = lib.cbm_arborescence(
        n, len(src0), src0.ctypes.data, dst0.ctypes.data, w0.ctypes.data, picked.ctypes.data
    )
    if status == native.ARBORESCENCE_NOMEM:
        raise MemoryError(f"arborescence of {n} rows and {len(src0)} edges")
    if status != 0:
        raise CompressionError("arborescence failed to converge")
    return picked


def _numpy_rounds(n: int, src0: np.ndarray, dst0: np.ndarray, w0: np.ndarray) -> np.ndarray:
    """Each row's chosen edge id, from the rounds run as NumPy passes."""
    root = n
    # Node ids: rows 0..n-1, the root n, then supernodes in creation order.
    # Each contraction retires at least one more node than it creates, so
    # there are at most n supernodes.
    cap = 2 * n + 1
    # Each node's incoming edges are the slots lo[v]..hi[v] of the pool,
    # sorted by the tie rule, so slot lo[v] is the node's pick.
    order = np.lexsort((w0, dst0))
    pool = np.empty((4, len(order)), dtype=np.int64)
    pool[_EID] = order
    pool[_W] = w0[order]
    pool[_OWNER] = dst0[order]
    pool[_FROM] = -1
    used = len(order)
    lo = np.zeros(cap, dtype=np.int64)
    hi = np.zeros(cap, dtype=np.int64)
    hi[: n + 1] = np.cumsum(np.bincount(dst0, minlength=n + 1))
    lo[1 : n + 1] = hi[:n]
    comp = np.arange(n + 1, dtype=np.int64)  # original node -> live node
    succ = np.full(cap, root, dtype=np.int64)  # live node -> its pick's source
    succ[:n] = src0[pool[_EID, lo[:n]]]
    contractions: list[tuple[np.ndarray, np.ndarray]] = []
    next_id = n + 1
    fresh: range | np.ndarray = range(n)

    for _ in range(n + 1):
        cycles = _find_cycles(succ, fresh, root)
        if not cycles:
            break
        members = np.concatenate(cycles)
        sizes = np.fromiter((len(c) for c in cycles), dtype=np.int64, count=len(cycles))
        supers = np.arange(next_id, next_id + len(cycles), dtype=np.int64)
        next_id += len(cycles)
        owner_super = np.repeat(supers, sizes)
        contractions.append((members, owner_super))
        remap = np.arange(cap, dtype=np.int64)
        remap[members] = owner_super
        comp = remap[comp]
        succ = remap[succ]

        # The supernodes' incoming edges: their members' entries whose
        # source lies outside the cycle, each paying the member's pick.
        slot = _ranges(lo[members], hi[members] - lo[members])
        own = np.repeat(members, hi[members] - lo[members])
        sup = remap[own]
        eid = pool[_EID, slot]
        src = comp[src0[eid]]
        keep = src != sup
        slot, own, sup, eid, src = slot[keep], own[keep], sup[keep], eid[keep], src[keep]
        w = pool[_W, slot] - pool[_W, lo[own]]
        # Best entry per (supernode, source), then each supernode's
        # survivors in tie-rule order.
        o = np.lexsort((eid, w, src, sup))
        first = np.ones(len(o), dtype=bool)
        first[1:] = (sup[o[1:]] != sup[o[:-1]]) | (src[o[1:]] != src[o[:-1]])
        o = o[first]
        o = o[np.lexsort((eid[o], w[o], sup[o]))]
        # Never zero: the root is in no cycle, so every member's virtual
        # edge survives.
        counts = np.bincount(sup[o] - supers[0], minlength=len(supers))
        if used + len(o) > pool.shape[1]:
            grown = np.empty((4, max(2 * pool.shape[1], used + len(o))), dtype=np.int64)
            grown[:, :used] = pool[:, :used]
            pool = grown
        pool[_EID, used : used + len(o)] = eid[o]
        pool[_W, used : used + len(o)] = w[o]
        pool[_OWNER, used : used + len(o)] = own[o]
        pool[_FROM, used : used + len(o)] = slot[o]
        hi[supers] = used + np.cumsum(counts)
        lo[supers] = hi[supers] - counts
        used += len(o)
        succ[supers] = comp[src0[pool[_EID, lo[supers]]]]
        fresh = supers
    else:  # pragma: no cover - every round retires at least one node
        raise CompressionError("arborescence failed to converge")

    # Expand the contractions newest first.  `into[v]` is the slot, in v's
    # own in-list, of the edge entering v.  A supernode's entering edge
    # lands on the member it was copied from; every other member keeps its
    # pick.
    into = lo.copy()
    for members, owner_super in reversed(contractions):
        s = into[owner_super]
        into[members] = np.where(pool[_OWNER, s] == members, pool[_FROM, s], lo[members])

    return pool[_EID, into[:n]]
