"""Unit tests for the MST and arborescence constructions."""

import dataclasses

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypothesis.extra.numpy import arrays

from repro.core import builder
from repro.core.arborescence import minimum_arborescence
from repro.core.builder import build_cbm
from repro.core.cbm import Variant
from repro.core.distance import DistanceGraph, candidate_edges
from repro.core.mst import UnionFind, kruskal_mst
from repro.core.tree import VIRTUAL, CompressionTree
from repro.errors import CompressionError
from repro.graphs.datasets import load_dataset
from repro.graphs.laplacian import gcn_normalization
from repro.runtime import native
from repro.sparse.convert import from_dense

from tests.conftest import prim_mst, random_adjacency_csr, random_binary_csr


# ----------------------------------------------------------------------
# Reference implementation
# ----------------------------------------------------------------------


def _ref_pick_min_incoming(
    src: np.ndarray, dst: np.ndarray, w: np.ndarray, is_real: np.ndarray, nodes: int, root: int
) -> tuple[np.ndarray, np.ndarray]:
    """Cheapest incoming edge index per node (or -1); ties prefer virtual."""
    pick = np.full(nodes, -1, dtype=np.int64)
    minw = np.zeros(nodes, dtype=np.int64)
    if len(src) == 0:
        return pick, minw
    order = np.lexsort((is_real, w, dst))
    sd = dst[order]
    first = np.ones(len(sd), dtype=bool)
    first[1:] = sd[1:] != sd[:-1]
    sel = order[first]
    pick[dst[sel]] = sel
    minw[dst[sel]] = w[sel]
    pick[root] = -1
    return pick, minw


def _ref_find_cycles(pick: np.ndarray, src: np.ndarray, nodes: int, root: int) -> list[np.ndarray]:
    """Cycles in the functional graph v -> src[pick[v]] (root excluded)."""
    color = np.zeros(nodes, dtype=np.int8)  # 0 unseen, 1 on stack, 2 done
    cycles: list[np.ndarray] = []
    for start in range(nodes):
        if color[start] != 0 or start == root:
            continue
        path = []
        v = start
        while v != root and color[v] == 0 and pick[v] >= 0:
            color[v] = 1
            path.append(v)
            v = int(src[pick[v]])
        if v != root and color[v] == 1 and pick[v] >= 0:
            # Found a new cycle: the tail of `path` starting at v.
            k = path.index(v)
            cycles.append(np.asarray(path[k:], dtype=np.int64))
        for u in path:
            color[u] = 2
    return cycles


def reference_minimum_arborescence(g: DistanceGraph) -> CompressionTree:
    """Round-by-round Chu–Liu/Edmonds: re-pick and re-search every node each round.

    The reference :func:`minimum_arborescence` must match bit for bit: the
    same tie rule (lowest weight, then the virtual edge, then the lowest
    edge id), applied by one full lexsort of the contracted graph per round.
    """
    n = g.n
    if g.directed:
        e_src, e_dst, e_w = g.src, g.dst, g.weight
    else:
        e_src = np.concatenate([g.src, g.dst])
        e_dst = np.concatenate([g.dst, g.src])
        e_w = np.concatenate([g.weight, g.weight])
    root = n
    # Combined edge arrays; original edge ids index into these.
    src0 = np.concatenate([e_src, np.full(n, root, dtype=np.int64)])
    dst0 = np.concatenate([e_dst, np.arange(n, dtype=np.int64)])
    w0 = np.concatenate([e_w, g.row_nnz]).astype(np.int64)
    is_real0 = np.concatenate(
        [np.ones(len(e_src), dtype=np.int8), np.zeros(n, dtype=np.int8)]
    )

    # Current contracted graph.
    src, dst, w = src0.copy(), dst0.copy(), w0.copy()
    is_real = is_real0.copy()
    eid = np.arange(len(src0), dtype=np.int64)
    nodes = n + 1
    cur_root = root

    # Per-level records for expansion.
    levels: list[dict] = []

    for _ in range(n + 1):
        pick, minw = _ref_pick_min_incoming(src, dst, w, is_real, nodes, cur_root)
        missing = np.flatnonzero(pick < 0)
        missing = missing[missing != cur_root]
        if len(missing):
            raise CompressionError(
                f"arborescence: node(s) {missing[:5]} have no incoming edge"
            )
        cycles = _ref_find_cycles(pick, src, nodes, cur_root)
        if not cycles:
            chosen = {int(v): int(eid[pick[v]]) for v in range(nodes) if v != cur_root}
            selected = set(chosen.values())
            break

        # Contract all cycles simultaneously.
        node_map = np.full(nodes, -1, dtype=np.int64)
        in_cycle = np.zeros(nodes, dtype=bool)
        for c in cycles:
            in_cycle[c] = True
        new_id = 0
        for v in range(nodes):
            if not in_cycle[v]:
                node_map[v] = new_id
                new_id += 1
        cycle_ids = []
        for c in cycles:
            node_map[c] = new_id
            cycle_ids.append(new_id)
            new_id += 1

        levels.append(
            {
                # eid is strictly increasing (arange filtered by masks), so
                # level-local dst lookups can use searchsorted at expansion.
                "eid": eid,
                "dst": dst,
                "nodes": nodes,
                "pick_eid": {
                    int(v): int(eid[pick[v]]) for v in range(nodes) if v != cur_root
                },
                "cycles": cycles,
                "cycle_ids": cycle_ids,
            }
        )

        # Reduced weights: edges entering a cycle pay w - minw[dst].
        adj_w = w - np.where(in_cycle[dst], minw[dst], 0)
        new_src = node_map[src]
        new_dst = node_map[dst]
        keep = new_src != new_dst
        src, dst, w = new_src[keep], new_dst[keep], adj_w[keep]
        is_real, eid = is_real[keep], eid[keep]
        nodes = new_id
        cur_root = int(node_map[cur_root])
    else:  # pragma: no cover - guarded by CompressionError paths
        raise CompressionError("arborescence failed to converge")

    # Expand contractions from the last (most contracted) level outward:
    # after processing a level, `selected` is an arborescence on that
    # level's pre-contraction node set.  Entry-edge lookups are vectorised:
    # map every selected edge to its level-local dst at once, then to the
    # cycle that dst belongs to (a selected edge whose level dst is inside
    # a cycle is exactly the unique external edge entering that supernode —
    # same-cycle edges were self-loops and never survived the contraction).
    for level in reversed(levels):
        level_eid, level_dst = level["eid"], level["dst"]
        sel_arr = np.fromiter(selected, dtype=np.int64, count=len(selected))
        pos = np.searchsorted(level_eid, sel_arr)
        pos_clip = np.minimum(pos, len(level_eid) - 1)
        present = level_eid[pos_clip] == sel_arr
        dsts = level_dst[pos_clip[present]]
        cyc_of = np.full(level["nodes"], -1, dtype=np.int64)
        for ci, c in enumerate(level["cycles"]):
            cyc_of[c] = ci
        hit = cyc_of[dsts] >= 0
        entry_node = dict(zip(cyc_of[dsts[hit]].tolist(), dsts[hit].tolist(), strict=True))
        for ci, c in enumerate(level["cycles"]):
            if ci not in entry_node:
                raise CompressionError("expansion: no edge enters contracted cycle")
            t = entry_node[ci]
            for v in c:
                if int(v) != t:
                    selected.add(level["pick_eid"][int(v)])

    # Selected edges now form the arborescence on original nodes.
    parent = np.full(n, VIRTUAL, dtype=np.int64)
    weight = np.zeros(n, dtype=np.int64)
    seen = np.zeros(n, dtype=bool)
    for e in selected:
        t = int(dst0[e])
        if t == root:
            raise CompressionError("expansion: selected edge enters the root")
        if seen[t]:
            raise CompressionError(f"expansion: two selected edges enter row {t}")
        seen[t] = True
        s = int(src0[e])
        parent[t] = VIRTUAL if s == root else s
        weight[t] = int(w0[e])
    if not seen.all():
        raise CompressionError("expansion: some rows received no parent")
    return CompressionTree(parent=parent, weight=weight)


def _ref_orient_from_virtual(n: int, chosen: list[tuple[int, int]], row_nnz, weights) -> CompressionTree:
    """Orient an undirected spanning tree away from the virtual node.

    ``chosen`` holds undirected (u, v) pairs with node id ``n`` standing
    for the virtual node.  Returns the parent array plus per-row delta
    counts.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    for (u, v), w in zip(chosen, weights, strict=True):
        adj[u].append((v, w))
        adj[v].append((u, w))
    parent = np.full(n, VIRTUAL, dtype=np.int64)
    wout = np.zeros(n, dtype=np.int64)
    visited = np.zeros(n + 1, dtype=bool)
    stack = [n]
    visited[n] = True
    while stack:
        u = stack.pop()
        for v, w in adj[u]:
            if visited[v]:
                continue
            visited[v] = True
            parent[v] = VIRTUAL if u == n else u
            wout[v] = row_nnz[v] if u == n else w
            stack.append(v)
    if not visited[:n].all():
        raise CompressionError("spanning tree does not reach every row")
    return CompressionTree(parent=parent, weight=wout)


def reference_kruskal_mst(g: DistanceGraph) -> CompressionTree:
    """Union-find Kruskal over one lexsort of the real and virtual edges.

    The compiled :func:`kruskal_mst` must match bit for bit: edges are
    taken in weight order, virtual before real on a tie, then by position,
    and the spanning tree is oriented away from the virtual node.
    """
    if g.directed:
        raise CompressionError("kruskal_mst requires an undirected distance graph")
    n = g.n
    vsrc = np.full(n, n, dtype=np.int64)
    vdst = np.arange(n, dtype=np.int64)
    src = np.concatenate([g.src, vsrc])
    dst = np.concatenate([g.dst, vdst])
    w = np.concatenate([g.weight, g.row_nnz]).astype(np.int64)
    # Secondary key 0 for virtual edges, 1 for real ones: ties go virtual.
    is_real = np.concatenate(
        [np.ones(g.num_edges, dtype=np.int8), np.zeros(n, dtype=np.int8)]
    )
    order = np.lexsort((is_real, w))
    uf = UnionFind(n + 1)
    chosen: list[tuple[int, int]] = []
    wts: list[int] = []
    for k in order:
        u, v = int(src[k]), int(dst[k])
        if uf.union(u, v):
            chosen.append((u, v))
            wts.append(int(w[k]))
            if len(chosen) == n:
                break
    if len(chosen) != n:
        raise CompressionError(
            f"Kruskal selected {len(chosen)} edges, expected {n}"
        )
    return _ref_orient_from_virtual(n, chosen, g.row_nnz, wts)


class TestUnionFind:
    def test_initially_disjoint(self):
        uf = UnionFind(4)
        assert uf.find(0) != uf.find(1)

    def test_union_merges(self):
        uf = UnionFind(4)
        assert uf.union(0, 1)
        assert uf.find(0) == uf.find(1)

    def test_union_idempotent(self):
        uf = UnionFind(4)
        uf.union(0, 1)
        assert not uf.union(1, 0)

    def test_transitive(self):
        uf = UnionFind(5)
        uf.union(0, 1)
        uf.union(1, 2)
        assert uf.find(2) == uf.find(0)


def _mst_weight_networkx(g: DistanceGraph) -> int:
    """Oracle: networkx MST weight of the virtual-extended graph."""
    G = nx.Graph()
    n = g.n
    for x in range(n):
        G.add_edge(n, x, weight=int(g.row_nnz[x]))
    for s, d, w in zip(g.src, g.dst, g.weight, strict=True):
        u, v, w = int(s), int(d), int(w)
        if not G.has_edge(u, v) or G[u][v]["weight"] > w:
            G.add_edge(u, v, weight=w)
    return sum(d["weight"] for _, _, d in nx.minimum_spanning_tree(G).edges(data=True))


class TestMST:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_kruskal_matches_networkx_weight(self, seed):
        a = random_adjacency_csr(25, density=0.3, seed=seed)
        g = candidate_edges(a, None)
        tree = kruskal_mst(g)
        assert tree.total_weight() == _mst_weight_networkx(g)

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_prim_and_kruskal_agree(self, seed):
        a = random_binary_csr(30, density=0.3, seed=seed)
        g = candidate_edges(a, None)
        assert prim_mst(g).total_weight() == kruskal_mst(g).total_weight()

    def test_rejects_directed_graph(self):
        a = random_adjacency_csr(10, seed=8)
        g = candidate_edges(a, 2)
        with pytest.raises(CompressionError):
            kruskal_mst(g)
        with pytest.raises(CompressionError):
            prim_mst(g)

    def test_all_rows_get_parents(self):
        a = random_adjacency_csr(20, seed=9)
        tree = kruskal_mst(candidate_edges(a, None))
        assert tree.n == 20
        # depth defined everywhere = spanning
        assert tree.depth().max() < 20

    def test_empty_graph_all_virtual(self):
        a = from_dense(np.zeros((5, 5), dtype=np.float32))
        tree = kruskal_mst(candidate_edges(a, None))
        assert np.all(tree.parent == VIRTUAL)
        assert tree.total_weight() == 0


class TestArborescence:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_alpha0_matches_mst_weight(self, seed):
        """At alpha=0 the pruned MCA has the same total cost as the MST."""
        a = random_adjacency_csr(24, density=0.35, seed=seed)
        mst = kruskal_mst(candidate_edges(a, None))
        mca = minimum_arborescence(candidate_edges(a, 0))
        assert mca.total_weight() == mst.total_weight()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_networkx_edmonds(self, seed):
        a = random_adjacency_csr(18, density=0.4, seed=seed)
        g = candidate_edges(a, 2)
        ours = minimum_arborescence(g)
        # networkx oracle on the same directed graph + virtual edges.
        G = nx.MultiDiGraph()
        n = g.n
        for x in range(n):
            G.add_edge(n, x, weight=int(g.row_nnz[x]))
        for s, d, w in zip(g.src, g.dst, g.weight, strict=True):
            G.add_edge(int(s), int(d), weight=int(w))
        arb = nx.algorithms.tree.branchings.minimum_spanning_arborescence(G)
        oracle = sum(d["weight"] for _, _, d in arb.edges(data=True))
        assert ours.total_weight() == oracle

    def test_undirected_input_accepted(self):
        a = random_adjacency_csr(15, seed=6)
        g = candidate_edges(a, None)
        tree = minimum_arborescence(g)
        assert tree.n == 15

    def test_monotone_in_alpha(self):
        """Total weight can only grow as alpha prunes more edges."""
        a = random_adjacency_csr(30, density=0.4, seed=7)
        weights = [
            minimum_arborescence(candidate_edges(a, alpha)).total_weight()
            for alpha in (0, 1, 2, 4, 8)
        ]
        assert weights == sorted(weights)

    def test_weight_never_exceeds_nnz(self):
        """Property 1: total deltas <= nnz(A)."""
        for seed in (8, 9):
            a = random_adjacency_csr(25, density=0.3, seed=seed)
            for alpha in (0, 4):
                tree = minimum_arborescence(candidate_edges(a, alpha))
                assert tree.total_weight() <= a.nnz

    def test_forced_cycle_contraction(self):
        """Two nearly identical rows prefer each other; contraction must
        resolve the 2-cycle through the virtual node."""
        d = np.zeros((4, 8), dtype=np.float32)
        d[0, :6] = 1
        d[1, :6] = 1
        d[1, 6] = 1  # rows 0,1 differ by one delta
        d[2, 7] = 1
        d[3, 0] = 1
        a = from_dense(d)
        tree = minimum_arborescence(candidate_edges(a, 0))
        # The 2-cycle must be broken: exactly one of rows 0/1 is compressed
        # against the other (the remaining one enters from outside the pair).
        pair_parents = {int(tree.parent[0]), int(tree.parent[1])}
        assert len(pair_parents & {0, 1}) == 1
        # Optimal cost: row 3 (nnz 1) + edge 3->0 (5 deltas) + edge 0->1
        # (1 delta) + row 2 (nnz 1) = 8, cheaper than the virtual edge to 0.
        assert tree.total_weight() == 8
        assert tree.total_weight() <= a.nnz


@st.composite
def tie_heavy_graphs(draw, max_n=12):
    """Distance graphs whose small integer weights make ties the rule.

    Real edge weights (0..4) and virtual-edge costs (2..5) overlap, so real
    and virtual edges tie often, while most rows still prefer a real edge:
    mutual cheap edges then form cycles whose contraction produces
    parallel edges and nested cycles.  Duplicate (src, dst) pairs are
    allowed too.
    """
    n = draw(st.integers(1, max_n))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda p: p[0] != p[1]
            ),
            min_size=n - 1,
            max_size=5 * n,
        )
    )
    weights = draw(st.lists(st.integers(0, 4), min_size=len(pairs), max_size=len(pairs)))
    row_nnz = draw(st.lists(st.integers(2, 5), min_size=n, max_size=n))
    directed = draw(st.booleans())
    return DistanceGraph(
        n=n,
        src=np.asarray([p[0] for p in pairs], dtype=np.int64),
        dst=np.asarray([p[1] for p in pairs], dtype=np.int64),
        weight=np.asarray(weights, dtype=np.int64),
        row_nnz=np.asarray(row_nnz, dtype=np.int64),
        directed=directed,
        alpha=1 if directed else None,
    )


def _assert_same_tree(ours: CompressionTree, ref: CompressionTree) -> None:
    assert ours.parent.dtype == ref.parent.dtype
    assert ours.weight.dtype == ref.weight.dtype
    assert np.array_equal(ours.parent, ref.parent)
    assert np.array_equal(ours.weight, ref.weight)


class TestArborescenceMatchesReference:
    """The default path: the compiled rounds whenever the library loads."""

    @given(tie_heavy_graphs())
    @settings(max_examples=300, deadline=None)
    def test_bitwise_equal_on_tie_heavy_graphs(self, g):
        _assert_same_tree(minimum_arborescence(g), reference_minimum_arborescence(g))

    def test_bitwise_equal_on_many_round_registry_graph(self):
        """ca-HepPh at alpha=4 needs 156 contraction rounds."""
        g = candidate_edges(load_dataset("ca-HepPh"), 4)
        _assert_same_tree(minimum_arborescence(g), reference_minimum_arborescence(g))

    def test_empty_graph(self):
        g = candidate_edges(random_binary_csr(0, seed=0), 1)
        _assert_same_tree(minimum_arborescence(g), reference_minimum_arborescence(g))


class TestNumpyRoundsMatchReference(TestArborescenceMatchesReference):
    """The same checks on the NumPy rounds, the path without a compiler."""

    @pytest.fixture(autouse=True, scope="class")
    def numpy_rounds(self):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(native, "load", lambda: None)
            yield

    # Hypothesis refuses to run one test function from two classes.
    @given(tie_heavy_graphs())
    @settings(max_examples=300, deadline=None)
    def test_bitwise_equal_on_tie_heavy_graphs(self, g):
        _assert_same_tree(minimum_arborescence(g), reference_minimum_arborescence(g))


@st.composite
def tie_heavy_matrices(draw, max_n=14):
    """Binary matrices whose rows' Hamming distances collide.

    At most four columns make equal weights the rule.  Rows are drawn
    from a small pool that always holds the empty row, so duplicate and
    empty rows are common; shapes are rectangular and n may be 0 or 1.
    """
    n = draw(st.integers(0, max_n))
    m = draw(st.integers(1, 4))
    rows = arrays(np.float32, m, elements=st.sampled_from([0.0, 1.0]))
    pool = [np.zeros(m, dtype=np.float32), *draw(st.lists(rows, min_size=1, max_size=4))]
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    return from_dense(np.asarray([pool[i] for i in picks], dtype=np.float32).reshape(n, m))


class TestKruskalMatchesReference:
    @given(tie_heavy_matrices())
    @settings(max_examples=300, deadline=None)
    def test_bitwise_equal_on_tie_heavy_matrices(self, a):
        g = candidate_edges(a, None)
        _assert_same_tree(kruskal_mst(g), reference_kruskal_mst(g))

    @given(tie_heavy_graphs())
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equal_with_parallel_edges(self, g):
        """Edge lists with repeated and reversed pairs and zero weights."""
        g = dataclasses.replace(g, directed=False, alpha=None)
        _assert_same_tree(kruskal_mst(g), reference_kruskal_mst(g))

    @pytest.mark.parametrize("variant", ["A", "DAD"])
    @pytest.mark.parametrize("name", ["Cora", "PubMed", "ca-HepPh"])
    def test_alpha0_build_matches_reference_build(self, name, variant, monkeypatch):
        a = load_dataset(name)
        kwargs = {}
        if variant == "DAD":
            a, d = gcn_normalization(a)
            kwargs = {"variant": Variant.DAD, "diag": d}
        ours, _ = build_cbm(a, alpha=0, **kwargs)
        monkeypatch.setattr(builder, "kruskal_mst", reference_kruskal_mst)
        ref, _ = build_cbm(a, alpha=0, **kwargs)
        _assert_same_tree(ours.tree, ref.tree)
        for array in ("indptr", "indices", "data"):
            mine, theirs = getattr(ours.delta, array), getattr(ref.delta, array)
            assert mine.dtype == theirs.dtype
            assert np.array_equal(mine, theirs)
