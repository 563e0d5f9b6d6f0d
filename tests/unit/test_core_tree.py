"""Unit tests for the CompressionTree container."""

import numpy as np
import pytest

from repro.core.tree import VIRTUAL, CompressionTree
from repro.errors import TreeError


def chain_tree(n):
    """0 <- 1 <- 2 <- ... (0 hangs off the virtual node)."""
    parent = np.arange(-1, n - 1)
    return CompressionTree(parent=parent, weight=np.ones(n, dtype=np.int64))


def star_tree(n):
    """All rows hang off the virtual node."""
    return CompressionTree(parent=np.full(n, VIRTUAL), weight=np.ones(n, dtype=np.int64))


class TestValidation:
    def test_self_parent_rejected(self):
        with pytest.raises(TreeError):
            CompressionTree(parent=np.array([0]))

    def test_out_of_range_parent_rejected(self):
        with pytest.raises(TreeError):
            CompressionTree(parent=np.array([5, VIRTUAL]))

    def test_cycle_rejected(self):
        with pytest.raises(TreeError):
            CompressionTree(parent=np.array([1, 0]))

    def test_long_cycle_rejected(self):
        with pytest.raises(TreeError):
            CompressionTree(parent=np.array([2, 0, 1, VIRTUAL]))

    def test_weight_length_mismatch(self):
        with pytest.raises(TreeError):
            CompressionTree(parent=np.array([VIRTUAL]), weight=np.array([1, 2]))

    def test_empty_tree(self):
        t = CompressionTree(parent=np.array([], dtype=np.int64))
        assert t.n == 0
        assert t.topological_order().size == 0
        assert t.levels() == [] and t.branches() == []

    def test_cycle_below_a_long_chain_rejected(self):
        """Rows hanging off a cycle never resolve either; the check stops
        at the first pass that resolves nothing, however long the chain
        above it or the forest beside it."""
        n = 100_000
        parent = np.full(n, VIRTUAL)
        parent[1:1000] = np.arange(999)  # a 999-edge chain from row 0
        parent[1000], parent[1001] = 1001, 1000  # a 2-cycle
        parent[1002:1010] = 1001  # rows hanging off the cycle
        with pytest.raises(TreeError, match="cycle"):
            CompressionTree(parent=parent)

    def test_reweighted_checks_weight_length(self):
        with pytest.raises(TreeError):
            chain_tree(3).reweighted(np.ones(4, dtype=np.int64))


class TestFrozenSchedule:
    def test_caller_array_stays_writable_and_unaliased(self):
        parent = np.array([VIRTUAL, 0, 1], dtype=np.int64)
        t = CompressionTree(parent=parent)
        assert parent.flags.writeable
        assert not np.shares_memory(parent, t.parent)
        parent[2] = VIRTUAL
        assert t.parent[2] == 1

    def test_parent_and_schedule_are_read_only(self):
        t = CompressionTree(parent=np.array([VIRTUAL, 0, 1, 0, VIRTUAL, 4]))
        with pytest.raises(ValueError):
            t.parent[1] = VIRTUAL
        arrays = [t.topological_order(), *t.levels(), *t.branches(), *t.edge_schedule()]
        arrays += [ps for _, ps in t.level_pairs()]
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_lists_are_fresh(self):
        t = chain_tree(4)
        t.levels().clear()
        t.level_pairs().clear()
        t.branches().clear()
        assert len(t.levels()) == 3 and len(t.level_pairs()) == 3
        assert len(t.branches()) == 1

    def test_level_pairs_hold_each_levels_parents(self):
        parent = np.array([VIRTUAL, 0, 0, 1, 2, VIRTUAL, 5])
        t = CompressionTree(parent=parent)
        pairs = t.level_pairs()
        assert len(pairs) == len(t.levels())
        for (lv, ps), level in zip(pairs, t.levels(), strict=True):
            assert lv is level
            assert np.array_equal(ps, parent[lv])

    def test_edge_schedule_is_the_root_free_order_and_holds_the_levels(self):
        parent = np.array([VIRTUAL, 0, 0, 1, 2, VIRTUAL, 5])
        t = CompressionTree(parent=parent)
        rows, parents = t.edge_schedule()
        order = t.topological_order()
        assert np.array_equal(rows, order[parent[order] != VIRTUAL])
        assert np.array_equal(parents, parent[rows])
        assert np.array_equal(np.concatenate(t.levels()), rows)
        for lv, ps in t.level_pairs():  # views: the walk and the audit read one array
            assert np.shares_memory(lv, rows) and np.shares_memory(ps, parents)
        assert [len(a) for a in CompressionTree(parent=[VIRTUAL] * 3).edge_schedule()] == [0, 0]

    def test_reweighted_shares_parent_and_schedule(self, monkeypatch):
        t = chain_tree(5)
        t.branches()  # computed lazily, then shared too
        calls = []
        monkeypatch.setattr(
            CompressionTree, "depth", lambda self: calls.append(1) or None
        )
        w = np.arange(5, dtype=np.int64)
        r = t.reweighted(w)
        assert calls == []
        assert r.parent is t.parent
        assert np.array_equal(r.weight, w) and np.all(t.weight == 1)
        assert r.topological_order() is t.topological_order()
        for a, b in zip(r.edge_schedule(), t.edge_schedule(), strict=True):
            assert a is b
        for (a, pa), (b, pb) in zip(r.level_pairs(), t.level_pairs(), strict=True):
            assert a is b and pa is pb
        for a, b in zip(r.branches(), t.branches(), strict=True):
            assert a is b
        assert r.stats() == {**t.stats(), "total_weight": int(w.sum())}


class TestStructure:
    def test_depth_computed_once_per_tree(self, monkeypatch):
        """validate() fills the depth cache that levels() and
        topological_order() read, so building and planning a tree runs
        the relaxation once."""
        calls = []
        depth = CompressionTree.depth
        monkeypatch.setattr(
            CompressionTree, "depth", lambda self: calls.append(1) or depth(self)
        )
        tree = chain_tree(6)
        tree.levels()
        tree.topological_order()
        tree.stats()
        assert len(calls) == 1
        assert np.array_equal(tree.topological_order(), np.arange(6))
        # A reweighted tree (what a streaming patch builds) runs it zero times.
        patched = tree.reweighted(np.full(6, 2, dtype=np.int64))
        patched.levels()
        patched.level_pairs()
        patched.stats()
        assert len(calls) == 1

    def test_depth_chain(self):
        t = chain_tree(5)
        assert np.array_equal(t.depth(), np.arange(5))

    def test_depth_star(self):
        t = star_tree(4)
        assert np.array_equal(t.depth(), np.zeros(4))

    def test_roots(self):
        t = CompressionTree(parent=np.array([VIRTUAL, 0, VIRTUAL, 2]))
        assert np.array_equal(t.roots, [0, 2])

    def test_tree_edges_count(self):
        t = CompressionTree(parent=np.array([VIRTUAL, 0, VIRTUAL, 2]))
        assert t.num_tree_edges == 2

    def test_topological_order_parents_first(self):
        parent = np.array([VIRTUAL, 0, 1, 0, VIRTUAL, 4])
        t = CompressionTree(parent=parent)
        pos = np.empty(t.n, dtype=int)
        pos[t.topological_order()] = np.arange(t.n)
        for x in range(t.n):
            if parent[x] != VIRTUAL:
                assert pos[parent[x]] < pos[x]

    def test_levels_partition_non_roots(self):
        t = chain_tree(6)
        levels = t.levels()
        assert len(levels) == 5
        all_rows = np.concatenate(levels)
        assert sorted(all_rows.tolist()) == list(range(1, 6))

    def test_levels_parents_at_previous_level(self):
        parent = np.array([VIRTUAL, 0, 0, 1, 2, VIRTUAL, 5])
        t = CompressionTree(parent=parent)
        depth = t.depth()
        for k, lv in enumerate(t.levels(), start=1):
            assert np.all(depth[lv] == k)
            assert np.all(depth[parent[lv]] == k - 1)

    def test_branches_are_root_subtrees(self):
        parent = np.array([VIRTUAL, 0, 0, VIRTUAL, 3, 4])
        t = CompressionTree(parent=parent)
        branches = {tuple(sorted(b.tolist())) for b in t.branches()}
        assert branches == {(0, 1, 2), (3, 4, 5)}

    def test_branches_topological_within(self):
        parent = np.array([VIRTUAL, 0, 1, 2, 3])
        t = CompressionTree(parent=parent)
        (b,) = t.branches()
        assert b.tolist() == [0, 1, 2, 3, 4]

    def test_children_counts(self):
        parent = np.array([VIRTUAL, 0, 0, 1])
        t = CompressionTree(parent=parent)
        assert np.array_equal(t.children_counts(), [2, 1, 0, 0])

    def test_total_weight(self):
        t = CompressionTree(parent=np.array([VIRTUAL, 0]), weight=np.array([3, 2]))
        assert t.total_weight() == 5

    def test_stats_keys(self):
        st = chain_tree(4).stats()
        for key in ("rows", "roots", "tree_edges", "max_depth", "branches", "largest_branch"):
            assert key in st
        assert st["roots"] == 1
        assert st["branches"] == 1
        assert st["largest_branch"] == 4
