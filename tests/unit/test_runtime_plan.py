"""Plan-cache correctness: the repro.runtime plan/execute split.

The planned path must be bit-compatible with the per-call reference path
(``matmul_unplanned`` / ``matvec_unplanned``) across every variant,
update walk (compiled per-edge or NumPy level), scaling mode, and
engine; plans must invalidate when the owning matrix changes; and one
plan must be shareable across threads.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.builder import build_cbm
from repro.core.tree import VIRTUAL, CompressionTree
from repro.errors import ShapeError
from repro.parallel.cache import plan_working_set
from repro.parallel.executor import ThreadedUpdateExecutor
from repro.parallel.schedule import plan_update_schedule
from repro.runtime import KernelPlan, WorkspacePool, native
from repro.runtime.plan import apply_level_schedule
from repro.sparse.ops import Engine

from tests.conftest import pin_update_path, random_adjacency_csr

N = 40


def _diag(n, seed=3):
    return (np.random.default_rng(seed).random(n) + 0.5).astype(np.float64)


def _make_cbm(variant: str, *, n: int = N, alpha: int = 2, seed: int = 1):
    a = random_adjacency_csr(n, density=0.25, seed=seed)
    diag = None if variant == "A" else _diag(n)
    diag_left = _diag(n, seed=5) if variant == "D1AD2" else None
    cbm, _ = build_cbm(a, alpha=alpha, variant=variant, diag=diag, diag_left=diag_left)
    return cbm


def _operand(n, p=7, seed=2):
    return np.random.default_rng(seed).random((n, p)).astype(np.float32)


VARIANTS = ("A", "AD", "DAD", "D1AD2")


class TestPlannedMatchesUnplanned:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("update", ["level", "edge"])
    @pytest.mark.parametrize("scaling", ["deferred", "fused"])
    def test_matmul_equality(self, monkeypatch, variant, update, scaling):
        pin_update_path(monkeypatch, update)
        cbm = _make_cbm(variant)
        x = _operand(N)
        planned = cbm.matmul(x, scaling=scaling)
        reference = cbm.matmul_unplanned(x, scaling=scaling)
        np.testing.assert_allclose(planned, reference, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matvec_equality(self, variant):
        cbm = _make_cbm(variant)
        v = _operand(N, p=1).ravel()
        np.testing.assert_allclose(
            cbm.matvec(v), cbm.matvec_unplanned(v), rtol=1e-5, atol=1e-6
        )

    @pytest.mark.parametrize("engine", list(Engine))
    def test_engines_agree(self, engine):
        cbm = _make_cbm("DAD")
        x = _operand(N)
        np.testing.assert_allclose(
            cbm.matmul(x, engine=engine),
            cbm.matmul_unplanned(x, engine=engine),
            rtol=1e-5,
            atol=1e-6,
        )

    def test_repeated_executions_stay_correct(self):
        """The plan's schedule is reused, never consumed."""
        cbm = _make_cbm("DAD")
        x = _operand(N)
        expected = cbm.matmul_unplanned(x)
        for _ in range(4):
            np.testing.assert_allclose(cbm.matmul(x), expected, rtol=1e-5, atol=1e-6)
        assert cbm.plan().stats.executions >= 4


def _deep_tree(n=300, chain=12, seed=4):
    """Random forest over ``n`` rows with a ``chain``-edge path from row 0,
    so it has at least ``chain`` levels; elsewhere each row picks a random
    earlier row as parent (or none), so parents repeat inside a level."""
    rng = np.random.default_rng(seed)
    parent = np.full(n, VIRTUAL, dtype=np.int64)
    parent[1 : chain + 1] = np.arange(chain)
    for x in range(chain + 1, n):
        if rng.random() < 0.9:
            parent[x] = rng.integers(0, x)
    return CompressionTree(parent=parent)


class TestLevelWalk:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cols", [None, 5], ids=["1d", "2d"])
    def test_level_walk_bitwise_equals_edge_loop(self, dtype, cols):
        tree = _deep_tree()
        assert len(tree.levels()) >= 10
        shape = (tree.n,) if cols is None else (tree.n, cols)
        c0 = np.random.default_rng(0).standard_normal(shape).astype(dtype)
        walked = c0.copy()
        apply_level_schedule(walked, tree.level_pairs())
        edge = c0.copy()
        for x in tree.topological_order():
            if tree.parent[x] != VIRTUAL:
                edge[x] += edge[tree.parent[x]]
        assert np.array_equal(walked, edge)
        walk = native.walker(tree)
        if walk is not None:
            compiled = c0.copy()
            assert walk(compiled)
            assert compiled.tobytes() == edge.tobytes()


class TestPlanCache:
    def test_plan_is_cached_per_config(self):
        cbm = _make_cbm("A")
        assert cbm.plan() is cbm.plan()
        assert cbm.plan(scaling="fused") is not cbm.plan()

    def test_matmul_populates_the_cache(self):
        cbm = _make_cbm("A")
        cbm.matmul(_operand(N))
        assert cbm.plan().stats.executions == 1

    def test_invalidate_rebuilds(self):
        cbm = _make_cbm("AD")
        before = cbm.plan()
        cbm.invalidate()
        after = cbm.plan()
        assert after is not before
        assert not before.matches(cbm)

    def test_invalidate_after_diag_mutation_restores_correctness(self):
        """In-place diag edits are invisible to the fingerprint; after
        ``invalidate()`` the planned result must track the new diagonal."""
        cbm = _make_cbm("DAD")
        x = _operand(N)
        cbm.matmul(x)  # build + cache a plan for the old diagonal
        cbm.diag *= 2.0
        cbm.invalidate()
        np.testing.assert_allclose(
            cbm.matmul(x), cbm.matmul_unplanned(x), rtol=1e-5, atol=1e-6
        )

    def test_object_swap_detected_without_invalidate(self):
        """Replacing the tree/delta objects flips the identity fingerprint."""
        cbm = _make_cbm("A")
        stale = cbm.plan()
        other = _make_cbm("A", seed=9)
        cbm.tree = other.tree
        cbm.delta = other.delta
        assert not stale.matches(cbm)
        x = _operand(N)
        np.testing.assert_allclose(
            cbm.matmul(x), cbm.matmul_unplanned(x), rtol=1e-5, atol=1e-6
        )

    def test_invalid_modes_rejected(self):
        cbm = _make_cbm("A")
        with pytest.raises(ValueError):
            KernelPlan(cbm, scaling="sideways")


class TestOutBuffer:
    def test_result_lands_in_out(self):
        cbm = _make_cbm("DAD")
        x = _operand(N)
        out = np.empty((N, x.shape[1]), dtype=np.float32)
        got = cbm.matmul(x, out=out)
        assert got is out
        np.testing.assert_allclose(out, cbm.matmul_unplanned(x), rtol=1e-5, atol=1e-6)

    def test_aliasing_rejected(self):
        cbm = _make_cbm("A")
        x = _operand(N)
        with pytest.raises(ValueError, match="alias"):
            cbm.plan().multiply(x, out=x)

    def test_wrong_shape_rejected(self):
        cbm = _make_cbm("A")
        with pytest.raises(ShapeError):
            cbm.plan().multiply(_operand(N), out=np.empty((N, 99), dtype=np.float32))

    def test_pooled_buffer_roundtrip(self):
        plan = _make_cbm("A").plan()
        buf = plan.out_buffer(7)
        assert buf.shape == (N, 7) and buf.dtype == np.float32
        plan.release(buf)
        assert plan.out_buffer(7) is buf  # free list hit


class TestWorkspacePool:
    def test_acquire_release_reuses(self):
        pool = WorkspacePool()
        a = pool.acquire((8, 4))
        pool.release(a)
        assert pool.acquire((8, 4)) is a
        assert pool.stats.hits == 1 and pool.stats.acquires == 2

    def test_distinct_keys_do_not_mix(self):
        pool = WorkspacePool()
        a = pool.acquire((8, 4), np.float32)
        pool.release(a)
        b = pool.acquire((8, 4), np.float64)
        assert b is not a and b.dtype == np.float64

    def test_capacity_cap(self):
        pool = WorkspacePool(max_per_key=1)
        a, b = pool.acquire((4, 4)), pool.acquire((4, 4))
        pool.release(a)
        pool.release(b)  # over capacity: dropped
        assert pool.idle_bytes() == a.nbytes
        pool.clear()
        assert pool.idle_bytes() == 0

    def test_thread_safety(self):
        pool = WorkspacePool(max_per_key=8)
        errors: list[BaseException] = []

        def hammer():
            try:
                for _ in range(200):
                    arr = pool.acquire((16, 3))
                    arr.fill(1.0)
                    pool.release(arr)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        workers = [threading.Thread(target=hammer) for _ in range(4)]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        assert not errors
        assert pool.stats.acquires == 800 and pool.stats.releases == 800


class TestSharedPlanThreadSafety:
    @pytest.mark.parametrize("variant", ["A", "DAD"])
    def test_concurrent_execute(self, variant):
        """One plan, many threads, distinct operands — all results exact."""
        cbm = _make_cbm(variant)
        plan = cbm.plan()
        inputs = [_operand(N, seed=s) for s in range(8)]
        expected = [cbm.matmul_unplanned(x) for x in inputs]
        results: list = [None] * len(inputs)
        errors: list[BaseException] = []

        def run(i):
            try:
                results[i] = plan.execute(inputs[i])
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        workers = [threading.Thread(target=run, args=(i,)) for i in range(len(inputs))]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        assert not errors
        for got, want in zip(results, expected, strict=True):
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)

    def test_branch_parallel_executor_shares_plan(self):
        cbm = _make_cbm("DAD")
        plan = cbm.plan()
        x = _operand(N)
        got = plan.multiply(x)
        ThreadedUpdateExecutor(4).run_update(cbm.tree, got, cbm.diag, branches=plan.branches)
        np.testing.assert_allclose(got, plan.execute(x), rtol=1e-5, atol=1e-6)

    def test_executor_accepts_plan_branches(self):
        cbm = _make_cbm("A")
        plan = cbm.plan()
        x = _operand(N)
        c = plan.multiply(x)
        ThreadedUpdateExecutor(3).run_update(cbm.tree, c, branches=plan.branches)
        np.testing.assert_allclose(c, cbm.matmul_unplanned(x), rtol=1e-5, atol=1e-6)


class TestPlanIntrospection:
    def test_describe_and_schedule(self):
        plan = _make_cbm("DAD").plan()
        desc = plan.describe()
        assert desc["variant"] == "DAD" and desc["levels"] == plan.levels
        sched = plan_update_schedule(plan, p=16, threads=4)
        assert sched.speedup >= 1.0
        ws = plan_working_set(plan, p=16)
        assert ws.sparse_bytes > 0 and ws.dense_bytes > 0
