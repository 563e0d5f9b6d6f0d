"""Unit tests for the parallel substrate: machine model, cache model,
scheduler simulation, threaded executor, and kernel predictions."""

import numpy as np
import pytest

from repro.core.builder import build_cbm
from repro.core.cbm import Variant
from repro.core.tree import VIRTUAL, CompressionTree
from repro.errors import ParallelError
from repro.parallel.cache import CacheModel, WorkingSet
from repro.parallel.executor import ThreadedUpdateExecutor
from repro.parallel.machine import XEON_GOLD_6130, CacheLevel, MachineSpec
from repro.parallel.schedule import (
    branch_costs,
    simulate_dynamic_schedule,
    update_stage_schedule,
)
from repro.parallel.simulate import predict_cbm_spmm, predict_csr_spmm

from tests.conftest import random_adjacency_csr


class TestMachineSpec:
    def test_paper_testbed_constants(self):
        m = XEON_GOLD_6130
        assert m.cores == 16
        assert m.clock_hz == 2.1e9
        assert m.shared_cache_bytes() == 22 * 1024 * 1024
        assert m.private_cache_bytes(1) == (32 + 1024) * 1024

    def test_private_cache_scales_with_cores(self):
        m = XEON_GOLD_6130
        assert m.private_cache_bytes(16) == 16 * m.private_cache_bytes(1)

    def test_cores_used_bounds(self):
        with pytest.raises(ValueError):
            XEON_GOLD_6130.private_cache_bytes(0)
        with pytest.raises(ValueError):
            XEON_GOLD_6130.private_cache_bytes(17)

    def test_bandwidth_tiers_ordered(self):
        """Smaller working sets see no less bandwidth than larger ones."""
        m = XEON_GOLD_6130
        small = m.effective_bandwidth(16 * 1024, 1)
        medium = m.effective_bandwidth(10 * 2**20, 1)
        large = m.effective_bandwidth(2**30, 1)
        assert small >= medium >= large

    def test_dram_bandwidth_grows_sublinearly(self):
        m = XEON_GOLD_6130
        one = m.effective_bandwidth(2**30, 1)
        sixteen = m.effective_bandwidth(2**30, 16)
        assert one < sixteen <= m.dram_bandwidth_bytes_per_s

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            MachineSpec(name="bad", cores=0, clock_hz=1e9, flops_per_cycle=1)
        with pytest.raises(ValueError):
            CacheLevel("L1", -5, False, 1e9)


class TestCacheModel:
    def test_resident_tiers(self):
        cm = CacheModel(XEON_GOLD_6130)
        assert cm.resident_tier(WorkingSet(16 * 1024, 0), 1) == "private"
        assert cm.resident_tier(WorkingSet(10 * 2**20, 0), 1) == "shared"
        assert cm.resident_tier(WorkingSet(2**30, 0), 1) == "dram"

    def test_tier_improves_with_cores(self):
        """The paper's mid-size-graph effect: a 3 MiB structure is private
        across 16 cores but not on one."""
        cm = CacheModel(XEON_GOLD_6130)
        ws = WorkingSet(3 * 2**20, 0)
        assert cm.resident_tier(ws, 1) == "shared"
        assert cm.resident_tier(ws, 16) == "private"

    def test_traffic_and_time(self):
        cm = CacheModel(XEON_GOLD_6130)
        ws = WorkingSet(1000, 2000)
        assert cm.traffic_bytes(ws, passes=2.0) == 2 * 3000
        assert cm.bandwidth_time(ws, 1) > 0

    def test_negative_ws_rejected(self):
        with pytest.raises(ValueError):
            WorkingSet(-1, 0)


class TestScheduler:
    def test_single_thread_is_total_work(self):
        r = simulate_dynamic_schedule(np.array([3.0, 1.0, 2.0]), 1)
        assert r.makespan == 6.0
        assert r.speedup == 1.0

    def test_perfect_balance(self):
        r = simulate_dynamic_schedule(np.ones(8), 4)
        assert r.makespan == 2.0
        assert r.utilisation == 1.0

    def test_critical_task_bounds_makespan(self):
        r = simulate_dynamic_schedule(np.array([10.0, 1.0, 1.0]), 4)
        assert r.makespan == 10.0
        assert r.critical_path == 10.0

    def test_greedy_two_approximation(self):
        rng = np.random.default_rng(0)
        costs = rng.random(50) * 10
        r = simulate_dynamic_schedule(costs, 8)
        lower = max(costs.max(), costs.sum() / 8)
        assert lower <= r.makespan <= 2 * lower

    def test_empty_tasks(self):
        r = simulate_dynamic_schedule(np.array([]), 4)
        assert r.makespan == 0.0

    def test_negative_cost_rejected(self):
        with pytest.raises(ParallelError):
            simulate_dynamic_schedule(np.array([-1.0]), 2)

    def test_branch_costs_exclude_roots(self):
        tree = CompressionTree(parent=np.array([VIRTUAL, 0, 1, VIRTUAL]))
        costs = branch_costs(tree, p=10)
        assert sorted(costs.tolist()) == [0.0, 20.0]

    def test_dad_costs_triple(self):
        tree = CompressionTree(parent=np.array([VIRTUAL, 0]))
        assert branch_costs(tree, 10, dad=True)[0] == 3 * branch_costs(tree, 10)[0]

    def test_more_threads_never_slower(self):
        a = random_adjacency_csr(60, density=0.3, seed=1)
        cbm, _ = build_cbm(a, alpha=0)
        m1 = update_stage_schedule(cbm.tree, 100, 1).makespan
        m4 = update_stage_schedule(cbm.tree, 100, 4).makespan
        m16 = update_stage_schedule(cbm.tree, 100, 16).makespan
        assert m1 >= m4 >= m16


def replayed_product(cbm, x, threads):
    """``plan.multiply`` then the branch replay: what the benchmark probe
    times against the plan's own update stage."""
    plan = cbm.plan()
    c = plan.multiply(x)
    diag = cbm.diag if cbm.variant is Variant.DAD else None
    ThreadedUpdateExecutor(threads).run_update(cbm.tree, c, diag, branches=plan.branches)
    return c


class TestThreadedExecutor:
    @pytest.mark.parametrize("threads", [1, 2, 8])
    def test_matches_sequential(self, threads):
        a = random_adjacency_csr(50, density=0.3, seed=2)
        cbm, _ = build_cbm(a, alpha=0)
        x = np.random.default_rng(0).random((50, 7)).astype(np.float32)
        out = replayed_product(cbm, x, threads)
        np.testing.assert_allclose(out, cbm.plan().execute(x), rtol=1e-5, atol=1e-6)
        assert np.allclose(out, a.toarray() @ x, rtol=1e-4)

    def test_dad_variant(self):
        rng = np.random.default_rng(1)
        a = random_adjacency_csr(40, density=0.3, seed=3)
        d = rng.random(40) + 0.5
        cbm, _ = build_cbm(a, alpha=2, variant="DAD", diag=d)
        x = rng.random((40, 5)).astype(np.float32)
        out = replayed_product(cbm, x, 4)
        np.testing.assert_allclose(out, cbm.plan().execute(x), rtol=1e-5, atol=1e-6)
        ref = (d[:, None] * a.toarray() * d) @ x
        assert np.allclose(out, ref, rtol=1e-4)

    def test_invalid_thread_count(self):
        with pytest.raises(ValueError):
            ThreadedUpdateExecutor(0)

    def test_empty_tree_noop(self):
        tree = CompressionTree(parent=np.array([], dtype=np.int64))
        c = np.zeros((0, 3), dtype=np.float32)
        ThreadedUpdateExecutor(2).run_update(tree, c)


class TestPredictions:
    def test_positive_times(self):
        a = random_adjacency_csr(50, density=0.3, seed=4)
        cbm, _ = build_cbm(a, alpha=0)
        for cores in (1, 16):
            assert predict_csr_spmm(a, 100, cores=cores).total_s > 0
            assert predict_cbm_spmm(cbm, 100, cores=cores).total_s > 0

    def test_more_cores_never_slower(self):
        a = random_adjacency_csr(50, density=0.3, seed=5)
        cbm, _ = build_cbm(a, alpha=0)
        assert (
            predict_csr_spmm(a, 100, cores=16).total_s
            <= predict_csr_spmm(a, 100, cores=1).total_s
        )
        assert (
            predict_cbm_spmm(cbm, 100, cores=16).total_s
            <= predict_cbm_spmm(cbm, 100, cores=1).total_s
        )

    def test_scale_increases_time(self):
        a = random_adjacency_csr(50, density=0.3, seed=6)
        base = predict_csr_spmm(a, 100, cores=1).total_s
        scaled = predict_csr_spmm(a, 100, cores=1, scale_nnz=40.0, scale_rows=40.0).total_s
        assert scaled > base

    def test_compressible_graph_predicted_faster(self, clustered_adjacency):
        cbm, rep = build_cbm(clustered_adjacency, alpha=0)
        assert rep.compression_ratio > 2
        csr_t = predict_csr_spmm(clustered_adjacency, 500, cores=1, scale_nnz=1e4, scale_rows=1e3).total_s
        cbm_t = predict_cbm_spmm(cbm, 500, cores=1, scale_nnz=1e4, scale_rows=1e3).total_s
        assert cbm_t < csr_t

    def test_invalid_args(self):
        a = random_adjacency_csr(10, seed=7)
        with pytest.raises(ValueError):
            predict_csr_spmm(a, 0)
        with pytest.raises(ValueError):
            predict_csr_spmm(a, 10, cores=0)
        with pytest.raises(ValueError):
            predict_csr_spmm(a, 10, scale_nnz=0.0)
