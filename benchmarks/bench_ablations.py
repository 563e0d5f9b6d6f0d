"""Ablation benchmarks for the design choices called out in DESIGN.md.

* the paper's per-edge update loop, compiled, vs the NumPy level walk
  it falls back to without a compiler;
* the compiled candidate stage vs SciPy's ``A @ Aᵀ`` path it falls back
  to, on COLLAB's DAD matrix at alpha=0 and alpha=4;
* the compiled Chu–Liu/Edmonds rounds vs the NumPy rounds they fall
  back to, on COLLAB's DAD matrix at alpha=4 (what gcn-collab builds);
* deferred vs fused DAD scaling (our reformulation vs the paper's Eq. 6);
* SciPy-backed vs pure-NumPy reference multiplication engine;
* global vs clustered construction (the paper's future-work scaling idea);
* dynamic branch scheduling vs a level-barrier schedule (simulated).
"""

from unittest import mock

import numpy as np
import pytest

from repro.core import distance
from repro.core.arborescence import minimum_arborescence
from repro.core.builder import build_cbm, build_clustered
from repro.core.distance import candidate_edges
from repro.graphs.datasets import load_dataset
from repro.graphs.laplacian import gcn_normalization
from repro.parallel.schedule import simulate_dynamic_schedule, update_stage_schedule
from repro.runtime import native
from repro.runtime.plan import apply_level_schedule
from repro.sparse.ops import Engine
from repro.utils.timing import interleaved_best

from conftest import write_report

P = 256
NAME = "ca-HepPh"


@pytest.fixture(scope="module")
def setup(rng):
    a = load_dataset(NAME)
    cbm, _ = build_cbm(a, alpha=0)
    x = rng.random((a.shape[1], P), dtype=np.float64).astype(np.float32)
    return a, cbm, x


def _update_walks(cbm, x):
    """The update stage alone, both ways, on one multiply-stage output:
    ``plan.apply_update`` (the compiled walk) and ``apply_level_schedule``
    (the NumPy level walk).  Each walk restores its own buffer first, so
    every call walks the same input."""
    plan = cbm.plan()
    c0 = plan.multiply(x)
    scale = plan.row_scale.astype(c0.dtype) if plan.row_scaled else None

    def walk(update):
        c = np.empty_like(c0)

        def run():
            np.copyto(c, c0)
            update(c)
            return c

        return run

    return {
        "compiled": walk(plan.apply_update),
        "numpy": walk(lambda c: apply_level_schedule(c, plan.level_pairs, row_scale=scale)),
    }


@pytest.mark.parametrize("walk", ["compiled", "numpy"])
def test_update_mode(benchmark, setup, walk):
    _, cbm, x = setup
    if walk == "compiled" and cbm.plan().describe()["update"] != "native":
        pytest.skip("no C compiler: the compiled walk is unavailable")
    benchmark(_update_walks(cbm, x)[walk])


def _candidate_stages(alpha):
    """The candidate stage alone, both ways, on COLLAB's DAD matrix:
    ``candidate_edges`` with the compiled library and the SciPy path it
    falls back to.  ``alpha=0`` builds ask for the undirected graph."""
    binary, _ = gcn_normalization(load_dataset("COLLAB"))
    alpha = None if alpha == 0 else alpha
    return {
        "compiled": lambda: candidate_edges(binary, alpha),
        "scipy": lambda: distance._scipy_candidates(binary, alpha),
    }


@pytest.mark.parametrize("stage", ["compiled", "scipy"])
def test_candidate_stage(benchmark, stage):
    if stage == "compiled" and native.load() is None:
        pytest.skip("no C compiler: the compiled candidate stage is unavailable")
    benchmark(_candidate_stages(4)[stage])


def _arborescence_rounds():
    """The alpha > 0 spanning stage alone, both ways, on COLLAB's DAD
    matrix at alpha=4: ``minimum_arborescence`` with the compiled library
    and with the library unavailable, which runs the NumPy rounds."""
    binary, _ = gcn_normalization(load_dataset("COLLAB"))
    g = candidate_edges(binary, 4)

    def numpy_rounds():
        with mock.patch.object(native, "load", lambda: None):
            return minimum_arborescence(g)

    return {"compiled": lambda: minimum_arborescence(g), "numpy": numpy_rounds}


@pytest.mark.parametrize("rounds", ["compiled", "numpy"])
def test_arborescence_rounds(benchmark, rounds):
    if rounds == "compiled" and native.load() is None:
        pytest.skip("no C compiler: the compiled rounds are unavailable")
    benchmark(_arborescence_rounds()[rounds])


@pytest.mark.parametrize("scaling", ["deferred", "fused"])
def test_dad_scaling_mode(benchmark, rng, scaling):
    a = load_dataset(NAME)
    binary, diag = gcn_normalization(a)
    cbm, _ = build_cbm(binary, alpha=0, variant="DAD", diag=diag)
    x = rng.random((a.shape[1], P), dtype=np.float64).astype(np.float32)
    benchmark(lambda: cbm.matmul(x, scaling=scaling))


@pytest.mark.parametrize("engine", [Engine.SCIPY, Engine.REFERENCE])
def test_multiply_engine(benchmark, setup, engine):
    _, cbm, x = setup
    benchmark(lambda: cbm.matmul(x, engine=engine))


@pytest.mark.parametrize("builder", ["global", "clustered"])
def test_construction_strategy(benchmark, builder):
    a = load_dataset(NAME)
    if builder == "global":
        benchmark(lambda: build_cbm(a, alpha=0))
    else:
        benchmark(lambda: build_clustered(a, cluster_size=512))


def test_report_scheduling_ablation(benchmark):
    def run():
        """Dynamic branch schedule vs a level-barrier schedule, 16 threads."""
        from repro.utils.fmt import format_table
    
        rows = []
        for name in ("ca-HepPh", "COLLAB"):
            a = load_dataset(name)
            for alpha in (0, 8, 32):
                cbm, _ = build_cbm(a, alpha=alpha)
                dyn = update_stage_schedule(cbm.tree, P, 16)
                # Level-barrier: each depth level is a synchronised batch whose
                # span is ceil(level_size / threads) row updates.
                levels = cbm.tree.levels()
                barrier = sum(
                    simulate_dynamic_schedule(np.full(len(lv), float(P)), 16).makespan
                    for lv in levels
                )
                rows.append(
                    [
                        name,
                        alpha,
                        f"{dyn.makespan:.0f}",
                        f"{barrier:.0f}",
                        f"{barrier / dyn.makespan:.2f}x" if dyn.makespan else "-",
                        dyn.tasks,
                        len(levels),
                    ]
                )
        text = format_table(
            ["Graph", "Alpha", "DynamicMakespan", "BarrierMakespan", "BarrierCost", "Branches", "Levels"],
            rows,
            title="Ablation — branch-dynamic vs level-barrier update scheduling (16 threads, ops)",
        )
        write_report("ablation_scheduling", text)

    benchmark.pedantic(run, rounds=1, iterations=1)

def test_report_clustered_ablation(benchmark):
    def run():
        """Compression quality vs cluster size (future-work construction)."""
        from repro.utils.fmt import format_table
    
        a = load_dataset("COLLAB")
        rows = []
        _, rep = build_cbm(a, alpha=0)
        rows.append(["global", f"{rep.compression_ratio:.2f}", rep.roots, rep.candidate_edges])
        for size in (256, 1024, 4096):
            _, rep = build_clustered(a, cluster_size=size)
            rows.append([f"clustered[{size}]", f"{rep.compression_ratio:.2f}", rep.roots, rep.candidate_edges])
        text = format_table(
            ["Builder", "Ratio", "Roots", "CandidateEdges"],
            rows,
            title="Ablation — global vs clustered construction (COLLAB stand-in)",
        )
        write_report("ablation_clustered", text)

    benchmark.pedantic(run, rounds=1, iterations=1)


def test_report_rebalance_ablation(benchmark):
    def run():
        """Post-hoc rebalancing: compression vs schedule makespan.

        Uses a blow-up graph whose near-identical rows chain into a few
        giant branches — the worst case for branch-level parallelism and
        the input where post-hoc splitting matters.
        """
        import numpy as np

        from repro.core.rebalance import split_branches
        from repro.parallel.schedule import update_stage_schedule
        from repro.sparse.csr import CSRMatrix
        from repro.utils.fmt import format_table

        # Cumulative-membership matrix: row i = columns {0..i}.  Each row
        # extends the previous by one delta, so the compression tree is a
        # single n-row chain — maximum compression, zero branch
        # parallelism: the input split_branches exists for.
        n = 1200
        indptr = np.cumsum(np.concatenate([[0], np.arange(1, n + 1)]))
        indices = np.concatenate([np.arange(i + 1) for i in range(n)])
        a = CSRMatrix(indptr, indices, np.ones(len(indices), dtype=np.float32), (n, n))
        cbm, _ = build_cbm(a, alpha=0)
        rows = []
        for cap in (None, 512, 128, 32):
            m = cbm if cap is None else split_branches(cbm, cap)
            sched = update_stage_schedule(m.tree, P, 16)
            rows.append(
                [
                    "none" if cap is None else cap,
                    f"{m.compression_ratio():.2f}",
                    len(m.tree.branches()),
                    max(len(b) for b in m.tree.branches()),
                    f"{sched.makespan:.0f}",
                    f"{sched.utilisation:.2f}",
                ]
            )
        text = format_table(
            ["BranchCap", "Ratio", "Branches", "Largest", "Makespan[ops]", "Util"],
            rows,
            title="Ablation — post-hoc branch splitting (chain tree, 16 threads)",
        )
        write_report("ablation_rebalance", text)

    benchmark.pedantic(run, rounds=1, iterations=1)

@pytest.mark.parametrize("panel", [64, 256])
def test_blocked_cbm_kernel(benchmark, setup, panel):
    from repro.sparse.blocked import cbm_matmul_blocked

    _, cbm, x = setup
    benchmark(lambda: cbm_matmul_blocked(cbm, x, panel=panel))


def test_matvec_kernel(benchmark, setup, rng):
    """The paper's Section IV matrix-vector kernel in its native 1-D shape."""
    a, cbm, _ = setup
    v = rng.random(a.shape[1], dtype=np.float64).astype(np.float32)
    benchmark(lambda: cbm.matvec(v))


def test_csr_matvec_baseline(benchmark, setup, rng):
    from repro.sparse.ops import spmv

    a, _, _ = setup
    v = rng.random(a.shape[1], dtype=np.float64).astype(np.float32)
    benchmark(lambda: spmv(a, v))


@pytest.mark.parametrize("clustering", ["signature", "label_propagation"])
def test_clustering_strategy(benchmark, clustering):
    a = load_dataset("ca-HepPh")
    benchmark.pedantic(
        lambda: build_clustered(a, cluster_size=512, clustering=clustering),
        rounds=2,
        iterations=1,
    )

def test_report_scaling_curves(benchmark):
    def run():
        """Full strong-scaling curves from the model (paper has endpoints only)."""
        from repro.graphs.datasets import paper_stats
        from repro.parallel.scaling import parallel_efficiency, strong_scaling_curve
        from repro.utils.fmt import format_table

        rows = []
        for name in ("ca-HepPh", "COLLAB"):
            a = load_dataset(name)
            ps = paper_stats(name)
            cbm, _ = build_cbm(a, alpha=4)
            curve = strong_scaling_curve(
                a, cbm, 500,
                scale_nnz=ps.edges / a.nnz,
                scale_rows=ps.nodes / a.shape[0],
            )
            eff = parallel_efficiency(curve)
            for pt, ec, eb in zip(curve, eff["csr"], eff["cbm"], strict=True):
                rows.append(
                    [
                        name,
                        pt.cores,
                        f"{pt.csr_s * 1e3:.2f}",
                        f"{pt.cbm_s * 1e3:.2f}",
                        f"{pt.speedup:.2f}",
                        f"{ec:.2f}",
                        f"{eb:.2f}",
                    ]
                )
        text = format_table(
            ["Graph", "Cores", "CSR[ms]", "CBM[ms]", "Speedup", "EffCSR", "EffCBM"],
            rows,
            title="Strong scaling (model, paper-scale graphs)",
        )
        write_report("scaling_curves", text)

    benchmark.pedantic(run, rounds=1, iterations=1)


def _smoke() -> None:
    a = load_dataset("Cora")
    cbm, _ = build_cbm(a, alpha=0)
    x = np.random.default_rng(0).random((a.shape[1], 8)).astype(np.float32)
    walks = _update_walks(cbm, x)
    best = interleaved_best(walks)
    assert walks["compiled"]().tobytes() == walks["numpy"]().tobytes()
    print(
        f"update stage ({cbm.plan().describe()['update']}): "
        f"compiled {1e3 * best['compiled']:.3f} ms, numpy {1e3 * best['numpy']:.3f} ms"
    )
    if native.load() is None:
        print("candidate stage and arborescence rounds: no C compiler, races skipped")
    else:
        for alpha in (0, 4):
            stages = _candidate_stages(alpha)
            best = interleaved_best(stages)
            compiled, scipy_graph = stages["compiled"](), stages["scipy"]()
            for array in ("src", "dst", "weight", "row_nnz"):
                assert getattr(compiled, array).tobytes() == getattr(scipy_graph, array).tobytes()
            print(
                f"candidate stage (COLLAB DAD alpha={alpha}, {compiled.num_edges} edges): "
                f"compiled {1e3 * best['compiled']:.1f} ms, scipy {1e3 * best['scipy']:.1f} ms"
            )
        rounds = _arborescence_rounds()
        best = interleaved_best(rounds)
        compiled, numpy_tree = rounds["compiled"](), rounds["numpy"]()
        assert compiled.parent.tobytes() == numpy_tree.parent.tobytes()
        assert compiled.weight.tobytes() == numpy_tree.weight.tobytes()
        print(
            f"arborescence rounds (COLLAB DAD alpha=4): "
            f"compiled {1e3 * best['compiled']:.1f} ms, numpy {1e3 * best['numpy']:.1f} ms"
        )
    for engine in (Engine.SCIPY,):
        cbm.matmul(x, engine=engine)
    update_stage_schedule(cbm.tree, 8, 4)
    simulate_dynamic_schedule(np.ones(16), 4)


if __name__ == "__main__":
    from conftest import run_smoke_cli

    raise SystemExit(run_smoke_cli("ablation benchmarks", _smoke))
