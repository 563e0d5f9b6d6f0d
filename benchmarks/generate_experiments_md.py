"""Regenerate EXPERIMENTS.md from live runs of every experiment runner.

Run:  python benchmarks/generate_experiments_md.py
(takes a few minutes; wall-clock columns are measured on this machine).

``--from-results`` instead assembles the document from the tables already
rendered under ``benchmarks/results/`` (by the ``bench_*`` modules or a
previous live run).  Missing tables are skipped with a note rather than
failing, so the script works on a fresh clone or a partial CI run.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import platform
import textwrap
import time

from repro.bench.experiments import (
    run_figure2,
    run_table1,
    run_table2,
    run_table3,
    run_table4,
    run_table5,
    run_training_table,
)

HEADER = """# EXPERIMENTS — paper vs this reproduction

Every table and figure of the paper's evaluation (Section VI), regenerated
by this repository.  Columns marked *(paper)* are the published values;
the rest are measured/modelled here.  See DESIGN.md for the substitutions
(synthetic stand-in graphs, machine-model 16-core numbers) and why they
preserve the comparisons.

How to regenerate: `python benchmarks/generate_experiments_md.py`, or run
the individual `benchmarks/bench_*.py` files under
`pytest --benchmark-only` (tables land in `benchmarks/results/`).

Reading guide:

* **WallSeq** — measured wall-clock speedup on a 2-core VM (CSR time /
  CBM time), both formats driven by the same compiled SciPy backend; the
  sparse kernels run on one thread.
* **ModelSeq / ModelPar16** — the calibrated Xeon-6130 machine model's
  1-core / 16-core speedup prediction with the stand-in extrapolated to
  the paper graph's size (the VM has two cores, so 16-thread
  wall-clock is physically unavailable).
* **OpsRatio** — exact scalar-operation ratio (the quantity Properties
  1–2 bound).

"""


# (report name under benchmarks/results/, section heading) in paper order.
RESULT_SECTIONS = (
    ("table1_datasets", "Table I — datasets"),
    ("table2_compression", "Table II — compression time and ratio"),
    ("figure2_alpha_sweep", "Figure 2 — alpha sweep (AX)"),
    ("table3_variants", "Table III — AX / ADX / DADX"),
    ("table4_gcn", "Table IV — two-layer GCN inference"),
    ("table5_clustering", "Table V — clustering coefficient vs compression"),
    ("training_extension", "Extension — GCN training step (paper future work)"),
    ("staf_comparison", "Extension — related-work comparators (Section VII)"),
    ("sensitivity", "Extension — sensitivity sweeps"),
    ("runtime_plan", "Extension — plan/execute runtime amortisation"),
)


def main_from_results() -> None:
    """Assemble EXPERIMENTS.md from pre-rendered benchmarks/results/ tables.

    Tolerates missing files: each absent table becomes a one-line note
    naming the ``bench_*`` run that would produce it, so a fresh clone
    (or a CI runner that only executed a subset) still gets a document.
    """
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
    from conftest import read_report

    sections = [HEADER]
    sections.append(f"Environment: Python {platform.python_version()}, "
                    f"{platform.machine()} (assembled from benchmarks/results/).\n")
    present = missing = 0
    for name, title in RESULT_SECTIONS:
        text = read_report(name)
        if text is None:
            missing += 1
            sections.append(
                f"## {title}\n\n*(no `benchmarks/results/{name}.txt` yet — run the "
                "matching `bench_*` module under pytest or with no flags to "
                "generate it; skipped)*\n"
            )
            continue
        present += 1
        sections.append(f"## {title}\n\n```\n" + text.rstrip("\n") + "\n```\n")
    sections.append(
        f"---\nAssembled from {present} result file(s) "
        f"({missing} missing, skipped) by benchmarks/generate_experiments_md.py "
        "--from-results.\n"
    )
    out = pathlib.Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"
    out.write_text("\n".join(sections))
    print(f"wrote {out} ({present} tables, {missing} skipped)")


def table2_section(rows: list[dict], table: str) -> str:
    """Table II and its shape check, every figure read off ``rows``."""
    by_graph: dict[str, dict[int, dict]] = {}
    for row in rows:
        by_graph.setdefault(row["Graph"], {})[row["Alpha"]] = row
    times = {
        graph: float(r[32]["Time[s]"]) / float(r[0]["Time[s]"]) for graph, r in by_graph.items()
    }
    rising = [
        graph for graph, r in by_graph.items() if float(r[32]["Ratio"]) > float(r[0]["Ratio"])
    ]
    slower = [graph for graph, ratio in times.items() if ratio >= 1]
    notes = (
        "Shape check vs paper: compression ratios fall from alpha=0 to 32 on "
        + (f"every graph but {', '.join(rising)}" if rising else "every graph")
        + "; the citation graphs compress least and COLLAB and the co-papers "
        "graphs most.  Build time at alpha=32 over alpha=0: "
        + ", ".join(f"{graph} {ratio:.2f}x" for graph, ratio in times.items())
        + ".  The pruned build is the faster one on "
        + (f"every graph but {', '.join(slower)}" if slower else "every graph")
        + ".  Both builds share the A·Aᵀ candidate product, and both spanning "
        "stages run compiled: Kruskal on SciPy's csgraph routines at alpha=0, "
        "the Chu-Liu/Edmonds contraction rounds in C at alpha=32."
    )
    return (
        "## Table II — compression time and ratio\n\n```\n"
        + table
        + "\n```\n\n"
        + textwrap.fill(notes, width=72, break_on_hyphens=False)
        + "\n"
    )


def main() -> None:
    t0 = time.time()
    sections = [HEADER]
    sections.append(f"Environment: Python {platform.python_version()}, "
                    f"{platform.machine()}, {os.cpu_count()} cores.\n")

    print("running table 1 ...")
    _, t1 = run_table1()
    sections.append("## Table I — datasets\n\n```\n" + t1 + "\n```\n")
    sections.append(
        "The stand-ins match the paper's average degree and clustering per\n"
        "family; node counts are scaled down (DESIGN.md).  ogbn-proteins is\n"
        "deliberately scaled deeper (deg ~110 vs 298) to stay in budget.\n"
    )

    print("running table 2 ...")
    sections.append(table2_section(*run_table2()))

    print("running figure 2 (wall-clock measured) ...")
    rows_f2, f2 = run_figure2(measure_wall=True)
    sections.append("## Figure 2 — alpha sweep (AX)\n\n```\n" + f2 + "\n```\n")

    # Two representative panels drawn as ASCII charts (paper Fig. 2 shape).
    from repro.bench.plots import figure2_panel

    panels = []
    for graph in ("ca-HepPh", "COLLAB"):
        sub = [r for r in rows_f2 if r["Graph"] == graph]
        panels.append(
            figure2_panel(
                [r["Alpha"] for r in sub],
                [float(r["ModelSeq"]) for r in sub],
                [float(r["ModelPar16"]) for r in sub],
                [float(r["Ratio"]) for r in sub],
                graph=graph,
            )
        )
    sections.append("```\n" + "\n\n".join(panels) + "\n```\n")
    sections.append(
        "Shape check vs paper: speedup tracks compression ratio; the\n"
        "citation graphs hover at ~1x and recover slightly with alpha>=2; the\n"
        "clique families hold 2-7x over the sweep; 16-core parallel speedup\n"
        "peaks at moderate-to-large alpha for COLLAB/co-papers while their\n"
        "compression ratio falls.\n"
    )

    print("running table 3 (wall-clock measured) ...")
    _, t3 = run_table3(measure_wall=True)
    sections.append("## Table III — AX / ADX / DADX\n\n```\n" + t3 + "\n```\n")
    sections.append(
        "Shape check vs paper: ADX and DADX cost the same as AX to within\n"
        "noise for both formats (identical delta sparsity; fused/deferred\n"
        "scaling is cheap), so the AX speedups carry over.\n"
    )

    print("running table 4 (wall-clock measured) ...")
    _, t4 = run_table4(measure_wall=True)
    sections.append("## Table IV — two-layer GCN inference\n\n```\n" + t4 + "\n```\n")
    sections.append(
        "Shape check vs paper: GCN speedups are diluted relative to raw\n"
        "DADX speedups because the two dense GEMMs are format-independent;\n"
        "citation graphs stay at ~1x, the clique families keep 1.4-2.5x.\n"
    )

    print("running table 5 ...")
    _, t5 = run_table5()
    sections.append("## Table V — clustering coefficient vs compression\n\n```\n" + t5 + "\n```\n")
    sections.append(
        "Shape check vs paper: sorting by compression ratio reproduces the\n"
        "paper's ordering (citation < co-author/PPI < co-papers/COLLAB) and\n"
        "the same caveats — PubMed's degree, not clustering, limits it, and\n"
        "ogbn-proteins out-compresses ca-AstroPh despite lower clustering.\n"
    )

    print("running training extension ...")
    _, tt = run_training_table()
    sections.append(
        "## Extension — GCN training step (paper future work)\n\n```\n" + tt + "\n```\n"
    )
    sections.append(
        "Forward + manual backward both multiply with the symmetric Â, so one\n"
        "CBM matrix accelerates the whole step; speedups exceed inference\n"
        "(Table IV) because no W GEMMs of the paper's 500-wide layers dilute\n"
        "them at this feature width.\n"
    )

    print("running related-work comparison ...")
    from repro.core.builder import build_cbm
    from repro.core.bl2001 import build_bl2001
    from repro.staf import build_staf
    from repro.graphs.datasets import load_dataset
    from repro.utils.fmt import format_table

    rw_rows = []
    for name in ("Cora", "ca-HepPh", "COLLAB", "coPapersCiteseer"):
        a = load_dataset(name)
        _, rep = build_cbm(a, alpha=0)
        staf = build_staf(a)
        _, rep_bl = build_bl2001(a)
        rw_rows.append(
            [
                name,
                f"{rep.compression_ratio:.2f}",
                f"{staf.compression_ratio():.2f}",
                f"{rep_bl.compression_ratio:.2f}",
            ]
        )
    rw = format_table(
        ["Graph", "CBM", "STAF(Nishino'14)", "BL(Björklund'01)"],
        rw_rows,
        title="Compression ratio vs related-work formats (alpha=0)",
    )
    sections.append("## Extension — related-work comparators (Section VII)\n\n```\n" + rw + "\n```\n")
    sections.append(
        "CBM's whole-row deltas dominate STAF's suffix-only sharing on the\n"
        "clustered families; BL (no virtual node) sits in between and lacks\n"
        "the worst-case guarantees (a Property-1 violation is demonstrated in\n"
        "the test suite).\n"
    )

    print("running sensitivity sweeps ...")
    from repro.bench.sensitivity import sweep_duplication, sweep_noise

    sens_rows = [
        [r["replication"], f"{r['ratio']:.2f}"] for r in sweep_duplication()
    ]
    s1 = format_table(
        ["replication r", "ratio"], sens_rows,
        title="Sensitivity — row replication (ratio -> r; CBM's mechanism isolated)",
    )
    sens_rows = [
        [r["flips_per_row"], f"{r['clustering']:.2f}", f"{r['ratio']:.2f}"]
        for r in sweep_noise()
    ]
    s2 = format_table(
        ["flips/row", "clustering", "ratio"], sens_rows,
        title="Sensitivity — noise on disjoint cliques (smooth degradation)",
    )
    sections.append("## Extension — sensitivity sweeps\n\n```\n" + s1 + "\n\n" + s2 + "\n```\n")

    sections.append(
        f"---\nGenerated in {time.time() - t0:.0f}s by "
        "benchmarks/generate_experiments_md.py.\n"
    )
    out = pathlib.Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"
    out.write_text("\n".join(sections))
    print(f"wrote {out}")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--from-results",
        action="store_true",
        help="assemble from benchmarks/results/*.txt, skipping missing tables",
    )
    args = ap.parse_args()
    main_from_results() if args.from_results else main()
