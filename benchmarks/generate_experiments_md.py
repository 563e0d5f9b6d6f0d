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

import numpy as np

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


# The paper's graph families, as its prose groups them.
CITATION = ("Cora", "PubMed")
CLIQUE = ("COLLAB", "coPapersDBLP", "coPapersCiteseer")


def _span(values: list[float]) -> str:
    return f"{min(values):.2f}-{max(values):.2f}x" if values else "-"


def _column(rows: list[dict], key: str, graphs=None) -> list[float]:
    """``key`` of every row (of ``graphs`` only, if given) as floats."""
    return [float(r[key]) for r in rows if graphs is None or r["Graph"] in graphs]


def _speed_key(rows: list[dict]) -> str:
    """The measured column when it was measured, else the model's."""
    return "WallSeq" if all(r["WallSeq"] != "-" for r in rows) else "ModelSeq"


def _section(title: str, table: str, notes: str, extra: str = "") -> str:
    return (
        f"## {title}\n\n```\n{table}\n```\n\n{extra}"
        + textwrap.fill(notes, width=72, break_on_hyphens=False)
        + "\n"
    )


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
        + ".  Every stage of both builds runs compiled: the candidate pass "
        "(A·Aᵀ's row overlaps, counted in C without forming the product), "
        "then Kruskal on SciPy's csgraph routines at alpha=0 or the "
        "Chu-Liu/Edmonds contraction rounds in C at alpha=32.  Each time is "
        "one build, the first of its graph and alpha in the process."
    )
    return _section("Table II — compression time and ratio", table, notes)


def figure2_section(rows: list[dict], table: str, panels: str) -> str:
    """Figure 2, its panels and its shape check, every figure read off ``rows``."""
    speed = _speed_key(rows)
    zero = [r for r in rows if r["Alpha"] == 0]
    ranks = [np.argsort(np.argsort(_column(zero, key))) for key in ("Ratio", speed)]
    rho = float(np.corrcoef(*ranks)[0, 1]) if len(zero) > 1 else float("nan")
    peaks = []
    for graph in CLIQUE:
        sweep = [r for r in rows if r["Graph"] == graph]
        if sweep:
            best = max(sweep, key=lambda r: float(r["ModelPar16"]))
            peaks.append(
                f"alpha={best['Alpha']} for {graph} ({float(best['ModelPar16']):.2f}x at "
                f"ratio {float(best['Ratio']):.2f}, against {float(sweep[0]['Ratio']):.2f} "
                f"at alpha={sweep[0]['Alpha']})"
            )
    notes = (
        "Shape check vs paper: the paper's speedup tracks compression ratio; "
        f"across graphs at alpha=0 the rank correlation of ratio and {speed} is "
        f"{rho:.2f}.  Over the sweep, {speed} reads {_span(_column(rows, speed, CITATION))} "
        f"on the citation graphs and {_span(_column(rows, speed, CLIQUE))} on the clique "
        "families (COLLAB and the co-papers graphs).  The 16-core model's speedup peaks at "
        + "; ".join(peaks)
        + "."
    )
    return _section("Figure 2 — alpha sweep (AX)", table, notes, "```\n" + panels + "\n```\n\n")


def table3_section(rows: list[dict], table: str) -> str:
    """Table III and its shape check, every figure read off ``rows``."""
    speed = _speed_key(rows)

    def over_ax(kernel: str, key: str) -> list[float]:
        ax = {r["Graph"]: float(r[key]) for r in rows if r["Kernel"] == "AX"}
        return [float(r[key]) / ax[r["Graph"]] for r in rows if r["Kernel"] == kernel]

    notes = (
        "Shape check vs paper: ADX and DADX cost about what AX costs, so the "
        "AX speedups carry over.  Each graph's speedup over its AX speedup: "
        + ", ".join(
            f"{kernel} {_span(over_ax(kernel, key))} ({key})"
            for key in dict.fromkeys((speed, "ModelSeq"))
            for kernel in ("ADX", "DADX")
        )
        + "."
    )
    return _section("Table III — AX / ADX / DADX", table, notes)


def table4_section(rows: list[dict], table: str, rows3: list[dict]) -> str:
    """Table IV and its shape check, every figure read off ``rows`` and
    Table III's ``rows3``."""
    speed = _speed_key(rows)
    dadx = {r["Graph"]: float(r[speed]) for r in rows3 if r["Kernel"] == "DADX"}
    both = [r for r in rows if r["Graph"] in dadx]
    diluted = [r["Graph"] for r in both if float(r[speed]) < dadx[r["Graph"]]]
    paper = [float(r["PaperSeq"]) for r in rows if r["PaperSeq"] != "-"]
    notes = (
        "Shape check vs paper: the two dense GEMMs cost the same in both "
        "formats, so GCN speedups are diluted relative to raw DADX speedups.  "
        f"The {speed} GCN speedup is below the graph's Table III DADX speedup on "
        f"{len(diluted)} of {len(both)} graphs; it reads "
        f"{_span(_column(rows, speed, CITATION))} on the citation graphs and "
        f"{_span(_column(rows, speed, CLIQUE))} on the clique families, and "
        f"ModelSeq reads {_span(_column(rows, 'ModelSeq'))} against the paper's "
        f"{_span(paper)}."
    )
    return _section("Table IV — two-layer GCN inference", table, notes)


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
    sections.append(figure2_section(rows_f2, f2, "\n\n".join(panels)))

    print("running table 3 (wall-clock measured) ...")
    rows3, t3 = run_table3(measure_wall=True)
    sections.append(table3_section(rows3, t3))

    print("running table 4 (wall-clock measured) ...")
    sections.append(table4_section(*run_table4(measure_wall=True), rows3))

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
