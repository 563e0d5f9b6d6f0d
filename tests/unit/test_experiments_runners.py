"""Unit tests for the experiment runners' measured paths and options."""

import importlib.util
from pathlib import Path

import pytest

from repro.bench.experiments import (
    _scales,
    run_figure2,
    run_table2,
    run_table3,
    run_table4,
)
from repro.graphs.datasets import load_dataset, paper_stats


class TestScales:
    def test_scales_reflect_paper_ratios(self):
        a = load_dataset("Cora")
        s_nnz, s_rows = _scales("Cora", a)
        ps = paper_stats("Cora")
        assert s_nnz == pytest.approx(ps.edges / a.nnz)
        assert s_rows == pytest.approx(ps.nodes / a.shape[0])


class TestMeasuredPaths:
    def test_figure2_with_wall_clock(self):
        rows, _ = run_figure2(datasets=("Cora",), alphas=(0,), p=32, measure_wall=True)
        assert len(rows) == 1
        assert float(rows[0]["WallSeq"]) > 0
        assert float(rows[0]["OpsRatio"]) > 0

    def test_table3_with_wall_clock(self):
        rows, _ = run_table3(
            datasets=("Cora",), p=32, variants=("A",), measure_wall=True
        )
        assert float(rows[0]["WallSeq"]) > 0

    def test_table4_with_wall_clock(self):
        rows, _ = run_table4(datasets=("Cora",), p=32, measure_wall=True)
        assert float(rows[0]["WallSeq"]) > 0

    def test_table2_custom_alphas(self):
        rows, _ = run_table2(datasets=("Cora",), alphas=(1, 2, 4))
        assert [r["Alpha"] for r in rows] == [1, 2, 4]
        # Non-paper alphas have no published ratio to show.
        assert all(r["Ratio(paper)"] == "-" for r in rows)


class TestRowShapes:
    def test_figure2_ops_ratio_close_to_wall_free_mode(self):
        """measure_wall=False must still report the ops ratio."""
        rows, _ = run_figure2(datasets=("Cora",), alphas=(0,), p=32, measure_wall=False)
        assert rows[0]["WallSeq"] == "-"
        assert float(rows[0]["OpsRatio"]) > 0

    def test_table3_variant_labels(self):
        rows, _ = run_table3(
            datasets=("Cora",), p=32, variants=("A", "AD", "DAD"), measure_wall=False
        )
        assert [r["Kernel"] for r in rows] == ["AX", "ADX", "DADX"]


def _generator():
    path = Path(__file__).resolve().parents[2] / "benchmarks" / "generate_experiments_md.py"
    spec = importlib.util.spec_from_file_location("generate_experiments_md", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _prose(section: str) -> str:
    """The section's text after its table, on one line."""
    return " ".join(section.rsplit("```", 1)[1].split())


class TestGeneratedProse:
    """The shape checks under the measured tables quote figures computed
    from the rows they print, so a regeneration cannot leave old numbers
    under new tables."""

    def test_figure2(self):
        rows = [
            {"Graph": g, "Alpha": a, "Ratio": r, "WallSeq": w, "ModelSeq": "1.00", "ModelPar16": m}
            for g, a, r, w, m in [
                ("Cora", 0, "1.02", "0.80", "0.98"),
                ("Cora", 4, "1.00", "1.30", "0.97"),
                ("ca-HepPh", 0, "2.00", "1.50", "1.20"),
                ("COLLAB", 0, "10.39", "6.07", "6.11"),
                ("COLLAB", 4, "10.38", "7.25", "6.20"),
            ]
        ]
        text = _prose(_generator().figure2_section(rows, "table", "panels"))
        assert "rank correlation of ratio and WallSeq is 1.00" in text
        assert "WallSeq reads 0.80-1.30x on the citation graphs" in text
        assert "6.07-7.25x on the clique families" in text
        assert "alpha=4 for COLLAB (6.20x at ratio 10.38, against 10.39 at alpha=0)" in text

    def test_tables_3_and_4(self):
        gen = _generator()
        rows3 = [
            {"Graph": g, "Kernel": k, "WallSeq": w, "ModelSeq": m}
            for g, k, w, m in [
                ("Cora", "AX", "1.00", "1.00"),
                ("Cora", "ADX", "2.00", "1.00"),
                ("Cora", "DADX", "0.50", "0.90"),
                ("COLLAB", "AX", "4.00", "5.00"),
                ("COLLAB", "ADX", "4.40", "5.00"),
                ("COLLAB", "DADX", "6.00", "4.00"),
            ]
        ]
        text = _prose(gen.table3_section(rows3, "table"))
        assert "ADX 1.10-2.00x (WallSeq), DADX 0.50-1.50x (WallSeq)" in text
        assert "ADX 1.00-1.00x (ModelSeq), DADX 0.80-0.90x (ModelSeq)" in text
        rows4 = [
            {"Graph": "Cora", "WallSeq": "0.90", "ModelSeq": "1.00", "PaperSeq": "1.0"},
            {"Graph": "COLLAB", "WallSeq": "3.00", "ModelSeq": "1.08", "PaperSeq": "1.56"},
        ]
        text = _prose(gen.table4_section(rows4, "table", rows3))
        assert "below the graph's Table III DADX speedup on 1 of 2 graphs" in text
        assert "0.90-0.90x on the citation graphs and 3.00-3.00x on the clique families" in text
        assert "ModelSeq reads 1.00-1.08x against the paper's 1.00-1.56x" in text
