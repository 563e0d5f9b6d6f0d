"""Mutation-based validation of the static artifact auditor.

The auditor is only trustworthy if every corruption in the catalog is
*killed* (flagged with a finding naming the violated property) while
clean artifacts from the graph generators pass untouched.  The catalog
covers the ISSUE's required corruptions — cycle in the tree, orphan
branch row, duplicated row across branches, truncated delta set, stale
CRC — plus the rest of the invariant surface (delta values, virtual-row
deltas, weight agreement, nnz accounting, Properties 1–2, scaling
vectors).
"""

from __future__ import annotations

import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import build_cbm
from repro.core.io import save_cbm
from repro.graphs.generators import (
    citation_graph,
    coauthor_graph,
    erdos_renyi_graph,
    sbm_graph,
)
from repro.reliability.chaos import corrupt_archive
from repro.staticcheck import analyze_branches, audit_archive, audit_arrays, audit_cbm


def _graph(name: str):
    if name == "citation":
        return citation_graph(120, seed=3)
    if name == "coauthor":
        return coauthor_graph(150, seed=5)
    if name == "sbm":
        return sbm_graph([40, 40, 40], 0.3, 0.02, seed=7)
    return erdos_renyi_graph(100, 8.0, seed=11)


GRAPHS = ("citation", "coauthor", "sbm", "er")


def _arrays(cbm) -> dict:
    """Raw-array view of a CBM matrix, copied so mutations are isolated."""
    return {
        "parent": cbm.tree.parent.copy(),
        "weight": cbm.tree.weight.copy(),
        "indptr": cbm.delta.indptr.copy(),
        "indices": cbm.delta.indices.copy(),
        "data": cbm.delta.data.copy(),
        "shape": cbm.shape,
        "source_nnz": cbm.source_nnz,
    }


def _audit(arrs: dict):
    return audit_arrays(
        arrs["parent"],
        arrs["weight"],
        arrs["indptr"],
        arrs["indices"],
        arrs["data"],
        arrs["shape"],
        source_nnz=arrs["source_nnz"],
        subject="mutated",
    )


# --- the corruption catalog -------------------------------------------
# Each entry mutates the raw arrays and returns the finding code prefix
# the auditor MUST emit for the corruption (the kill condition).


def _mutate_cycle(arrs, rng):
    n = arrs["shape"][0]
    a, b = rng.choice(n, size=2, replace=False)
    arrs["parent"][a] = b
    arrs["parent"][b] = a
    return "CBM-T003"


def _mutate_self_parent(arrs, rng):
    x = int(rng.integers(arrs["shape"][0]))
    arrs["parent"][x] = x
    return "CBM-T002"


def _mutate_orphan_parent(arrs, rng):
    x = int(rng.integers(arrs["shape"][0]))
    arrs["parent"][x] = arrs["shape"][0] + 7
    return "CBM-T001"


def _mutate_truncated_delta(arrs, rng):
    k = int(rng.integers(1, 4))
    arrs["indices"] = arrs["indices"][:-k]
    arrs["data"] = arrs["data"][:-k]
    return "CBM-D001"


def _mutate_delta_value(arrs, rng):
    j = int(rng.integers(len(arrs["data"])))
    arrs["data"][j] = 2.0
    return "CBM-D002"


def _mutate_negative_virtual(arrs, rng):
    # Flip one +1 delta of a virtual-parent row to -1.
    from repro.core.tree import VIRTUAL

    roots = np.flatnonzero(arrs["parent"] == VIRTUAL)
    rng.shuffle(roots)
    for x in roots:
        lo, hi = arrs["indptr"][x], arrs["indptr"][x + 1]
        if hi > lo:
            arrs["data"][lo] = -1.0
            return "CBM-D004"
    pytest.skip("no virtual-parent row with deltas in this artifact")


def _mutate_weight(arrs, rng):
    counts = np.diff(arrs["indptr"])
    rows = np.flatnonzero(counts > 0)
    x = int(rng.choice(rows))
    arrs["weight"][x] = int(arrs["weight"][x]) + 1
    return "CBM-D005"


def _mutate_source_nnz(arrs, rng):
    arrs["source_nnz"] = int(arrs["source_nnz"]) + 3
    return "CBM-N001"


ARRAY_MUTATIONS = {
    "cycle": _mutate_cycle,
    "self_parent": _mutate_self_parent,
    "orphan_parent": _mutate_orphan_parent,
    "truncated_delta": _mutate_truncated_delta,
    "delta_value": _mutate_delta_value,
    "negative_virtual": _mutate_negative_virtual,
    "weight_mismatch": _mutate_weight,
    "source_nnz": _mutate_source_nnz,
}


# --- clean artifacts must pass ----------------------------------------


class TestCleanArtifactsPass:
    @pytest.mark.parametrize("name", GRAPHS)
    @pytest.mark.parametrize("alpha", [0, 2])
    def test_generator_graphs_clean(self, name, alpha):
        cbm, _ = build_cbm(_graph(name), alpha=alpha)
        report = audit_cbm(cbm)
        assert report.ok, report.render()
        assert report.checks["tree.arborescence"]
        assert report.checks["property1.per_row"]
        assert report.checks["property2.total_ops"]

    def test_dad_variant_clean(self):
        a = _graph("sbm")
        d = (np.asarray([a.indptr[i + 1] - a.indptr[i] for i in range(a.shape[0])]) + 1.0) ** -0.5
        cbm, _ = build_cbm(a, alpha=1, variant="DAD", diag=d)
        report = audit_cbm(cbm)
        assert report.ok, report.render()
        assert report.checks["scaling.vectors"]

    def test_clean_archive_passes(self, tmp_path):
        cbm, _ = build_cbm(_graph("citation"), alpha=2)
        path = tmp_path / "clean.npz"
        save_cbm(path, cbm)
        report = audit_archive(path)
        assert report.ok, report.render()
        assert report.checks["archive.checksums"]


# --- the kill-rate requirement ----------------------------------------


class TestMutationCatalogKillRate:
    @pytest.mark.parametrize("name", GRAPHS)
    @pytest.mark.parametrize("mutation", sorted(ARRAY_MUTATIONS))
    def test_every_mutation_killed(self, name, mutation):
        cbm, _ = build_cbm(_graph(name), alpha=2)
        arrs = _arrays(cbm)
        rng = np.random.default_rng(hash((name, mutation)) % 2**32)
        expected = ARRAY_MUTATIONS[mutation](arrs, rng)
        report = _audit(arrs)
        assert not report.ok, f"{mutation} on {name} survived the audit"
        assert report.has(expected), (
            f"{mutation} expected {expected}, got "
            f"{[f.code for f in report.findings]}"
        )

    def test_kill_rate_is_100_percent(self):
        """Aggregate: the whole catalog, one base artifact, zero survivors."""
        cbm, _ = build_cbm(_graph("citation"), alpha=2)
        survivors = []
        for mname, mutate in sorted(ARRAY_MUTATIONS.items()):
            arrs = _arrays(cbm)
            rng = np.random.default_rng(99)
            try:
                mutate(arrs, rng)
            except pytest.skip.Exception:
                continue
            if _audit(arrs).ok:
                survivors.append(mname)
        assert not survivors, f"mutations not detected: {survivors}"

    @given(
        seed=st.integers(0, 2**31 - 1),
        mutation=st.sampled_from(sorted(ARRAY_MUTATIONS)),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_artifact_random_mutation_killed(self, seed, mutation):
        a = erdos_renyi_graph(60, 6.0, seed=seed % 1000)
        cbm, _ = build_cbm(a, alpha=seed % 5)
        arrs = _arrays(cbm)
        if mutation in ("truncated_delta", "delta_value") and len(arrs["data"]) < 4:
            return  # degenerate artifact: nothing to truncate/flip
        rng = np.random.default_rng(seed)
        expected = ARRAY_MUTATIONS[mutation](arrs, rng)
        report = _audit(arrs)
        assert not report.ok
        assert report.has(expected)


# --- findings must name the violated property -------------------------


class TestPropertyBounds:
    def _p1_violating_arrays(self):
        """Hand-built artifact: row 1 spends 4 deltas on a 1-nnz row."""
        # row0 = {0,1,2} (virtual parent); row1 = {5} encoded against row0.
        parent = np.array([-1, 0], dtype=np.int64)
        weight = np.array([3, 4], dtype=np.int64)
        indptr = np.array([0, 3, 7], dtype=np.int64)
        indices = np.array([0, 1, 2, 0, 1, 2, 5], dtype=np.int64)
        data = np.array([1, 1, 1, -1, -1, -1, 1], dtype=np.float32)
        return parent, weight, indptr, indices, data

    def test_property1_and_2_named(self):
        parent, weight, indptr, indices, data = self._p1_violating_arrays()
        report = audit_arrays(
            parent, weight, indptr, indices, data, (2, 8), source_nnz=4
        )
        assert report.has("CBM-P101") and report.has("CBM-P102")
        assert report.has("CBM-P201")
        msgs = " | ".join(f.message for f in report.findings)
        assert "Property 1" in msgs
        assert "Property 2" in msgs
        assert not report.checks["property1.per_row"]
        assert not report.checks["property2.total_ops"]

    def test_tree_findings_name_the_invariant(self):
        cbm, _ = build_cbm(_graph("er"), alpha=1)
        arrs = _arrays(cbm)
        _mutate_cycle(arrs, np.random.default_rng(0))
        report = _audit(arrs)
        msgs = " | ".join(f.message for f in report.findings)
        assert "cycle" in msgs and "acyclicity" in msgs


# --- branch-level corruptions (Section V-B) ---------------------------


class TestBranchMutations:
    def _branches(self, name="citation"):
        cbm, _ = build_cbm(_graph(name), alpha=2)
        branches = cbm.tree.branches()
        if len(branches) < 2:
            pytest.skip("graph compressed into a single branch")
        return [b.copy() for b in branches], cbm.tree.parent

    def test_duplicated_row_across_branches_killed(self):
        branches, parent = self._branches()
        stolen = branches[0][-1]
        branches[1] = np.concatenate([branches[1], [stolen]])
        report = analyze_branches(branches, parent)
        assert report.has("HZ-W001")
        assert not report.checks["branches.disjoint"]

    def test_orphan_branch_row_killed(self):
        branches, parent = self._branches()
        victim = None
        for i, b in enumerate(branches):
            if len(b) >= 2:
                victim = i
                break
        if victim is None:
            pytest.skip("no branch with a non-root row")
        branches[victim] = branches[victim][:-1]
        report = analyze_branches(branches, parent)
        assert report.has("HZ-B001")
        assert not report.checks["branches.coverage"]

    def test_clean_branches_pass(self):
        branches, parent = self._branches()
        report = analyze_branches(branches, parent)
        assert report.ok, report.render()


# --- archive corruptions, end to end through the CLI ------------------


class TestArchiveMutations:
    def _saved(self, tmp_path) -> pathlib.Path:
        cbm, _ = build_cbm(_graph("citation"), alpha=2)
        path = tmp_path / "m.npz"
        save_cbm(path, cbm)
        return path

    @pytest.mark.parametrize("array", ["tree_parent", "delta_data", "delta_indices"])
    def test_stale_crc_killed(self, tmp_path, array):
        path = self._saved(tmp_path)
        corrupt_archive(path, array=array, mode="perturb", seed=1)
        report = audit_archive(path)
        assert report.has("CBM-A004"), report.render()
        assert not report.checks["archive.checksums"]
        msgs = " | ".join(f.message for f in report.findings)
        assert "stale CRC" in msgs

    def test_dropped_payload_killed(self, tmp_path):
        path = self._saved(tmp_path)
        corrupt_archive(path, array="delta_data", mode="drop", seed=1)
        report = audit_archive(path)
        assert report.has("CBM-A005")

    def test_cli_nonzero_exit_on_corruption(self, tmp_path, capsys):
        from repro.cli import main

        path = self._saved(tmp_path)
        assert main(["check", "artifact", str(path)]) == 0
        corrupt_archive(path, array="tree_parent", mode="perturb", seed=2)
        assert main(["check", "artifact", str(path)]) == 1
        out = capsys.readouterr().out
        assert "CBM-A004" in out

    def test_cli_json_report(self, tmp_path):
        import json

        from repro.cli import main

        path = self._saved(tmp_path)
        report_path = tmp_path / "audit.json"
        assert main(["check", "artifact", str(path), "--json", str(report_path)]) == 0
        payload = json.loads(report_path.read_text())
        assert payload["ok"] is True
        assert payload["reports"][0]["checks"]["archive.checksums"] is True
