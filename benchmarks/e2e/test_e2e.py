"""Tests of the end-to-end benchmark.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.  Each
workload runs through ``run.py`` in ``--quick`` mode (the same code with
one set-up) for a short measurement.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest
import workloads
from compare import compare

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7
QUICK_SECONDS = 1.5


def run_quick(workload: str, trace: int, out: pathlib.Path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--quick",
         "--seconds", str(QUICK_SECONDS), "--trace", str(trace), "--seed", str(SEED),
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_reports_declared_metrics(workload, trace, tmp_path):
    last = run_quick(workload, trace, tmp_path)
    declared = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == declared
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1

    stem = f"{workload}-s{SEED}" + (".trace" if trace else "")
    record = json.loads((tmp_path / f"{stem}.json").read_text())
    assert record["seed"] == SEED
    assert record["failed_frac"] == 0
    assert record["samples"] and all(n > 0 for n in record["samples"].values())
    if trace:
        spans = (tmp_path / f"{stem}.spans.jsonl").read_text().splitlines()
        assert {"id", "name", "start", "end", "parent", "trace"} <= set(json.loads(spans[0]))
    else:
        assert all(m["value"] > 0 for m in last["metrics"].values())


def test_reference_catches_a_perturbed_output():
    expected = np.random.default_rng(0).standard_normal((64, 8))
    ref = workloads.Reference(expected)
    assert ref.matches(expected.astype(np.float32))
    bad = expected.copy()
    bad[3, 5] += 0.01 * np.abs(expected).max()
    assert not ref.matches(bad)
    bad = expected.copy()
    bad[0, 0] = np.nan
    assert not ref.matches(bad)
    assert not ref.matches(expected[:, :7])


def test_compare_fails_a_regression_and_an_unresolved_pair(tmp_path, capsys):
    metric = SPEC["end_to_end"][1]
    workload = SPEC["workloads"][0]["name"]
    spec = {"workloads": [{"name": workload}], "end_to_end": [metric]}
    bound = metric["bound"]
    sign = 1 if metric["better"] == "lower" else -1
    sides = {
        "a": (10.0, 0.01),
        "worse": (10.0 * (1 + sign * 2 * bound), 0.01),
        "wide": (10.0, 2 * bound),  # quartile spread wider than the bound
    }
    for side, (base, jitter) in sides.items():
        (tmp_path / side).mkdir()
        for seed, j in enumerate((-jitter, 0.0, jitter)):
            record = {"workload": workload, "ops": {"attempted": 1, "failed": 0},
                      "metrics": {metric["name"]: {"value": base * (1 + j)}}}
            (tmp_path / side / f"{workload}-s{seed}.json").write_text(json.dumps(record))
    assert compare(tmp_path / "a", tmp_path / "a", spec) == 0
    assert compare(tmp_path / "a", tmp_path / "worse", spec) == 1
    assert "worse" in capsys.readouterr().out
    assert compare(tmp_path / "a", tmp_path / "wide", spec) == 1
    assert "unresolved" in capsys.readouterr().out


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "gcn-cora"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
