"""Shared fixtures for the benchmark suite.

Every ``bench_*`` module regenerates one of the paper's exhibits: the
pytest-benchmark entries time the underlying kernels, and each module's
``test_report_*`` function renders the paper-shaped comparison table to
stdout and to ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import pathlib
import time

import numpy as np
import pytest

from repro.graphs.datasets import load_dataset

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

# Datasets ordered small to large; heavy benchmarks use the FAST subset.
ALL = (
    "Cora",
    "PubMed",
    "ca-HepPh",
    "ca-AstroPh",
    "ogbn-proteins",
    "COLLAB",
    "coPapersDBLP",
    "coPapersCiteseer",
)
FAST = ("Cora", "ca-HepPh", "COLLAB")


def write_report(name: str, text: str) -> None:
    """Persist a rendered table under benchmarks/results/ and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[written to {path}]")


def read_report(name: str) -> str | None:
    """Load a previously rendered table, tolerating its absence.

    A fresh clone (or a CI runner) has no ``benchmarks/results/*.txt``
    yet; consumers must treat ``None`` as "skip with a note" rather than
    erroring out.
    """
    path = RESULTS_DIR / f"{name}.txt"
    if not path.exists():
        print(f"[missing {path} — run the matching bench_* module to generate it; skipping]")
        return None
    return path.read_text()


def run_smoke_cli(description: str, smoke_fn, full_fn=None, argv=None) -> int:
    """Shared ``--smoke`` entry point for the ``bench_*`` scripts.

    Every benchmark module is executable standalone; ``--smoke`` runs a
    tiny fixed workload (CI executes all of them in a few seconds) while
    the default runs the module's full report path.
    """
    ap = argparse.ArgumentParser(description=description)
    ap.add_argument(
        "--smoke", action="store_true", help="run a tiny CI-sized workload (<~1 s)"
    )
    args = ap.parse_args(argv)
    use_smoke = args.smoke or full_fn is None
    t0 = time.perf_counter()
    (smoke_fn if use_smoke else full_fn)()
    mode = "smoke" if use_smoke else "full"
    print(f"[{description}: {mode} run ok in {time.perf_counter() - t0:.2f}s]")
    return 0


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(2025)


@pytest.fixture(scope="session", params=FAST)
def fast_dataset(request):
    """(name, adjacency) pairs for the timing-heavy benchmarks."""
    return request.param, load_dataset(request.param)
