"""Serving-layer soak benchmark — chaos under concurrent load.

Drives :func:`repro.soak.serve` (healthy → burst → chaos → recovery)
with at least four concurrent client threads against an
:class:`~repro.serving.InferenceService` and records the acceptance
evidence for the serving tier in ``BENCH_PR3.json``:

* zero results diverging from the CSR reference (every answer checked
  client-side against ``spmm(source, x)`` as it arrives; NaN is wrong);
* zero hung requests (every submission resolves to a result or a typed
  error within its deadline budget plus a grace window);
* the overload burst is shed, and poisoned operands are rejected;
* the circuit breaker demonstrably trips CBM → guarded-CBM → CSR
  degraded mode after a hot swap to a NaN-poisoned artifact, and
  recovers back to the fast tier through half-open probing once the
  healthy artifact is swapped back;
* shed / retry / breaker-transition counts and per-phase p50/p99
  latencies.

Run standalone::

    python benchmarks/bench_serving_soak.py            # full (PubMed)
    python benchmarks/bench_serving_soak.py --smoke    # CI-sized (Cora)

or under pytest-benchmark like the other ``bench_*`` modules.
"""

import argparse
import json
import pathlib
import platform
import time

from repro.graphs.datasets import load_dataset
from repro.soak import render, serve

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_JSON = REPO_ROOT / "BENCH_PR3.json"

FULL = dict(dataset="PubMed", alpha=2, clients=6, requests=25, p=32, deadline_s=3.0, seed=7)
SMOKE = dict(dataset="Cora", alpha=0, clients=4, requests=10, p=16, deadline_s=2.0, seed=7)


def run_workload(cfg: dict) -> dict:
    """Run the serve soak on one dataset; return the JSON record."""
    cfg = dict(cfg)
    report = serve(load_dataset(cfg.pop("dataset")), **cfg)
    return {
        "benchmark": "serving_soak",
        **report,
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "generated_unix": time.time(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true", help="tiny CI-sized workload (<30 s)")
    ap.add_argument("--json", type=pathlib.Path, default=None,
                    help=f"where to write the JSON record (default {DEFAULT_JSON})")
    args = ap.parse_args(argv)

    record = run_workload(SMOKE if args.smoke else FULL)
    record["mode"] = "smoke" if args.smoke else "full"
    print(render(record))

    path = args.json or DEFAULT_JSON
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"[written to {path}]")
    return 0 if record["ok"] else 1


# ---------------------------------------------------------------------------
# pytest-benchmark entry points (same harness as the other bench_* modules)
# ---------------------------------------------------------------------------

def test_serving_happy_path(benchmark, rng):
    """Round-trip latency of one request through the service (no chaos)."""
    import numpy as np

    from repro.serving import AdjacencySlot, InferenceService

    a = load_dataset("Cora")
    slot = AdjacencySlot.from_graph(a, alpha=2)
    x = rng.random((a.shape[0], 16), dtype=np.float64).astype(np.float32)
    with InferenceService(slot) as svc:
        svc.submit(x).result(10.0)  # warm plan + pool outside the timer
        benchmark(lambda: svc.submit(x).result(10.0))


def test_report_serving_soak(benchmark):
    from conftest import write_report

    def run():
        record = run_workload(dict(SMOKE))
        write_report("serving_soak", render(record))
        assert record["ok"], record["violations"]

    benchmark.pedantic(run, rounds=1, iterations=1)


if __name__ == "__main__":
    raise SystemExit(main())
