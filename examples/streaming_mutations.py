"""Streaming mutations: patch a live CBM, watch drift, rebuild, hot-swap.

Walks the full streaming-tier lifecycle on one graph: apply edge
batches to a :class:`~repro.streaming.MutableAdjacency` (only the
affected delta rows are recomputed — the matrix stays exact), watch the
:class:`~repro.streaming.DriftTracker` price the compression decay,
serve through every mutation, then let the background rebuilder
recompress, commit a durable generation, and hot-swap the service.

Run:  python examples/streaming_mutations.py [dataset] [--out rebuilt.npz]

With ``--out`` the final rebuilt artifact is also saved standalone, so
it can be audited (``python -m repro.cli check artifact rebuilt.npz``).
"""

import argparse
import tempfile

import numpy as np

from repro import load_dataset
from repro.recovery import GenerationStore
from repro.serving import AdjacencySlot, InferenceService
from repro.sparse.ops import spmm
from repro.streaming import (
    BackgroundRebuilder,
    DriftPolicy,
    DriftTracker,
    EdgeBatch,
    MutableAdjacency,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dataset", nargs="?", default="Cora")
    ap.add_argument("--batches", type=int, default=12, help="edge batches to apply")
    ap.add_argument("--edges", type=int, default=6, help="±edges per batch")
    ap.add_argument("--out", default=None,
                    help="also save the final rebuilt CBM archive here")
    args = ap.parse_args()

    # 1. Compress the graph and wrap it for mutation.  The tracker's
    #    policy decides when compression decay warrants a rebuild.
    a = load_dataset(args.dataset)
    print(f"{args.dataset}: {a.shape[0]} nodes, {a.nnz} directed edges")
    tracker = DriftTracker(DriftPolicy(max_drift=0.05, staleness_budget=64))
    mutable = MutableAdjacency.from_graph(a, tracker=tracker)

    # 2. Serve through the mutations: the service starts on the initial
    #    snapshot; each patch publishes a new one with zero downtime.
    version, cbm, source = mutable.snapshot()
    slot = AdjacencySlot(cbm, source, tracker=tracker)
    slot.graph_version = version
    rng = np.random.default_rng(7)
    x = rng.random((a.shape[0], 4), dtype=np.float64).astype(np.float32)

    with InferenceService(slot) as service:
        print(f"\napplying {args.batches} batches of ±{args.edges} edges:")
        for j in range(args.batches):
            _, _, src = mutable.snapshot()
            batch = EdgeBatch.random(
                src, inserts=args.edges, deletes=args.edges, seed=j
            )
            report = mutable.apply(batch)
            from repro.streaming import publish_snapshot

            publish_snapshot(mutable, service)
            y = service.submit(x).result(30.0)
            _, live_cbm, live_src = mutable.snapshot()
            assert np.array_equal(y, live_cbm.matmul(x))
            assert np.allclose(y, spmm(live_src, x), rtol=1e-4, atol=1e-4)
            print(
                f"  v{report.version:2d}: +{report.inserted}/-{report.deleted} edges, "
                f"{report.rows_patched} delta rows respliced in "
                f"{report.seconds * 1e3:.1f} ms — drift {tracker.drift() * 100:5.2f}%, "
                f"staleness {tracker.staleness()}"
            )

        # 3. The patched matrix is exact but drifted; a background
        #    rebuild recompresses it, commits the fresh build durably,
        #    and hot-swaps the serving slot.
        print(f"\nrebuild trigger fired: {tracker.should_rebuild()}")
        with tempfile.TemporaryDirectory(prefix="streaming-example-") as tmp:
            store = GenerationStore(f"{tmp}/store", retain=3)
            rebuilder = BackgroundRebuilder(mutable, store, service)
            report = rebuilder.rebuild_once()
            print(
                f"rebuilt v{report.built_version} in {report.build_seconds * 1e3:.0f} ms, "
                f"committed generation {report.store_generation} "
                f"({report.commit_seconds * 1e3:.0f} ms), "
                f"published with {report.replayed} replayed batch(es)"
            )
            snap = tracker.snapshot()
            print(f"drift after rebuild: {snap['drift'] * 100:.2f}% "
                  f"(staleness {snap['staleness']})")

            y = service.submit(x).result(30.0)
            _, live_cbm, live_src = mutable.snapshot()
            assert np.array_equal(y, live_cbm.matmul(x))
            print("served result matches the rebuilt CBM bitwise")

            if args.out:
                import shutil

                gen = store.latest()
                shutil.copyfile(gen.file("adjacency.npz"), args.out)
                print(f"rebuilt artifact saved to {args.out} "
                      "(audit: python -m repro.cli check artifact "
                      f"{args.out})")


if __name__ == "__main__":
    main()
