"""Streaming graph mutations: incremental CBM maintenance.

The streaming tier keeps a CBM-compressed adjacency *exact* under a
stream of edge insertions/deletions by patching only the delta rows the
paper's §V-B locality argument shows can change (mutated rows and their
direct compression-tree children), while a :class:`DriftTracker` meters
how far compression quality has drifted from the fresh-build optimum
and a :class:`BackgroundRebuilder` recompresses off the hot path,
committing each rebuild durably and hot-swapping the serving slot with
zero downtime.

Public surface:

* :class:`EdgeBatch` / :func:`patch_cbm` / :class:`MutableAdjacency` —
  incremental maintenance (``mutable``);
* :class:`DriftPolicy` / :class:`DriftTracker` — drift/staleness
  metering and backpressure (``drift``);
* :class:`BackgroundRebuilder` / :func:`publish_snapshot` — off-path
  recompression and zero-downtime publication (``rebuild``).

The mutation-storm soak is :func:`repro.soak.stream` (``repro soak stream``).
"""

from repro.streaming.drift import DriftPolicy, DriftTracker
from repro.streaming.mutable import EdgeBatch, MutableAdjacency, PatchReport, patch_cbm
from repro.streaming.rebuild import BackgroundRebuilder, RebuildReport, publish_snapshot

__all__ = [
    "BackgroundRebuilder",
    "DriftPolicy",
    "DriftTracker",
    "EdgeBatch",
    "MutableAdjacency",
    "PatchReport",
    "RebuildReport",
    "patch_cbm",
    "publish_snapshot",
]
