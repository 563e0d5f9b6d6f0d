"""The paper's contribution: the Compressed Binary Matrix (CBM) format.

Public entry points:

* :func:`repro.core.builder.build_cbm` / :class:`repro.core.cbm.CBMMatrix`
  — compress a binary adjacency matrix and multiply it with dense
  matrices (``AX``, ``ADX``, ``DADX``).
* :mod:`repro.core.distance` — row-similarity distance graph (Section III).
* :mod:`repro.core.mst` / :mod:`repro.core.arborescence` — the spanning
  structures that define the compression tree (MST for the undirected
  alpha=0 graph, Chu–Liu/Edmonds arborescence for pruned directed graphs).
* :mod:`repro.core.opcount` — scalar-operation and memory accounting
  backing Properties 1–3.
"""

from repro.core.arborescence import minimum_arborescence
from repro.core.bl2001 import build_bl2001
from repro.core.builder import BuildReport, build_cbm, build_clustered
from repro.core.cbm import CBMMatrix, Variant
from repro.core.distance import DistanceGraph, brute_force_distance_graph, candidate_edges
from repro.core.io import load_cbm, save_cbm
from repro.core.mst import kruskal_mst
from repro.core.opcount import (
    OpCount,
    cbm_memory_bytes,
    cbm_spmm_ops,
    csr_memory_bytes,
    csr_spmm_ops,
)
from repro.core.rebalance import cut_depth, split_branches
from repro.core.tree import VIRTUAL, CompressionTree
from repro.core.verify import VerifyReport, estimate_candidate_memory, verify_cbm

__all__ = [
    "CBMMatrix",
    "Variant",
    "BuildReport",
    "build_cbm",
    "build_clustered",
    "build_bl2001",
    "cut_depth",
    "split_branches",
    "load_cbm",
    "save_cbm",
    "VerifyReport",
    "verify_cbm",
    "estimate_candidate_memory",
    "DistanceGraph",
    "brute_force_distance_graph",
    "candidate_edges",
    "CompressionTree",
    "VIRTUAL",
    "kruskal_mst",
    "minimum_arborescence",
    "OpCount",
    "cbm_memory_bytes",
    "cbm_spmm_ops",
    "csr_memory_bytes",
    "csr_spmm_ops",
]
