"""Scalar-operation and memory accounting (paper Properties 1–3).

The paper's performance argument is an operation-count argument: matrix
multiplication with CBM costs scalar operations proportional to the size
of the *compressed* representation.  Wall-clock on a noisy container
drifts; these counts do not, so every benchmark reports both.

Conventions (single precision values, 32-bit indices — the paper's setup):

* CSR SpMM with p right-hand columns: one multiply + one add per stored
  element per column → ``2 · nnz · p``.
* CBM SpMM: multiplication stage ``2 · nnz(A′) · p`` plus update stage
  ``p`` additions per tree edge, plus (DAD only) 2 extra flops per updated
  row element (Section V-A).
* ``S_CSR = 8·nnz + 4·(n+1)`` bytes — matches Table I exactly.
* ``S_CBM = 8·nnz(A′) + 4·(n+1) + 8·(tree edges)`` bytes — the delta
  matrix in CSR plus two 32-bit integers per compression-tree edge
  (Example 1 of the paper prices an edge at two integers).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.tree import CompressionTree
from repro.sparse.csr import CSRMatrix


@dataclass(frozen=True)
class OpCount:
    """Scalar-operation breakdown of one SpMM call."""

    multiply_stage: int
    update_stage: int

    @property
    def total(self) -> int:
        return self.multiply_stage + self.update_stage

    def __add__(self, other: "OpCount") -> "OpCount":
        return OpCount(
            self.multiply_stage + other.multiply_stage,
            self.update_stage + other.update_stage,
        )


def csr_spmm_ops(a: CSRMatrix, p: int) -> OpCount:
    """Scalar operations of the baseline CSR SpMM against p dense columns."""
    if p < 0:
        raise ValueError(f"p must be non-negative, got {p}")
    return OpCount(multiply_stage=2 * a.nnz * p, update_stage=0)


def cbm_spmm_ops(
    delta: CSRMatrix, tree: CompressionTree, p: int, *, variant: str = "A"
) -> OpCount:
    """Scalar operations of the CBM SpMM (multiply + update stages).

    ``variant`` is one of ``A``/``AD``/``DAD``/``D1AD2``; A and AD cost the same
    (identical sparsity in A′ vs (AD)′), DAD pays 2 extra flops per updated
    row element for the fused scaling of Eq. 6.
    """
    if p < 0:
        raise ValueError(f"p must be non-negative, got {p}")
    mul = 2 * delta.nnz * p
    edges = tree.num_tree_edges
    upd = edges * p
    if variant in ("DAD", "D1AD2"):
        upd += 2 * edges * p
    elif variant not in ("A", "AD"):
        raise ValueError(f"unknown variant {variant!r}; expected A, AD, or DAD")
    return OpCount(multiply_stage=mul, update_stage=upd)


def cbm_rows_spmm_ops(
    delta_nnz: int, tree_edges: int, p: int, *, variant: str = "A"
) -> OpCount:
    """CBM SpMM cost of a row block with the given compressed sizes.

    The per-row-block form of :func:`cbm_spmm_ops`: ``delta_nnz`` counts
    the block's delta elements (rows whose parent falls outside the
    block are priced as roots, i.e. at their full nnz) and
    ``tree_edges`` counts only the parent links that stay inside the
    block.  Same variant conventions as :func:`cbm_spmm_ops`.
    """
    if p < 0:
        raise ValueError(f"p must be non-negative, got {p}")
    if delta_nnz < 0 or tree_edges < 0:
        raise ValueError("delta_nnz and tree_edges must be non-negative")
    mul = 2 * int(delta_nnz) * p
    upd = int(tree_edges) * p
    if variant in ("DAD", "D1AD2"):
        upd += 2 * int(tree_edges) * p
    elif variant not in ("A", "AD"):
        raise ValueError(f"unknown variant {variant!r}; expected A, AD, or DAD")
    return OpCount(multiply_stage=mul, update_stage=upd)


def csr_memory_bytes(a: CSRMatrix) -> int:
    """Paper-convention CSR footprint (see module docstring)."""
    return a.memory_bytes(value_bytes=4, index_bytes=4)


def cbm_memory_bytes(delta: CSRMatrix, tree: CompressionTree) -> int:
    """Paper-convention CBM footprint: delta CSR + 8 bytes per tree edge."""
    return delta.memory_bytes(value_bytes=4, index_bytes=4) + 8 * tree.num_tree_edges


def compression_ratio(a: CSRMatrix, delta: CSRMatrix, tree: CompressionTree) -> float:
    """``S_CSR / S_CBM`` — the headline metric of Tables II and V."""
    return csr_memory_bytes(a) / cbm_memory_bytes(delta, tree)
