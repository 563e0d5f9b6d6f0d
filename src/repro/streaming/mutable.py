"""Incremental CBM maintenance under streaming edge mutations.

The paper's Section V-B branch decomposition makes delta-set edits
*locally contained*: row ``u``'s delta sets are diffs against its parent
row only, so toggling edge ``(u, v)`` can change at most the delta rows
of ``u`` itself and of ``u``'s direct children (whose diffs are taken
against ``u``'s content).  :func:`patch_cbm` exploits exactly that — an
edge batch is applied by recomputing only the affected rows' delta sets
and splicing them into fresh CSR arrays, leaving every other row's
storage byte-identical.  What a patch costs:

* the edits and the delta extraction read only the mutated rows and the
  affected rows with their parents (:func:`~repro.core.deltas.delta_rows`),
  so they cost the batch plus those rows' nnz;
* the copy-on-write splice of the source and delta arrays is one
  O(n + nnz) copy each, which immutable snapshots cannot avoid (one
  O(n) mask over the parent array also finds the mutated rows'
  children);
* nothing tree-shaped is redone: a patch never moves a parent, so the
  new tree (:meth:`~repro.core.tree.CompressionTree.reweighted`) shares
  the frozen parent array and level schedule, and the plan for the next
  read takes that schedule as it is.

The patched matrix is always an *exact* representation of the mutated
adjacency (``tocsr()`` reproduces it bit-for-bit); what decays is
compression quality — delta rows drift away from the fresh-build
optimum, spending extra deltas Property 1 no longer bounds.  That decay
is the *staleness* the :class:`~repro.streaming.DriftTracker` meters and
the background rebuilder repairs.

:class:`MutableAdjacency` wraps the (CBM, CSR) pair behind a lock,
journals applied batches so a rebuild started from an older snapshot can
replay what it missed (:meth:`MutableAdjacency.rebase`), and hands out
immutable snapshots for publication — patches never mutate a published
matrix in place, so concurrent readers of an old snapshot are safe.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.core.builder import build_cbm
from repro.core.cbm import CBMMatrix, Variant
from repro.core.deltas import delta_rows
from repro.errors import CompressionError, ShapeError, StalenessError
from repro.sparse.csr import CSRMatrix

__all__ = ["EdgeBatch", "PatchReport", "MutableAdjacency", "patch_cbm"]


def _as_edges(pairs, what: str) -> np.ndarray:
    arr = np.asarray(pairs, dtype=np.int64)
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ShapeError(f"{what} must be a (k, 2) edge array, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class EdgeBatch:
    """One batch of edge mutations: ``(k, 2)`` arrays of (row, col) pairs."""

    inserts: np.ndarray = ()
    deletes: np.ndarray = ()

    def __post_init__(self):
        object.__setattr__(self, "inserts", _as_edges(self.inserts, "inserts"))
        object.__setattr__(self, "deletes", _as_edges(self.deletes, "deletes"))

    @classmethod
    def random(
        cls,
        a: CSRMatrix,
        *,
        inserts: int = 4,
        deletes: int = 4,
        symmetric: bool = True,
        seed: int = 0,
    ) -> "EdgeBatch":
        """A seeded random mutation batch valid against ``a`` (see
        :func:`repro.reliability.chaos.random_edge_batch`)."""
        from repro.reliability.chaos import random_edge_batch

        ins, dels = random_edge_batch(
            a, inserts=inserts, deletes=deletes, symmetric=symmetric, seed=seed
        )
        return cls(ins, dels)

    @property
    def num_edges(self) -> int:
        return int(len(self.inserts) + len(self.deletes))


@dataclass(frozen=True)
class PatchReport:
    """What one :meth:`MutableAdjacency.apply` call did."""

    version: int
    inserted: int
    deleted: int
    noops: int
    rows_touched: int
    rows_patched: int
    deltas_before: int
    deltas_after: int
    nnz: int
    seconds: float


def _splice_rows(
    csr: CSRMatrix, rows: dict[int, tuple[np.ndarray, np.ndarray]]
) -> CSRMatrix:
    """A new CSR with the given rows replaced by (indices, data) pairs.

    Only the replaced rows' storage changes; every untouched span is
    copied as one contiguous slice, so the cost is O(nnz) memory but the
    per-row Python work is proportional to the number of patched rows.
    """
    n = csr.shape[0]
    idx_parts: list[np.ndarray] = []
    val_parts: list[np.ndarray] = []
    counts = np.diff(csr.indptr).astype(np.int64)
    prev = 0
    for r in sorted(rows):
        lo, hi = csr.indptr[prev], csr.indptr[r]
        idx_parts.append(csr.indices[lo:hi])
        val_parts.append(csr.data[lo:hi])
        idx, val = rows[r]
        idx_parts.append(np.asarray(idx, dtype=csr.indices.dtype))
        val_parts.append(np.asarray(val, dtype=csr.data.dtype))
        counts[r] = len(idx)
        prev = r + 1
    lo = csr.indptr[prev]
    idx_parts.append(csr.indices[lo:])
    val_parts.append(csr.data[lo:])
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = np.concatenate(idx_parts) if idx_parts else csr.indices[:0]
    data = np.concatenate(val_parts) if val_parts else csr.data[:0]
    return CSRMatrix(indptr, indices, data, csr.shape, check=False)


def patch_cbm(
    cbm: CBMMatrix, source: CSRMatrix, batch: EdgeBatch
) -> tuple[CBMMatrix, CSRMatrix, dict]:
    """Apply an edge batch to a (CBM, CSR) pair; returns new objects.

    The compression tree's parent structure is untouched — only the
    delta rows of the mutated rows and of their direct tree children are
    recomputed (Section V-B locality), and ``tree.weight`` /
    ``source_nnz`` are updated so the structural audits
    (weight-agreement, nnz accounting) stay exact on the patched
    artifact.  Inserting an edge already present (or deleting an absent
    one), or repeating an edge within the batch, is a counted no-op,
    never an error — mutation feeds are routinely at-least-once — so
    ``inserted + deleted + noops == batch.num_edges``.

    Raises :class:`~repro.errors.CompressionError` for scaled variants:
    the AD/DAD diagonals are degree-derived, and mutations change
    degrees, so scaled slots must be rebuilt, not patched.
    """
    if cbm.variant is not Variant.A:
        raise CompressionError(
            f"streaming patches support variant A only, not {cbm.variant.value}: "
            "the scaling diagonals are degree-derived and go stale under "
            "mutation — rebuild scaled slots instead"
        )
    if cbm.shape != source.shape:
        raise ShapeError.mismatch("cbm vs source", cbm.shape, source.shape)
    n, m = source.shape
    for what, edges in (("insert", batch.inserts), ("delete", batch.deletes)):
        if len(edges) and (
            edges[:, 0].min() < 0
            or edges[:, 0].max() >= n
            or edges[:, 1].min() < 0
            or edges[:, 1].max() >= m
        ):
            raise ShapeError(
                f"{what} edges out of range for a {n}x{m} adjacency"
            )

    # Fold each row's inserts and deletes into sets; a pair repeated
    # inside the batch is a no-op like any other redundant mutation.
    adds: dict[int, set[int]] = {}
    rems: dict[int, set[int]] = {}
    noops = 0
    for edges, cols_of in ((batch.inserts, adds), (batch.deletes, rems)):
        for u, v in edges.tolist():
            cols = cols_of.setdefault(u, set())
            noops += v in cols
            cols.add(v)
    for u in adds.keys() & rems.keys():
        both = adds[u] & rems[u]
        if both:
            raise CompressionError(
                f"edge(s) {sorted((u, v) for v in both)} appear in both the "
                "insert and delete sets of one batch — ordering is ambiguous"
            )

    # New row contents for effectively-changed rows (no-ops drop out).
    new_rows: dict[int, np.ndarray] = {}
    inserted = deleted = 0
    for u in sorted(adds.keys() | rems.keys()):
        old = set(source.row(u).tolist())
        add = adds.get(u, set())
        rem = rems.get(u, set())
        real_add = add - old
        real_rem = rem & old
        noops += (len(add) - len(real_add)) + (len(rem) - len(real_rem))
        if not real_add and not real_rem:
            continue
        inserted += len(real_add)
        deleted += len(real_rem)
        new_rows[u] = np.array(sorted((old - real_rem) | real_add), dtype=np.int64)

    stats = {
        "inserted": inserted,
        "deleted": deleted,
        "noops": noops,
        "rows_touched": len(new_rows),
    }
    if not new_rows:
        stats["rows_patched"] = 0
        return cbm, source, stats

    source2 = _splice_rows(
        source,
        {
            u: (r, np.ones(len(r), dtype=source.data.dtype))
            for u, r in new_rows.items()
        },
    )
    # Affected delta rows: the mutated rows plus their direct children
    # (a child's delta sets are diffs against the mutated content).
    parent = cbm.tree.parent
    mutated = np.zeros(n + 1, dtype=bool)  # the last slot answers parent VIRTUAL
    mutated[list(new_rows)] = True
    affected = np.flatnonzero(mutated[:n] | mutated[parent])
    block = delta_rows(source2, parent, affected)
    new_weight = cbm.tree.weight.copy()
    new_weight[affected] = block.row_nnz()
    delta2 = _splice_rows(
        cbm.delta,
        {int(x): (block.row(i), block.row_values(i)) for i, x in enumerate(affected)},
    )
    # Fresh tree/CBM objects: published snapshots stay immutable, and
    # the plan-fingerprint check in CBMMatrix.plan() rebuilds kernel
    # plans automatically.  The parent array never changes, so the new
    # tree shares it and its level schedule instead of re-validating.
    tree2 = cbm.tree.reweighted(new_weight)
    cbm2 = CBMMatrix(
        tree=tree2,
        delta=delta2,
        variant=cbm.variant,
        diag=None,
        diag_left=None,
        source_nnz=source2.nnz,
        alpha=cbm.alpha,
    )
    stats["rows_patched"] = int(len(affected))
    return cbm2, source2, stats


class MutableAdjacency:
    """A (CBM, CSR) pair that absorbs edge batches by in-place patching.

    All access goes through one lock; :meth:`snapshot` returns the
    current immutable pair, :meth:`apply` installs a patched pair, and
    :meth:`rebase` installs a fresh rebuild, replaying any journaled
    batches the rebuild's snapshot missed so the result is exact for the
    *current* graph, not the snapshot the builder saw.
    """

    def __init__(self, cbm: CBMMatrix, source: CSRMatrix, *, tracker=None,
                 journal_limit: int = 4096):
        if cbm.variant is not Variant.A:
            raise CompressionError(
                "MutableAdjacency requires a variant-A CBM (scaled variants "
                "carry degree-derived diagonals that mutations invalidate)"
            )
        if cbm.shape != source.shape:
            raise ShapeError.mismatch("cbm vs source", cbm.shape, source.shape)
        self._lock = threading.Lock()
        self._cbm = cbm
        self._source = source
        self._version = 0
        self._journal: list[tuple[int, EdgeBatch]] = []
        self.journal_limit = int(journal_limit)
        self.tracker = tracker
        if tracker is not None:
            tracker.mark_rebuilt(cbm, version=0)

    @classmethod
    def from_graph(
        cls,
        a: CSRMatrix,
        *,
        alpha: int = 0,
        tracker=None,
        journal_limit: int = 4096,
    ) -> "MutableAdjacency":
        """Compress ``a`` and wrap the result."""
        cbm, _ = build_cbm(a, alpha=alpha)
        return cls(cbm, a, tracker=tracker, journal_limit=journal_limit)

    @property
    def version(self) -> int:
        """Monotone graph version: one tick per effective mutation batch."""
        with self._lock:
            return self._version

    def snapshot(self) -> tuple[int, CBMMatrix, CSRMatrix]:
        """(version, cbm, source) — immutable objects, safe to publish."""
        with self._lock:
            return self._version, self._cbm, self._source

    def apply(self, batch: EdgeBatch) -> PatchReport:
        """Patch the current pair with one edge batch; returns a report.

        Raises :class:`~repro.errors.StalenessError` when the tracker
        enforces its budget and too many patches have accumulated since
        the last rebuild, or when the replay journal would overflow —
        both mean the writer must wait for a rebuild to land.
        """
        if self.tracker is not None:
            self.tracker.check_staleness()
        t0 = time.perf_counter()
        with self._lock:
            if len(self._journal) >= self.journal_limit:
                raise StalenessError(
                    f"replay journal holds {len(self._journal)} batches "
                    f"(limit {self.journal_limit}) with no rebuild landing — "
                    "rebuilds are not keeping up with the mutation rate",
                    staleness=len(self._journal),
                    budget=self.journal_limit,
                )
            before = self._cbm.num_deltas
            cbm2, source2, stats = patch_cbm(self._cbm, self._source, batch)
            self._version += 1
            version = self._version
            self._journal.append((version, batch))
            self._cbm, self._source = cbm2, source2
            after = cbm2.num_deltas
            nnz = source2.nnz
        if self.tracker is not None:
            self.tracker.note_patch(cbm2, version=version, edges=batch.num_edges)
        return PatchReport(
            version=version,
            inserted=stats["inserted"],
            deleted=stats["deleted"],
            noops=stats["noops"],
            rows_touched=stats["rows_touched"],
            rows_patched=stats["rows_patched"],
            deltas_before=before,
            deltas_after=after,
            nnz=nnz,
            seconds=time.perf_counter() - t0,
        )

    def rebase(
        self, fresh_cbm: CBMMatrix, *, built_version: int,
        source: CSRMatrix | None = None,
    ) -> tuple[int, CBMMatrix, CSRMatrix, int]:
        """Install a fresh rebuild made from the ``built_version`` snapshot.

        Batches journaled after ``built_version`` are replayed onto the
        fresh matrix, so the installed pair is exact for the current
        version even though the builder worked off-path on an older
        snapshot.  ``source`` is the snapshot CSR the rebuild was made
        from (decompressed from the fresh CBM when omitted).  Returns
        ``(version, cbm, source, replayed)``.
        """
        with self._lock:
            if built_version > self._version:
                raise CompressionError(
                    f"rebase from the future: built_version {built_version} "
                    f"> current version {self._version}"
                )
            cbm = fresh_cbm
            source = source if source is not None else fresh_cbm.tocsr()
            replay = [b for v, b in self._journal if v > built_version]
            for b in replay:
                cbm, source, _ = patch_cbm(cbm, source, b)
            self._cbm, self._source = cbm, source
            self._journal.clear()
            version = self._version
        if self.tracker is not None:
            self.tracker.mark_rebuilt(
                fresh_cbm,
                version=version,
                live=cbm,
                replayed=len(replay),
                replayed_edges=sum(b.num_edges for b in replay),
            )
        return version, cbm, source, len(replay)
