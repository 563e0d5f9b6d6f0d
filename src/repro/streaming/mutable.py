"""Incremental CBM maintenance under streaming edge mutations.

The paper's Section V-B branch decomposition makes delta-set edits
*locally contained*: row ``u``'s delta sets are diffs against its parent
row only, so toggling edge ``(u, v)`` can change at most the delta rows
of ``u`` itself and of ``u``'s direct children (whose diffs are taken
against ``u``'s content).  :func:`patch_cbm` exploits exactly that — an
edge batch is applied by recomputing only the affected rows' delta sets
and splicing them into fresh delta arrays, leaving every other row's
storage byte-identical.  What a patch costs:

* the edits and the delta extraction read only the mutated rows and the
  affected rows with their parents (:func:`~repro.core.deltas.delta_rows`,
  through the source's rows), so they cost the batch plus those rows'
  nnz;
* the source is not copied: the new snapshot's source shares its
  predecessor's flat base CSR and carries every row replaced since that
  base beside it (a table of at most a quarter of the rows; a patch
  that would pass that folds the rows into a new flat base, one
  O(n + nnz) copy);
* the source's flat ``indptr``/``indices``/``data`` are spliced once, by
  whoever reads them first (a rebuild, a CSR product, an audit), and
  then serve as the next patch's base;
* the delta arrays are one O(n + nnz(Δ)) copy, one slice per kept span
  (one O(n) mask over the parent array also finds the mutated rows'
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
from repro.utils.validation import ensure_array

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


# A patch whose snapshot would carry more replaced rows than this share of
# all rows folds them into a fresh flat base instead, so the row table
# each patch copies stays bounded when nothing reads the flat form.
_FOLD_SHARE = 0.25


def _splice_rows(
    csr: CSRMatrix,
    rows: list[int],
    indices: list[np.ndarray],
    data: list[np.ndarray] | None = None,
) -> CSRMatrix:
    """A new CSR with rows ``rows`` (ascending) replaced by ``indices``,
    valued ``data`` (ones when None).

    Each kept span between two replaced rows is copied as one slice, so
    the Python work is per replaced row and the copy is one pass over the
    arrays.
    """
    ptr = csr.indptr
    cuts = np.concatenate(([0], np.add(rows, 1), [len(ptr)]))
    lo, hi = ptr[cuts[1:-1] - 1], ptr[cuts[1:-1]]
    # Every pointer after a replaced row moves by the replaced rows'
    # summed growth so far.
    growth = np.cumsum([0] + [len(idx) for idx in indices])
    growth[1:] -= np.cumsum(hi - lo)
    indptr = ptr + np.repeat(growth, cuts[1:] - cuts[:-1])
    lo, hi = lo.tolist(), hi.tolist()
    if data is None:
        ones = np.ones(max(map(len, indices), default=0), dtype=csr.data.dtype)
        data = [ones[: len(idx)] for idx in indices]
    idx_parts: list[np.ndarray] = []
    val_parts: list[np.ndarray] = []
    prev = 0
    for start, stop, idx, val in zip(lo, hi, indices, data, strict=True):
        idx_parts += (csr.indices[prev:start], idx)
        val_parts += (csr.data[prev:start], val)
        prev = stop
    idx_parts.append(csr.indices[prev:])
    val_parts.append(csr.data[prev:])
    return CSRMatrix(
        indptr,
        np.concatenate(idx_parts, dtype=csr.indices.dtype),
        np.concatenate(val_parts, dtype=csr.data.dtype),
        csr.shape,
        check=False,
    )


def _fold(base: CSRMatrix, rows: dict[int, np.ndarray]) -> CSRMatrix:
    """One flat CSR: ``base`` with the replaced ``rows`` (valued one)."""
    keys = sorted(rows)
    return _splice_rows(base, keys, [rows[r] for r in keys])


class _PatchedCSR(CSRMatrix):
    """A patched snapshot's source: a flat base CSR, shared with earlier
    snapshots, plus the rows replaced since it (valued one).

    ``row``, ``row_nnz``, ``extract_rows``, ``nnz`` and ``shape`` are
    answered from the pair.  The flat ``indptr``, ``indices`` and
    ``data`` are spliced on first access, under a lock, and then stand in
    for the pair as a base with no replaced rows, in one reference swap:
    a concurrent reader sees the old pair or the new one, never a mix,
    and every reader gets the same arrays.
    """

    __slots__ = ("_view", "_nnz", "_lock")

    def __init__(self, base: CSRMatrix, rows: dict[int, np.ndarray], nnz: int):
        self.shape = base.shape
        self._view = (base, rows)
        self._nnz = nnz
        self._lock = threading.Lock()

    def _flat(self) -> CSRMatrix:
        base, rows = self._view
        if rows:
            with self._lock:
                base, rows = self._view
                if rows:
                    base = _fold(base, rows)
                    self._view = (base, {})
        return base

    indptr = property(lambda self: self._flat().indptr)
    indices = property(lambda self: self._flat().indices)
    data = property(lambda self: self._flat().data)

    @property
    def nnz(self) -> int:
        return self._nnz

    def row(self, i: int) -> np.ndarray:
        base, rows = self._view
        idx = rows.get(i)
        return base.row(i) if idx is None else idx

    def row_nnz(self) -> np.ndarray:
        base, rows = self._view
        counts = base.row_nnz()
        if rows:
            counts[list(rows)] = [len(idx) for idx in rows.values()]
        return counts

    def extract_rows(self, rows) -> CSRMatrix:
        base, replaced = self._view
        if not replaced:
            return base.extract_rows(rows)
        rows = ensure_array(rows, dtype=np.int64, name="rows").ravel()
        if len(rows) and (rows.min() < 0 or rows.max() >= self.shape[0]):
            raise ShapeError(f"row indices out of range for {self.shape}")
        # One slice per picked row: for the few rows a patch reads this is
        # cheaper than the base's ragged gather with the replaced rows
        # spliced in afterwards.
        ptr, ind, val = base.indptr, base.indices, base.data
        hits = [replaced.get(r) for r in rows.tolist()]
        spans = list(zip(hits, ptr[rows].tolist(), ptr[rows + 1].tolist()))
        ones = np.ones(max((len(h) for h in hits if h is not None), default=0), val.dtype)
        idx_parts = [ind[lo:hi] if h is None else h for h, lo, hi in spans]
        val_parts = [val[lo:hi] if h is None else ones[: len(h)] for h, lo, hi in spans]
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([len(idx) for idx in idx_parts], out=indptr[1:])
        return CSRMatrix(
            indptr,
            np.concatenate([ind[:0], *idx_parts]),
            np.concatenate([val[:0], *val_parts]),
            (len(rows), self.shape[1]),
            check=False,
        )

    def __reduce__(self):
        return CSRMatrix, (self.indptr, self.indices, self.data, self.shape)


def _edit_rows(source: CSRMatrix, batch: EdgeBatch):
    """Fold a batch into the rows it changes, with NumPy over the batch
    and the mutated rows only.

    Returns ``(rows, counts)``: the new column indices of every row the
    batch effectively changes, and the inserted/deleted/no-op counts.
    """
    m = source.shape[1]
    ins = np.unique(batch.inserts[:, 0] * m + batch.inserts[:, 1])
    dels = np.unique(batch.deletes[:, 0] * m + batch.deletes[:, 1])
    both = set(ins.tolist()).intersection(dels.tolist())
    if both:
        raise CompressionError(
            f"edge(s) {sorted(divmod(k, m) for k in both)} appear in both the "
            "insert and delete sets of one batch — ordering is ambiguous"
        )
    touched = np.unique(np.concatenate([ins, dels]) // m)
    old = [source.row(u) for u in touched.tolist()]
    old_keys = np.repeat(touched * m, [len(r) for r in old]) + np.concatenate([*old, ins[:0]])
    # Membership by binary search in the sorted old keys; the padded
    # last slot answers "past the end" and matches no key.
    padded = np.append(old_keys, -1)
    at_ins = np.searchsorted(old_keys, ins)
    at_del = np.searchsorted(old_keys, dels)
    real_ins = ins[padded[at_ins] != ins]
    real_del = padded[at_del] == dels
    keep = np.ones(len(old_keys), dtype=bool)
    keep[at_del[real_del]] = False
    new_keys = np.sort(np.concatenate([old_keys[keep], real_ins]))
    changed = np.unique(np.concatenate([real_ins, dels[real_del]]) // m)
    lo = np.searchsorted(new_keys, changed * m).tolist()
    hi = np.searchsorted(new_keys, (changed + 1) * m).tolist()
    cols = new_keys % m
    rows = {u: cols[a:b] for u, a, b in zip(changed.tolist(), lo, hi)}
    inserted, deleted = len(real_ins), int(real_del.sum())
    return rows, {
        "inserted": inserted,
        "deleted": deleted,
        "noops": batch.num_edges - inserted - deleted,
        "rows_touched": len(rows),
    }


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

    The returned source shares ``source``'s storage and holds the
    mutated rows beside it; its flat arrays are built when first read.

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

    new_rows, stats = _edit_rows(source, batch)
    if not new_rows:
        stats["rows_patched"] = 0
        return cbm, source, stats

    base, rows = source._view if isinstance(source, _PatchedCSR) else (source, {})
    rows = {**rows, **new_rows}
    if len(rows) > _FOLD_SHARE * n:
        source2 = _fold(base, rows)
    else:
        nnz = source.nnz + stats["inserted"] - stats["deleted"]
        source2 = _PatchedCSR(base, rows, nnz)
    # Affected delta rows: the mutated rows plus their direct children
    # (a child's delta sets are diffs against the mutated content).
    parent = cbm.tree.parent
    mutated = np.zeros(n + 1, dtype=bool)  # the last slot answers parent VIRTUAL
    mutated[list(new_rows)] = True
    affected = np.flatnonzero(mutated[:n] | mutated[parent])
    block = delta_rows(source2, parent, affected)
    new_weight = cbm.tree.weight.copy()
    new_weight[affected] = block.row_nnz()
    bp = block.indptr.tolist()
    spans = list(zip(bp, bp[1:]))
    delta2 = _splice_rows(
        cbm.delta,
        affected.tolist(),
        [block.indices[a:b] for a, b in spans],
        [block.data[a:b] for a, b in spans],
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
