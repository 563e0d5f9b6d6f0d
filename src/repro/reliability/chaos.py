"""Deterministic fault injection ("chaos") for the reliability layer.

Every helper here is seeded and reproducible: the test-suite uses them
to *prove* the degradation paths — corrupted archive → ``IntegrityError``,
NaN features → ``NumericalError``, corrupted tree/deltas → validation
error or CSR fallback.  Nothing in this module is imported by the
production kernels; it only *produces* corrupted inputs for them.
"""

from __future__ import annotations

import json

import numpy as np

from repro.core.cbm import CBMMatrix


# ---------------------------------------------------------------------------
# Archive corruption
# ---------------------------------------------------------------------------

def corrupt_archive(
    path, *, array: str = "delta_data", mode: str = "perturb", seed: int = 0
) -> str:
    """Tamper with one payload array of a saved CBM ``.npz`` archive.

    The archive is rewritten with the *original* meta header (stale
    checksums included), simulating bit-rot of the payload after the
    header was written.  Modes:

    ``perturb``
        Deterministically alter a handful of values in ``array``.
    ``zero``
        Zero the whole payload array.
    ``drop``
        Remove the payload array from the archive entirely.

    Returns the name of the corrupted array.
    """
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    if array not in arrays:
        raise KeyError(f"archive has no payload {array!r}: {sorted(arrays)}")
    if mode == "perturb":
        target = arrays[array].copy()
        rng = np.random.default_rng(seed)
        flat = target.reshape(-1)
        if flat.size == 0:
            raise ValueError(f"cannot perturb empty payload {array!r}")
        idx = rng.integers(0, flat.size, size=min(4, flat.size))
        if np.issubdtype(target.dtype, np.integer):
            flat[idx] = flat[idx] + 1 + rng.integers(0, 7, size=idx.size)
        else:
            flat[idx] = flat[idx] + 1.5
        arrays[array] = target
    elif mode == "zero":
        arrays[array] = np.zeros_like(arrays[array])
    elif mode == "drop":
        del arrays[array]
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")
    # Deliberately torn/corrupt output — this *is* the fault injector.
    np.savez_compressed(path, **arrays)  # staticcheck: ignore[SC501]
    return array


def read_archive_meta(path) -> dict:
    """The JSON meta header of a CBM archive (for tests/inspection)."""
    with np.load(path) as archive:
        return json.loads(bytes(archive["meta"]).decode("utf-8"))


# ---------------------------------------------------------------------------
# In-memory structure corruption
# ---------------------------------------------------------------------------

def inject_nan(x: np.ndarray, *, fraction: float = 0.01, seed: int = 0) -> np.ndarray:
    """A copy of ``x`` with a deterministic sprinkle of NaNs."""
    x = np.array(x, dtype=np.result_type(x.dtype, np.float32), copy=True)
    rng = np.random.default_rng(seed)
    flat = x.reshape(-1)
    count = max(1, int(flat.size * fraction))
    flat[rng.integers(0, flat.size, size=count)] = np.nan
    return x


def random_edge_batch(
    a,
    *,
    inserts: int = 4,
    deletes: int = 4,
    symmetric: bool = True,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """A deterministic random edge-mutation batch for ``a`` (binary CSR).

    Returns ``(ins, del)``: two ``(k, 2)`` int arrays of edges to insert
    (currently absent, no self-loops) and delete (currently present).
    With ``symmetric=True`` every edge appears with its mirror so an
    undirected adjacency stays undirected.  This is the mutation-storm
    injector: the streaming soak feeds these straight into
    :meth:`repro.streaming.MutableAdjacency.apply`.
    """
    rng = np.random.default_rng(seed)
    n, m = a.shape
    pairs_del: set[tuple[int, int]] = set()
    nnz = a.nnz
    if nnz and deletes:
        # Per-row counts and row reads, never the flat arrays, which a
        # patched streaming snapshot would have to splice first.
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(a.row_nnz(), out=indptr[1:])
        for pos in rng.integers(0, nnz, size=4 * deletes):
            u = int(np.searchsorted(indptr, pos, side="right") - 1)
            v = int(a.row(u)[pos - indptr[u]])
            if symmetric and u > v:
                u, v = v, u
            pairs_del.add((u, v))
            if len(pairs_del) >= deletes:
                break
    pairs_ins: set[tuple[int, int]] = set()
    if inserts:
        for u, v in rng.integers(0, (n, m), size=(8 * inserts, 2)):
            u, v = int(u), int(v)
            if symmetric and u > v:
                u, v = v, u
            if u == v or v in a.row(u) or (u, v) in pairs_del:
                continue
            pairs_ins.add((u, v))
            if len(pairs_ins) >= inserts:
                break

    def _expand(pairs: set[tuple[int, int]]) -> np.ndarray:
        out = []
        for u, v in sorted(pairs):
            out.append((u, v))
            if symmetric and u != v:
                out.append((v, u))
        return np.asarray(out, dtype=np.int64).reshape(-1, 2)

    return _expand(pairs_ins), _expand(pairs_del)


def corrupt_deltas(cbm: CBMMatrix, *, mode: str = "nan", seed: int = 0) -> None:
    """Corrupt the delta values of ``cbm`` **in place** (plans invalidated).

    ``nan`` poisons a few stored deltas with NaN (detectable by the
    guard's output scan); ``sign`` flips delta signs (numerically wrong
    but structurally valid — exactly the class of corruption only a
    reference product can catch, which is why the guard validates
    against finite-ness and the chaos tests compare to CSR).
    """
    data = cbm.delta.data
    if data.size == 0:
        raise ValueError("matrix has no deltas to corrupt")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, data.size, size=max(1, data.size // 8))
    if mode == "nan":
        data[idx] = np.nan
    elif mode == "sign":
        data[idx] = -data[idx]
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")
    cbm.invalidate()


def corrupt_tree_parents(parent: np.ndarray, *, mode: str = "cycle", seed: int = 0) -> np.ndarray:
    """A corrupted copy of a compression-tree parent array.

    ``cycle`` wires two rows into a 2-cycle; ``out_of_range`` points a
    row at a non-existent parent.  Constructing a
    :class:`~repro.core.tree.CompressionTree` from the result must raise
    :class:`~repro.errors.TreeError`.
    """
    bad = np.array(parent, copy=True)
    if bad.size < 2:
        raise ValueError("need at least two rows to corrupt a tree")
    rng = np.random.default_rng(seed)
    x = int(rng.integers(0, bad.size - 1))
    if mode == "cycle":
        bad[x], bad[x + 1] = x + 1, x
    elif mode == "out_of_range":
        bad[x] = bad.size + 17
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")
    return bad
