"""Patched snapshots against an eager oracle (hypothesis).

A patched snapshot's source keeps a flat base plus the rows replaced
since it, and builds its flat arrays only when they are first read.  The
oracle here is the eager writer it replaced: fold each row's edits
through Python sets, then splice a full copy of the source.  Every step
of a random chain — batches with no-ops and repeats, flat reads at
random points, folds past the overlay bound, rebases that replay the
journal onto a flat rebuild source — must leave the snapshot equal to
the oracle row by row, in its counts and, when read, in its flat arrays
and their dtypes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import build_cbm
from repro.sparse.csr import CSRMatrix
from repro.streaming import EdgeBatch, MutableAdjacency
from repro.streaming.mutable import _FOLD_SHARE, _PatchedCSR

from tests.conftest import random_adjacency_csr


def eager_patch(source: CSRMatrix, batch: EdgeBatch):
    """The eager writer: per-row set folds, then a full spliced copy.

    Returns ``(csr, (inserted, deleted, noops))``; ``source`` itself when
    the batch changes nothing.
    """
    adds: dict[int, set[int]] = {}
    rems: dict[int, set[int]] = {}
    noops = 0
    for edges, cols_of in ((batch.inserts, adds), (batch.deletes, rems)):
        for u, v in edges.tolist():
            cols = cols_of.setdefault(u, set())
            noops += v in cols
            cols.add(v)
    new_rows: dict[int, np.ndarray] = {}
    inserted = deleted = 0
    for u in sorted(adds.keys() | rems.keys()):
        old = set(source.row(u).tolist())
        add, rem = adds.get(u, set()), rems.get(u, set())
        real_add, real_rem = add - old, rem & old
        noops += len(add) - len(real_add) + len(rem) - len(real_rem)
        if real_add or real_rem:
            inserted += len(real_add)
            deleted += len(real_rem)
            new_rows[u] = np.array(sorted((old - real_rem) | real_add), dtype=np.int64)
    counts = (inserted, deleted, noops)
    if not new_rows:
        return source, counts
    ptr = source.indptr
    lengths = np.diff(ptr)
    idx_parts, val_parts, prev = [], [], 0
    for r in sorted(new_rows):
        idx_parts += [source.indices[ptr[prev] : ptr[r]], new_rows[r]]
        val_parts += [
            source.data[ptr[prev] : ptr[r]],
            np.ones(len(new_rows[r]), dtype=source.data.dtype),
        ]
        lengths[r] = len(new_rows[r])
        prev = r + 1
    idx_parts.append(source.indices[ptr[prev] :])
    val_parts.append(source.data[ptr[prev] :])
    indptr = np.zeros(len(ptr), dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    out = CSRMatrix(
        indptr, np.concatenate(idx_parts), np.concatenate(val_parts), source.shape, check=False
    )
    return out, counts


def assert_rows_match(snap: CSRMatrix, want: CSRMatrix) -> None:
    """Row reads, counts and a row gather: none of them may flatten."""
    assert snap.shape == want.shape
    assert snap.nnz == want.nnz
    assert np.array_equal(snap.row_nnz(), want.row_nnz())
    for u in range(want.shape[0]):
        got = snap.row(u)
        assert got.dtype == np.int64
        assert np.array_equal(got, want.row(u)), u
    picked = np.arange(want.shape[0])[::-1]
    got, ref = snap.extract_rows(picked), want.extract_rows(picked)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name


def assert_flat_match(snap: CSRMatrix, want: CSRMatrix) -> None:
    for name in ("indptr", "indices", "data"):
        got, ref = getattr(snap, name), getattr(want, name)
        assert got.dtype == ref.dtype, name
        assert np.array_equal(got, ref), name


def edge_lists(n: int):
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return st.lists(pair, max_size=10)


@st.composite
def chains(draw):
    n = draw(st.integers(4, 24))
    graph = (n, draw(st.sampled_from([0.1, 0.25, 0.4])), draw(st.integers(0, 10**6)))
    step = st.one_of(
        st.tuples(st.just("random"), st.integers(0, 6), st.booleans(), st.integers(0, 10**6)),
        st.tuples(st.just("raw"), edge_lists(n), edge_lists(n)),
        st.tuples(st.just("flatten")),
        st.tuples(st.just("rebase"), st.integers(0, 10**6)),
    )
    return graph, draw(st.sampled_from([0, 2])), draw(st.lists(step, min_size=1, max_size=30))


class TestOverlayChain:
    @given(chains())
    @settings(max_examples=80, deadline=None)
    def test_snapshots_match_eager_oracle(self, case):
        (n, density, seed), alpha, steps = case
        a = random_adjacency_csr(n, density=density, seed=seed)
        mutable = MutableAdjacency.from_graph(a, alpha=alpha, journal_limit=10**6)
        oracle = a
        history = [(0, a)]  # (version, oracle source) after each effective batch
        for step in steps:
            kind = step[0]
            if kind == "flatten":
                assert_flat_match(mutable.snapshot()[2], oracle)
                continue
            if kind == "rebase":
                version, built = history[step[1] % len(history)]
                flat = CSRMatrix(built.indptr, built.indices, built.data, built.shape)
                fresh, _ = build_cbm(flat, alpha=alpha)
                mutable.rebase(fresh, built_version=version, source=flat)
                # The journal is cleared: later rebuilds start from here.
                history = history[-1:]
            else:
                if kind == "random":
                    k, symmetric, s = step[1:]
                    batch = EdgeBatch.random(
                        oracle, inserts=k, deletes=k, symmetric=symmetric, seed=s
                    )
                else:
                    ins, dels = step[1], step[2]
                    batch = EdgeBatch(ins, [e for e in dels if e not in set(ins)])
                report = mutable.apply(batch)
                oracle, counts = eager_patch(oracle, batch)
                assert (report.inserted, report.deleted, report.noops) == counts
                history.append((report.version, oracle))
            version, cbm, snap = mutable.snapshot()
            assert version == history[-1][0]
            assert_rows_match(snap, oracle)
            assert np.array_equal(cbm.tocsr().toarray(), oracle.toarray())
        assert_flat_match(mutable.snapshot()[2], oracle)

    def test_chain_folds_past_the_bound_and_rebases_flat(self):
        """A long chain with no flat reads folds whenever the overlay
        passes the bound, and flat reads start the next overlay afresh."""
        a = random_adjacency_csr(40, density=0.2, seed=3)
        mutable = MutableAdjacency.from_graph(a, journal_limit=10**6)
        oracle, folds, largest = a, 0, 0
        for seed in range(60):
            batch = EdgeBatch.random(oracle, inserts=3, deletes=3, seed=seed)
            was = mutable.snapshot()[2]
            mutable.apply(batch)
            oracle, _ = eager_patch(oracle, batch)
            snap = mutable.snapshot()[2]
            if isinstance(snap, _PatchedCSR):
                largest = max(largest, len(snap._view[1]))
            elif isinstance(was, _PatchedCSR) and snap is not was:
                folds += 1
            assert_rows_match(snap, oracle)
            if seed == 45:
                assert_flat_match(snap, oracle)
                assert snap._view[1] == {}
        assert folds >= 2
        assert largest <= _FOLD_SHARE * a.shape[0]
        assert_flat_match(mutable.snapshot()[2], oracle)
