"""The compiled candidate stage and the SciPy path it replaces.

``tests/property/test_prop_native_candidates.py`` holds the two paths to
each other on random matrices; these tests cover whole builds, the
fallback, what the wrapper keeps away from the C code (malformed CSR
arrays away from both paths), and that the compiled path is the one
that runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import distance
from repro.core.builder import build_cbm
from repro.core.distance import candidate_edges
from repro.errors import FormatError
from repro.graphs.datasets import load_dataset
from repro.graphs.laplacian import gcn_normalization
from repro.runtime import native
from repro.sparse.convert import from_dense
from repro.sparse.csr import CSRMatrix

from tests.conftest import random_binary_csr, same_graph


@pytest.fixture
def compiled():
    if native.load() is None:
        pytest.skip("no C compiler: the compiled candidate stage is unavailable")


class _Unreachable:
    """A stand-in library whose candidate stage must never be called."""

    def cbm_candidates(self, *args):
        raise AssertionError("the input reached the C code")


def _outcome(a, alpha):
    """The graph's arrays, or the exception's type and message."""
    try:
        g = candidate_edges(a, alpha)
    except Exception as exc:
        return type(exc), str(exc)
    return tuple(getattr(g, k).tobytes() for k in ("src", "dst", "weight", "row_nnz"))


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _csr(indptr, indices, shape, data=None) -> CSRMatrix:
    """An unchecked CSR matrix of ones, malformed or not."""
    indices = np.asarray(indices, dtype=np.int64)
    data = np.ones(len(indices), dtype=np.float32) if data is None else np.asarray(data)
    return CSRMatrix(np.asarray(indptr, dtype=np.int64), indices, data, shape, check=False)


@pytest.mark.parametrize("alpha", [0, 4])
@pytest.mark.parametrize("variant", ["A", "DAD"])
@pytest.mark.parametrize("name", ["Cora", "PubMed", "ca-HepPh"])
def test_build_is_byte_identical_on_both_paths(compiled, monkeypatch, name, variant, alpha):
    a = load_dataset(name)
    kwargs = {}
    if variant == "DAD":
        a, d = gcn_normalization(a)
        kwargs = {"variant": "DAD", "diag": d}
    ours, _ = build_cbm(a, alpha=alpha, **kwargs)
    monkeypatch.setattr(distance, "_compiled_candidates", lambda *args: None)
    theirs, _ = build_cbm(a, alpha=alpha, **kwargs)
    assert _same_bytes(ours.tree.parent, theirs.tree.parent)
    assert _same_bytes(ours.tree.weight, theirs.tree.weight)
    for array in ("indptr", "indices", "data"):
        assert _same_bytes(getattr(ours.delta, array), getattr(theirs.delta, array))


@pytest.mark.parametrize("alpha", [None, 4])
def test_capacity_does_not_change_the_graph(compiled, alpha):
    """Buffers too small for the whole graph, or for one row's edges,
    make the call resume at a row boundary with the same output."""
    a = load_dataset("ca-HepPh")
    want = distance._scipy_candidates(a, alpha)
    for capacity in (None, a.shape[0], 64, 1):
        g = distance._compiled_candidates(a, alpha, capacity=capacity)
        assert same_graph(g, want), capacity


def test_rows_spread_wide_are_sorted(compiled):
    """A row whose touched rows span many more 64-row words than there
    are of them takes the sort, not the bitmap: row 0 meets 29 rows spread
    over 9000, walked as two interleaved ascending runs."""
    n = 9000
    d = np.zeros((n, 2), dtype=np.float32)
    d[0:n:600, 0] = 1
    d[300:n:600, 1] = 1
    d[0, 1] = 1
    a = from_dense(d)
    for alpha in (None, 0):
        want = distance._scipy_candidates(a, alpha)
        assert want.num_edges > 0
        assert same_graph(distance._compiled_candidates(a, alpha), want)


def test_library_unavailable_gives_the_same_graph(monkeypatch):
    a = random_binary_csr(40, density=0.3, seed=5)
    want = {alpha: candidate_edges(a, alpha) for alpha in (None, 0, 2)}
    monkeypatch.setattr(native, "load", lambda: None)
    for alpha, g in want.items():
        assert same_graph(candidate_edges(a, alpha), g)


def test_build_runs_the_compiled_pass(compiled, monkeypatch):
    def scipy_candidates(*args):
        raise AssertionError("the SciPy path ran")

    monkeypatch.setattr(distance, "_scipy_candidates", scipy_candidates)
    a = load_dataset("ca-HepPh")
    for alpha in (0, 4):
        cbm, _ = build_cbm(a, alpha=alpha)
        assert cbm.tree.n == a.shape[0]


# SciPy's kernels read or write out of bounds on the last three (a 2x2
# matrix with column index 2 ends the process), so these never reach
# either path.
MALFORMED = {
    "indptr too short": _csr([0, 1], [0], (2, 2)),
    "indptr not from 0": _csr([1, 1, 2], [0, 1], (2, 2)),
    "indptr short of nnz": _csr([0, 1, 2], [0, 1, 1], (2, 2)),
    "indptr past nnz": _csr([0, 1, 3], [0, 1], (2, 2)),
    "data shorter than indices": _csr([0, 1, 2], [0, 1], (2, 2), data=[1.0]),
    "indptr falls": _csr([0, 2, 1, 3], [0, 1, 1], (3, 3)),
    "negative column": _csr([0, 1, 2], [-1, 0], (2, 2)),
    "column = m": _csr([0, 1, 2], [2, 0], (2, 2)),
}


@pytest.mark.parametrize("library", ["compiled", "none"])
@pytest.mark.parametrize("alpha", [None, 1])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_raises_before_either_path(monkeypatch, case, alpha, library):
    def scipy_candidates(*args):
        raise AssertionError("the input reached the SciPy path")

    monkeypatch.setattr(native, "load", _Unreachable if library == "compiled" else lambda: None)
    monkeypatch.setattr(distance, "_scipy_candidates", scipy_candidates)
    with pytest.raises(FormatError):
        candidate_edges(MALFORMED[case], alpha)


def test_walk_past_the_counter_bound_never_reaches_c(monkeypatch):
    """A row whose walk could overflow an int32 counter takes the SciPy
    path; the bound is lowered so a small matrix crosses it."""
    a = _csr([0, 3, 5, 6], [0, 1, 2, 0, 1, 0], (3, 3))  # row 0 walks 3 + 2 + 1
    want = {alpha: _outcome(a, alpha) for alpha in (None, 0)}
    monkeypatch.setattr(distance, "_MAX_WALK", 5)
    monkeypatch.setattr(native, "load", _Unreachable)
    for alpha in (None, 0):
        assert _outcome(a, alpha) == want[alpha]


def test_non_integer_alpha_takes_the_scipy_path(monkeypatch):
    a = random_binary_csr(30, density=0.3, seed=6)
    want = _outcome(a, 1.5)
    monkeypatch.setattr(native, "load", _Unreachable)
    assert _outcome(a, 1.5) == want
