"""The compiled Chu–Liu/Edmonds rounds and the NumPy rounds they replace.

``tests/unit/test_core_mst_arborescence.py`` holds both paths to the
round-by-round reference on tie-heavy graphs; these tests cover whole
builds, edge inputs, what the wrapper keeps away from the C code, and
that the compiled path is the one that runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import arborescence
from repro.core.arborescence import minimum_arborescence
from repro.core.builder import build_cbm, build_clustered
from repro.core.distance import DistanceGraph
from repro.errors import CompressionError
from repro.graphs.datasets import load_dataset
from repro.graphs.laplacian import gcn_normalization
from repro.runtime import native

from tests.unit.test_core_mst_arborescence import reference_minimum_arborescence


@pytest.fixture
def compiled():
    if native.load() is None:
        pytest.skip("no C compiler: the compiled rounds are unavailable")


def _on_numpy(fn, *args, **kwargs):
    """``fn`` with the library unavailable, so the NumPy rounds run."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(native, "load", lambda: None)
        return fn(*args, **kwargs)


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _graph(n, src=(), dst=(), weight=(), row_nnz=None, directed=True) -> DistanceGraph:
    return DistanceGraph(
        n=n,
        src=np.asarray(src, dtype=np.int64),
        dst=np.asarray(dst, dtype=np.int64),
        weight=np.asarray(weight, dtype=np.int64),
        row_nnz=np.full(n, 3, dtype=np.int64) if row_nnz is None else np.asarray(row_nnz),
        directed=directed,
        alpha=1 if directed else None,
    )


class _Unreachable:
    """A stand-in library whose arborescence must never be called."""

    def cbm_arborescence(self, *args):
        raise AssertionError("the input reached the C code")


class _Status:
    """A stand-in library whose arborescence returns ``status``."""

    def __init__(self, status):
        self.status = status

    def cbm_arborescence(self, *args):
        return self.status


@pytest.mark.parametrize("variant", ["A", "DAD"])
@pytest.mark.parametrize("name", ["Cora", "PubMed", "ca-HepPh"])
def test_alpha4_build_is_byte_identical_on_both_paths(compiled, name, variant):
    a = load_dataset(name)
    kwargs = {}
    if variant == "DAD":
        a, d = gcn_normalization(a)
        kwargs = {"variant": "DAD", "diag": d}
    ours, _ = build_cbm(a, alpha=4, **kwargs)
    theirs, _ = _on_numpy(build_cbm, a, alpha=4, **kwargs)
    assert _same_bytes(ours.tree.parent, theirs.tree.parent)
    assert _same_bytes(ours.tree.weight, theirs.tree.weight)
    for array in ("indptr", "indices", "data"):
        assert _same_bytes(getattr(ours.delta, array), getattr(theirs.delta, array))


EDGE_INPUTS = {
    "no rows": _graph(0),
    "one row": _graph(1),
    "no real edges": _graph(5),
    "duplicated and reversed edges": _graph(
        4,
        src=[0, 0, 1, 1, 2, 3, 3, 0],
        dst=[1, 1, 0, 0, 3, 2, 2, 1],
        weight=[1, 0, 1, 1, 2, 1, 1, 0],
        row_nnz=[2, 2, 3, 3],
    ),
    "undirected": _graph(
        5, src=[1, 2, 3, 4, 4], dst=[0, 1, 2, 3, 0], weight=[1, 1, 0, 2, 1], directed=False
    ),
}


@pytest.mark.parametrize("case", sorted(EDGE_INPUTS))
def test_edge_inputs_match_reference_on_both_paths(compiled, case):
    g = EDGE_INPUTS[case]
    ref = reference_minimum_arborescence(g)
    for tree in (minimum_arborescence(g), _on_numpy(minimum_arborescence, g)):
        assert _same_bytes(tree.parent, ref.parent)
        assert _same_bytes(tree.weight, ref.weight)


MALFORMED = {
    "destination = n": _graph(3, src=[0], dst=[3], weight=[1]),
    "source = n": _graph(3, src=[3], dst=[0], weight=[1]),
    "source > n": _graph(3, src=[4], dst=[0], weight=[1]),
    "negative source": _graph(3, src=[-1], dst=[0], weight=[1]),
    "negative destination": _graph(3, src=[0], dst=[-1], weight=[1]),
    "negative weight": _graph(3, src=[0, 1], dst=[1, 0], weight=[-5, 1]),
    "negative row nnz": _graph(3, src=[0], dst=[1], weight=[1], row_nnz=[2, -2, 2]),
    "self-loop": _graph(3, src=[1], dst=[1], weight=[0]),
    "length mismatch": _graph(3, src=[0, 1], dst=[1], weight=[1, 1]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_never_reaches_c(monkeypatch, case):
    """``DistanceGraph.validate`` refuses it first, on both paths."""
    g = MALFORMED[case]
    with pytest.raises(CompressionError):
        _on_numpy(minimum_arborescence, g)
    monkeypatch.setattr(native, "load", _Unreachable)
    with pytest.raises(CompressionError):
        minimum_arborescence(g)


@pytest.mark.parametrize(
    "status, error",
    [(native.ARBORESCENCE_NOMEM, MemoryError), (native.ARBORESCENCE_DIVERGED, CompressionError)],
)
def test_failure_status_raises(monkeypatch, status, error):
    monkeypatch.setattr(native, "load", lambda: _Status(status))
    with pytest.raises(error):
        minimum_arborescence(EDGE_INPUTS["duplicated and reversed edges"])


def test_alpha_build_runs_the_compiled_rounds(compiled, monkeypatch):
    def numpy_rounds(*args):
        raise AssertionError("the NumPy rounds ran")

    monkeypatch.setattr(arborescence, "_numpy_rounds", numpy_rounds)
    cbm, _ = build_cbm(load_dataset("ca-HepPh"), alpha=4)
    assert cbm.tree.n == load_dataset("ca-HepPh").shape[0]


def test_concurrent_clustered_builds_match_serial(compiled):
    """Two builds in the C code at once (ctypes releases the GIL) give
    the bits of one at a time."""
    a = load_dataset("ca-HepPh")
    serial, _ = build_clustered(a, alpha=2, cluster_size=512, workers=1)
    threaded, _ = build_clustered(a, alpha=2, cluster_size=512, workers=2)
    assert _same_bytes(serial.tree.parent, threaded.tree.parent)
    assert _same_bytes(serial.tree.weight, threaded.tree.weight)
    for array in ("indptr", "indices", "data"):
        assert _same_bytes(getattr(serial.delta, array), getattr(threaded.delta, array))


def test_failed_build_falls_back_to_the_numpy_rounds(monkeypatch, tmp_path, compiled):
    g = EDGE_INPUTS["duplicated and reversed edges"]
    want = minimum_arborescence(g)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(native, "CC", str(tmp_path / "no-such-cc"))
    native.load.cache_clear()
    try:
        with pytest.warns(
            RuntimeWarning,
            match=r"level walk, candidate edges SciPy's A @ A\.T and arborescences the NumPy",
        ):
            tree = minimum_arborescence(g)
    finally:
        native.load.cache_clear()
    assert _same_bytes(tree.parent, want.parent)
    assert _same_bytes(tree.weight, want.weight)
