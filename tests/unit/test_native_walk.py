"""The compiled library's loader and the update stage's fallback.

The walk itself is held to the NumPy level walk by
``tests/property/test_prop_native_walk.py``, and the arborescence rounds
to the NumPy rounds by ``tests/unit/test_native_arborescence.py``; these
tests cover how the library is found, built, cached and refused, and
that every refusal lands on the NumPy walk with the same answer.
"""

from __future__ import annotations

import fnmatch
import threading
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from repro.core.builder import build_cbm
from repro.core.tree import VIRTUAL, CompressionTree
from repro.runtime import native
from repro.runtime.plan import apply_level_schedule

from tests.conftest import random_adjacency_csr

N = 60


@pytest.fixture
def fresh_loader():
    """Forget the process's loaded library before and after the test, so
    the test sees first use and later tests reload the real one."""
    native.load.cache_clear()
    yield
    native.load.cache_clear()


@pytest.fixture
def compiled():
    if native.load() is None:
        pytest.skip("no C compiler: the compiled walk is unavailable")


def _dad_cbm():
    a = random_adjacency_csr(N, density=0.2, seed=3)
    diag = np.random.default_rng(4).random(N) + 0.5
    cbm, _ = build_cbm(a, alpha=2, variant="DAD", diag=diag)
    return cbm


def _chain_tree(n=12):
    parent = np.arange(-1, n - 1, dtype=np.int64)
    parent[0] = VIRTUAL
    return CompressionTree(parent=parent)


def _walks_like_numpy(lib) -> bool:
    tree = _chain_tree()
    c = np.arange(3 * tree.n, dtype=np.float32).reshape(tree.n, 3)
    want = c.copy()
    apply_level_schedule(want, tree.level_pairs())
    return native.NativeWalk(lib, tree)(c) and np.array_equal(c, want)


class TestFallback:
    @pytest.mark.parametrize("failure", ["no-compiler", "compile-error"])
    def test_failed_build_gives_the_same_answer(
        self, monkeypatch, tmp_path, compiled, failure
    ):
        cbm = _dad_cbm()
        x = np.random.default_rng(5).integers(-4, 5, (N, 6)).astype(np.float32)
        v = x[:, 0].copy()
        assert cbm.plan().describe()["update"] == "native"
        want, want_v = cbm.matmul(x).copy(), cbm.matvec(v)

        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        if failure == "no-compiler":
            monkeypatch.setattr(native, "CC", str(tmp_path / "no-such-cc"))
        else:
            monkeypatch.setattr(native, "FLAGS", (*native.FLAGS, "-fno-such-flag"))
        native.load.cache_clear()
        try:
            cbm.invalidate()
            with pytest.warns(RuntimeWarning, match="NumPy level walk"):
                plan = cbm.plan()
        finally:
            native.load.cache_clear()
        assert plan.describe()["update"] == "numpy"
        assert cbm.matmul(x).tobytes() == want.tobytes()
        assert cbm.matvec(v).tobytes() == want_v.tobytes()
        # A failed compile leaves no temp file in the cache.
        assert not [p for p in (tmp_path / "repro").iterdir() if p.suffix == ".tmp"]


class TestLoader:
    def test_concurrent_first_use_loads_one_valid_library(
        self, monkeypatch, tmp_path, compiled, fresh_loader
    ):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        threads = 4
        start = threading.Barrier(threads)
        libs: list = [None] * threads
        errors: list[BaseException] = []

        def first_use(i):
            try:
                start.wait(timeout=30)
                libs[i] = native.load()
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        workers = [threading.Thread(target=first_use, args=(i,)) for i in range(threads)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=300)
        assert not any(t.is_alive() for t in workers)
        assert not errors
        assert all(lib is not None and _walks_like_numpy(lib) for lib in libs)
        built = sorted(p.name for p in (tmp_path / "repro").iterdir())
        assert len(built) == 1 and fnmatch.fnmatch(built[0], "native-*.so")

    def test_unwritable_cache_builds_in_a_temp_dir(self, monkeypatch, tmp_path, fresh_loader):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        assert native.cache_dir() is None
        lib = native.load()
        if lib is None:
            pytest.skip("no C compiler: the compiled walk is unavailable")
        assert _walks_like_numpy(lib)

    def test_rebuild_reuses_the_cached_library(self, tmp_path, compiled):
        first = native.build(tmp_path)
        mtime = first.stat().st_mtime_ns
        assert native.build(tmp_path) == first
        assert first.stat().st_mtime_ns == mtime

    def test_source_ships_as_package_data(self):
        for name in native.SOURCES:
            src = resources.files("repro.runtime").joinpath(name)
            assert src.is_file()
            assert src.read_bytes() in native.source()
        for symbol in (b"cbm_walk_f32", b"cbm_walk_f64", b"cbm_candidates", b"cbm_arborescence"):
            assert symbol in native.source()
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
        package_data = tomllib.loads(pyproject.read_text())["tool"]["setuptools"]["package-data"]
        for name in native.SOURCES:
            assert any(fnmatch.fnmatch(name, pat) for pat in package_data["repro.runtime"])

    def test_library_missing_a_symbol_is_refused(
        self, monkeypatch, tmp_path, compiled, fresh_loader
    ):
        """A library without every symbol does not load at all, so no
        caller binds half of it; the one warning names every fallback."""
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        every = native.SOURCES
        pairs = (("candidates.c", "cbm_candidates"), ("arborescence.c", "cbm_arborescence"))
        for missing, symbol in pairs:
            monkeypatch.setattr(native, "SOURCES", tuple(f for f in every if f != missing))
            native.load.cache_clear()
            with pytest.warns(RuntimeWarning, match=symbol) as caught:
                assert native.load() is None
            assert len(caught) == 1
            message = str(caught[0].message)
            for fallback in ("NumPy level walk", "SciPy's A @ A.T", "arborescences the NumPy"):
                assert fallback in message
            assert native.load() is None


def _refused_layouts(n):
    base = np.arange(n * 4, dtype=np.float32).reshape(n, 4)
    readonly = base.copy()
    readonly.flags.writeable = False
    return {
        "fortran": np.asfortranarray(base),
        "float16": base.astype(np.float16),
        "int64": base.astype(np.int64),
        "byteswapped": base.astype(">f4") if np.little_endian else base.astype("<f4"),
        "wrong-rows": base[:-1].copy(),
        "read-only": readonly,
        "3-d": base.reshape(n, 2, 2).copy(),
        "column-step": base[:, ::2],
    }


class TestLayouts:
    @pytest.mark.parametrize("layout", sorted(_refused_layouts(2)))
    def test_refuses_what_the_c_code_does_not_take(self, compiled, layout):
        tree = _chain_tree()
        walk = native.walker(tree)
        c = _refused_layouts(tree.n)[layout]
        before = c.copy()
        assert not walk(c)
        assert np.array_equal(c, before)

    def test_refused_scale_is_not_applied(self, compiled):
        tree = _chain_tree()
        walk = native.walker(tree)
        c = np.ones((tree.n, 3), dtype=np.float32)
        assert not walk(c, np.ones(tree.n, dtype=np.float64))
        assert not walk(c, np.ones(tree.n + 1, dtype=np.float32))
        assert np.array_equal(c, np.ones((tree.n, 3), dtype=np.float32))

    def test_plan_falls_back_on_a_refused_layout(self, compiled):
        plan = _dad_cbm().plan()
        c = np.asfortranarray(np.random.default_rng(6).integers(-4, 5, (N, 5)).astype(np.float32))
        want = np.ascontiguousarray(c)
        plan.apply_update(want)
        plan.apply_update(c)
        assert c.tobytes(order="C") == want.tobytes()
