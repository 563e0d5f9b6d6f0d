"""The compiled kernels: :file:`walk.c` (the update stage),
:file:`candidates.c` (the candidate stage of construction) and
:file:`arborescence.c` (the Chu–Liu/Edmonds rounds of alpha > 0
construction), built into one library on first use and called through
:mod:`ctypes`.

:func:`load` compiles the C sources with the resident ``cc`` into a
per-user cache (``${XDG_CACHE_HOME:-~/.cache}/repro``, or a private
temp directory when that is unwritable) and loads the library, once per
process.  Its file name hashes every source, the flags and
``cc --version``, so a later process only loads it, and an edited source
or a different compiler builds a new file.  Concurrent builders each
compile into their own temp file and ``os.replace`` it into place, so no
reader sees a partial library and no lock is held across the compiler.

When the build or the load fails (no compiler, a compile error, an
unusable cache, a missing symbol), :func:`load` warns once and returns
None: plans run the NumPy level walk,
:func:`repro.core.distance.candidate_edges` SciPy's ``A @ Aᵀ`` and
:func:`repro.core.arborescence.minimum_arborescence` its NumPy rounds,
all with the same bits.  ``KernelPlan.describe()["update"]`` says which
walk a plan runs.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import os
import subprocess
import tempfile
import warnings
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.tree import CompressionTree

CC = "cc"
# -ffp-contract=off: gcc contracts a*b+c into an FMA by default on
# targets where FMA is baseline (aarch64, for one), which would round
# differently from NumPy.
FLAGS = ("-O3", "-shared", "-fPIC", "-ffp-contract=off")
SOURCES = ("walk.c", "candidates.c", "arborescence.c")
_COMPILE_TIMEOUT_S = 120.0
_WALKS = {
    np.dtype(np.float32): "cbm_walk_f32",
    np.dtype(np.float64): "cbm_walk_f64",
}
_WALK_ARGTYPES = [
    ctypes.c_void_p,  # c
    ctypes.c_int64,  # row stride, in elements
    ctypes.c_int64,  # width
    ctypes.c_void_p,  # rows
    ctypes.c_void_p,  # parents
    ctypes.c_int64,  # edges
    ctypes.c_void_p,  # row scale, or NULL
    ctypes.c_int64,  # n rows
]
# cbm_arborescence's status codes besides 0 (see arborescence.c).
ARBORESCENCE_NOMEM = -1
ARBORESCENCE_DIVERGED = -2
# Every symbol the library must export: name -> (argtypes, restype).
_SIGNATURES = {
    **{name: (_WALK_ARGTYPES, None) for name in _WALKS.values()},
    "cbm_candidates": (
        [
            ctypes.c_int64,  # first row
            ctypes.c_int64,  # end row
            ctypes.c_void_p,  # A indptr
            ctypes.c_void_p,  # A indices
            ctypes.c_void_p,  # Aᵀ indptr
            ctypes.c_void_p,  # Aᵀ indices
            ctypes.c_void_p,  # row nnz
            ctypes.c_int64,  # alpha, or -1 for the undirected filter
            ctypes.c_void_p,  # int32 counters, zeroed
            ctypes.c_void_p,  # touched-row scratch
            ctypes.c_void_p,  # row bitmap, zeroed
            ctypes.c_int64,  # output capacity, in edges
            ctypes.c_void_p,  # out: sources
            ctypes.c_void_p,  # out: destinations
            ctypes.c_void_p,  # out: weights
            ctypes.c_void_p,  # out: the first row not emitted
        ],
        ctypes.c_int64,
    ),
    "cbm_arborescence": (
        [
            ctypes.c_int64,  # n rows
            ctypes.c_int64,  # edges, the n virtual ones first
            ctypes.c_void_p,  # sources
            ctypes.c_void_p,  # destinations
            ctypes.c_void_p,  # weights
            ctypes.c_void_p,  # out: each row's chosen edge id
        ],
        ctypes.c_int64,
    ),
}


def source() -> bytes:
    """The C sources, read as package data (installed copies included)
    and joined into one translation unit; a ``#line`` marker before each
    makes compiler messages name its file."""
    files = resources.files(__package__)
    return b"".join(
        b'#line 1 "%s"\n' % name.encode() + files.joinpath(name).read_bytes() for name in SOURCES
    )


def cache_dir() -> Path | None:
    """``${XDG_CACHE_HOME:-~/.cache}/repro``, where :func:`load` keeps
    built libraries; None when it cannot be created or written."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    path = Path(base) / "repro"
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError:
        return None
    return path if os.access(path, os.W_OK | os.X_OK) else None


def build(directory: Path) -> Path:
    """Compile the C sources into one library in ``directory`` unless a
    build of the same sources, flags and compiler is already there;
    return its path.

    Raises :class:`OSError` or :class:`subprocess.SubprocessError` when
    there is no compiler or the compile fails.
    """
    src = source()
    version = subprocess.run(
        [CC, "--version"], capture_output=True, check=True, timeout=_COMPILE_TIMEOUT_S
    ).stdout
    key = hashlib.sha256(b"\0".join([src, " ".join(FLAGS).encode(), version])).hexdigest()
    target = Path(directory) / f"native-{key[:16]}.so"
    if target.exists():
        return target
    fd, tmp = tempfile.mkstemp(prefix=f".{target.name}.", suffix=".tmp", dir=directory)
    os.close(fd)
    try:
        subprocess.run(
            [CC, *FLAGS, "-o", tmp, "-x", "c", "-"],
            input=src,
            capture_output=True,
            check=True,
            timeout=_COMPILE_TIMEOUT_S,
        )
        os.replace(tmp, target)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
    return target


def _open(path: Path) -> ctypes.CDLL:
    lib = ctypes.CDLL(str(path))
    for name, (argtypes, restype) in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = restype
    return lib


@functools.cache
def load() -> ctypes.CDLL | None:
    """The compiled library, built on first use; None (after one
    warning) when it cannot be built or loaded with every symbol."""
    try:
        directory = cache_dir()
        if directory is not None:
            return _open(build(directory))
        # No usable cache: build in a private temp directory, which can
        # go once the library is mapped.
        with tempfile.TemporaryDirectory(prefix="repro-native-") as tmp:
            return _open(build(Path(tmp)))
    except (OSError, AttributeError, subprocess.SubprocessError) as exc:
        warnings.warn(
            f"compiled kernels unavailable ({exc}); plans use the NumPy level walk, "
            "candidate edges SciPy's A @ A.T and arborescences the NumPy rounds",
            RuntimeWarning,
            stacklevel=2,
        )
        return None


class NativeWalk:
    """The compiled walk bound to one tree's edge schedule.

    Binding a validated :class:`~repro.core.tree.CompressionTree`, not
    raw index arrays, is what keeps the C code in bounds: the tree has
    checked every parent index against its row count, no row is its own
    parent, and its schedule arrays are frozen.
    """

    __slots__ = ("_fns", "_rows", "_parents", "_n", "_schedule")

    def __init__(self, lib: ctypes.CDLL, tree: "CompressionTree"):
        # Held so the arrays outlive every call that reads them; no copy
        # unless the platform's index type is not int64.
        rows, parents = tree.edge_schedule()
        self._rows = np.ascontiguousarray(rows, dtype=np.int64)
        self._parents = np.ascontiguousarray(parents, dtype=np.int64)
        self._n = tree.n
        self._fns = {dt: getattr(lib, name) for dt, name in _WALKS.items()}
        self._schedule = (self._rows.ctypes.data, self._parents.ctypes.data, len(self._rows))

    def __call__(self, c: np.ndarray, scale: np.ndarray | None = None) -> bool:
        """Walk ``c`` in place, then scale its rows by ``scale`` if given,
        and return True; return False, leaving ``c`` untouched, when its
        dtype or layout is not one the C code takes.

        Taken: float32 or float64 in native byte order, 1-D, or 2-D with
        contiguous rows (any row stride, so column slices qualify), with
        the plan's row count.
        """
        fn = self._fns.get(c.dtype)
        if fn is None or c.ndim not in (1, 2) or c.shape[0] != self._n:
            return False
        if not (c.flags.writeable and c.flags.aligned):
            return False
        width = 1 if c.ndim == 1 else c.shape[1]
        if width > 1 and c.strides[1] != c.itemsize:
            return False
        stride, misaligned = divmod(c.strides[0], c.itemsize)
        if misaligned or (self._n > 1 and stride < width):
            return False
        if scale is not None and (
            scale.dtype != c.dtype or scale.shape != (self._n,) or not scale.flags.c_contiguous
        ):
            return False
        fn(
            c.ctypes.data,
            stride,
            width,
            *self._schedule,
            None if scale is None else scale.ctypes.data,
            self._n,
        )
        return True


def walker(tree: "CompressionTree") -> NativeWalk | None:
    """:class:`NativeWalk` over ``tree``, or None when the library is
    unavailable."""
    lib = load()
    return None if lib is None else NativeWalk(lib, tree)
