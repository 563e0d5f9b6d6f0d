"""Property: the compiled candidate stage equals SciPy's ``A @ Aᵀ`` path
byte for byte — the same edges in the same order, with the same dtypes
— whatever the output capacity, down to buffers so small that the pass
resumes at almost every row.

Matrices are square or rectangular, with empty rows and columns, zero or
one row, duplicated rows, whose equal overlaps tie, and rows that touch
many others; their data is float, int8 or bool, which the SciPy path
must not sum in.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import distance
from repro.runtime import native
from repro.sparse.convert import from_dense

from tests.conftest import same_graph


@st.composite
def binary_matrices(draw, max_rows=14, max_cols=12):
    if draw(st.booleans()):
        n = draw(st.integers(0, max_rows))
        m = draw(st.integers(0, max_cols))
        d = draw(arrays(np.float32, (n, m), elements=st.sampled_from([0.0, 1.0])))
    else:
        # Big enough that rows touch more than 16 others, which the C code
        # orders by bitmap rather than by sorting.
        n, m = draw(st.integers(17, 300)), draw(st.integers(1, 40))
        density = draw(st.sampled_from([0.05, 0.2, 0.6]))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        d = (rng.random((n, m)) < density).astype(np.float32)
    if n >= 2:
        # Copy some rows over others: duplicated rows tie.
        rows = st.integers(0, n - 1)
        for src, dst in draw(st.lists(st.tuples(rows, rows), max_size=4)):
            d[dst] = d[src]
    return d


@given(
    d=binary_matrices(),
    dtype=st.sampled_from([np.float32, np.float64, np.int8, np.bool_]),
    alpha=st.sampled_from([None, 0, 1, 2, 8]),
)
@settings(max_examples=200, deadline=None)
def test_compiled_equals_scipy(d, dtype, alpha):
    if native.load() is None:
        pytest.skip("no C compiler: the compiled candidate stage is unavailable")
    a = from_dense(d, dtype=dtype)
    want = distance._scipy_candidates(a, alpha)
    for capacity in (None, 1, 2, max(1, a.shape[0] // 2)):
        g = distance._compiled_candidates(a, alpha, capacity=capacity)
        assert g is not None and same_graph(g, want), capacity
    assert same_graph(distance.candidate_edges(a, alpha), want)
