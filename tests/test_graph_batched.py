"""Property tests: the batched graph step equals its row-by-row form.

Costs are small integers, so ties at the boundary cost ``a[k]`` and rows
whose nearest costs are all equal (degenerate denominators) are common;
labels are drawn from a few classes, so singleton source classes and blocks
no larger than ``k`` appear as well.
"""

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import crossprop as cp
from crossprop.graph import quadratic_charge

from conftest import csr_rows, rowwise_graph_rows, rowwise_quadratic_charge


@st.composite
def graph_problems(draw):
    """``(A, k, delta, source_labels, structured)`` with integer-valued costs."""
    n_s = draw(st.integers(1, 8))
    n_t = draw(st.integers(1, 8))
    n = n_s + n_t
    labels = np.array(draw(st.lists(st.integers(0, 2), min_size=n_s, max_size=n_s)))
    values = draw(st.lists(st.integers(0, 3), min_size=n * n, max_size=n * n))
    structured = draw(st.booleans())
    A = np.array(values, dtype=float).reshape(n, n)
    if structured:
        A[:n_s, :n_s][labels[:, None] != labels[None, :]] = np.inf
    np.fill_diagonal(A, np.inf)
    k = draw(st.integers(1, n + 1))
    delta = draw(st.sampled_from([0.0, 0.8, 1.0]))
    return A, k, delta, labels, structured


def assert_rows_equal(graph, expected):
    n = len(expected)
    S = graph.rows
    assert isinstance(S, scipy.sparse.csr_array)
    assert S.shape == (n, n)
    assert S.has_canonical_format
    assert S.indices.dtype == S.indptr.dtype == np.intp
    assert graph.n_samples == n
    for (cols, weights), (ref_cols, ref_weights) in zip(csr_rows(S), expected):
        assert cols.dtype == ref_cols.dtype
        np.testing.assert_array_equal(cols, ref_cols, strict=True)
        np.testing.assert_array_equal(weights, ref_weights, strict=True)


@settings(max_examples=300, deadline=None)
@given(graph_problems())
def test_batched_rows_equal_rowwise_rows(problem):
    A, k, delta, labels, structured = problem
    graph = cp.build_graph(A, k, delta, labels, structured=structured)
    expected = rowwise_graph_rows(A, k, delta, labels, structured=structured)
    assert_rows_equal(graph, expected)


@settings(max_examples=300, deadline=None)
@given(graph_problems())
def test_batched_charge_matches_rowwise_loop(problem):
    A, k, delta, labels, structured = problem
    graph = cp.build_graph(A, k, delta, labels, structured=structured)
    expected = rowwise_quadratic_charge(A, graph)
    assert quadratic_charge(A, graph) == pytest.approx(expected, rel=1e-12, abs=0.0)


@settings(max_examples=100, deadline=None)
@given(graph_problems(), st.integers(0, 2**32 - 1))
def test_batched_rows_equal_rowwise_rows_on_real_costs(problem, seed):
    # Continuous costs make almost every row generic, so this exercises the
    # batched path rather than the fallback rows.
    A, k, delta, labels, structured = problem
    finite = np.isfinite(A)
    A[finite] = np.random.default_rng(seed).random(int(finite.sum()))
    graph = cp.build_graph(A, k, delta, labels, structured=structured)
    expected = rowwise_graph_rows(A, k, delta, labels, structured=structured)
    assert_rows_equal(graph, expected)
    assert quadratic_charge(A, graph) == pytest.approx(
        rowwise_quadratic_charge(A, graph), rel=1e-12, abs=0.0
    )


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 12).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(-2, 2), min_size=2 * n, max_size=2 * n),
            st.integers(1, n + 1),
            st.sampled_from([0.05, 1.0]),
        )
    )
)
def test_gaussian_knn_rows_equal_rowwise_rows(problem):
    # Integer coordinates tie many distances; a narrow width underflows
    # every kernel weight of far-away rows to zero.
    values, k, width = problem
    Z = np.array(values, dtype=float).reshape(2, -1)
    graph = cp.gaussian_knn_graph(Z, k, n_source=0, width=width)
    D = cp.pairwise_sq_dists(Z)
    np.fill_diagonal(D, np.inf)
    expected = []
    for i in range(D.shape[0]):
        cols = np.sort(np.argsort(D[i], kind="stable")[: graph.k])
        weights = np.exp(-D[i, cols] / (2.0 * width**2))
        total = weights.sum()
        if total <= 0.0:
            weights = np.full(cols.size, 1.0 / cols.size)
        else:
            weights = weights / total
        expected.append((cols, weights))
    assert_rows_equal(graph, expected)
