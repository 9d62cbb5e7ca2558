"""Fallback rows of the graph step take uniform weights in one pass per block.

A source class of 6 samples leaves each of its rows 5 same-class peers, no
more than ``k``, so its source block falls back to uniform weights.  At
``delta = 0.8`` the reference share is ``0.8 * (1 / 5)``, which differs in
the last bit from ``0.8 / 5``, so the comparison with the row-by-row
reference is exact arithmetic.  Integer costs add rows whose ``k + 1``
nearest costs are all equal (degenerate denominators), where the weights go
to the ``k`` nearest with ties to the lower column.
"""

import numpy as np
import pytest

import crossprop as cp
from crossprop import graph as graph_module

from conftest import csr_rows, rowwise_graph_rows

DELTA = 0.8


def two_small_classes(rng):
    """Dense structured cost: source classes of 6 and 6 samples, 30 targets."""
    labels = np.repeat([0, 1], 6)
    Z = rng.standard_normal((3, labels.size + 30))
    return cp.affinity_cost(Z, None, 0.0, labels), labels


def tied_integer_costs(rng):
    """Dense structured cost with integer entries in {0, 1}: many flat rows."""
    labels = np.repeat([0, 1], 6)
    n = labels.size + 30
    A = rng.integers(0, 2, size=(n, n)).astype(float)
    A[: labels.size, : labels.size][labels[:, None] != labels[None, :]] = np.inf
    np.fill_diagonal(A, np.inf)
    return A, labels


def _refuse(*args, **kwargs):
    raise AssertionError("the graph step must not weigh rows one at a time")


@pytest.mark.parametrize("make_cost", [two_small_classes, tied_integer_costs])
@pytest.mark.parametrize("k", [5, 6, 8])
def test_fallback_rows_equal_the_rowwise_reference_without_a_row_loop(
    rng, monkeypatch, make_cost, k
):
    A, labels = make_cost(rng)
    expected = rowwise_graph_rows(A, k, DELTA, labels)
    monkeypatch.setattr(graph_module, "_block_weights", _refuse)
    graph = cp.build_graph(A, k, DELTA, labels)
    rows = csr_rows(graph.rows)
    for (cols, weights), (ref_cols, ref_weights) in zip(rows, expected, strict=True):
        np.testing.assert_array_equal(cols, ref_cols, strict=True)
        np.testing.assert_array_equal(weights, ref_weights, strict=True)
    if make_cost is two_small_classes:
        for cols, weights in rows[: labels.size]:
            source = cols < labels.size
            assert np.count_nonzero(source) == 5
            np.testing.assert_array_equal(weights[source], DELTA * (1.0 / 5))
