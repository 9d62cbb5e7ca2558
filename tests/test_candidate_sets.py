"""The graph step reads each row's candidates only.

A structured source row of class ``c`` is read against its own class's
source columns and the target columns, every other row against all columns.
These tests check that no cross-class source cost is computed or used, that
the builders keep the unit-row-sum invariant by rejecting a bad ``delta``,
and that reading the candidates copies no more of the sample coordinates
than the graph step did before.
"""

import tracemalloc

import numpy as np
import pytest

import crossprop as cp
import crossprop.graph
from crossprop.exceptions import ArgumentError
from crossprop.graph import RowBlockCost


def cross_class_source_edges(graph, labels):
    rows, cols, _ = graph.edges()
    src = (rows < labels.size) & (cols < labels.size)
    return int(np.count_nonzero(labels[rows[src]] != labels[cols[src]]))


@pytest.mark.parametrize("dense", [False, True], ids=["row_blocks", "dense"])
def test_structured_graph_takes_no_cross_class_source_edge_from_an_unmasked_cost(dense):
    # The cost names no classes, so only build_graph's labels keep the
    # source part of the graph block-diagonal.
    Z = np.random.default_rng(0).standard_normal((2, 24))
    labels = np.repeat([0, 1, 2], 4)
    cost = cp.affinity_cost(Z, None, 0.0) if dense else RowBlockCost(Z, None, 0.0)
    graph = cp.build_graph(cost, 3, 0.8, labels)
    assert cross_class_source_edges(graph, labels) == 0
    masked = cp.build_graph(cp.affinity_cost(Z, None, 0.0, labels), 3, 0.8, labels)
    np.testing.assert_allclose(graph.toarray(), masked.toarray(), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("delta", [1.5, -0.5, np.nan, np.inf])
def test_builders_reject_delta_outside_the_unit_interval(delta):
    X = np.random.default_rng(1).standard_normal((2, 10))
    labels = np.array([0, 0, 1, 1, 1])
    with pytest.raises(ArgumentError):
        cp.build_graph(cp.affinity_cost(X, None, 0.0, labels), 2, delta, labels)
    with pytest.raises(ArgumentError):
        cp.build_graph(RowBlockCost(X, None, 0.0), 2, delta, None)
    with pytest.raises(ArgumentError):
        cp.init_graph(X, 2, delta, labels)


def test_graph_step_computes_no_cross_class_cost(monkeypatch):
    rng = np.random.default_rng(2)
    labels = np.array([2, 0, 1, 0, 2, 1, 1, 0, 2, 2])
    n_s, n_t = labels.size, 7
    n = n_s + n_t
    Z = rng.standard_normal((3, n))
    F = rng.dirichlet(np.ones(3), size=n)
    computed = []
    compute = crossprop.graph.sq_dists_into

    def counting(out, left, B):
        computed.append(out.size)
        return compute(out, left, B)

    monkeypatch.setattr(crossprop.graph, "sq_dists_into", counting)
    cost = RowBlockCost(Z, F, 0.1)
    graph = cp.build_graph(cost, 3, 0.8, labels)
    sizes = np.bincount(labels)
    # One feature and one label product per block.
    assert sum(computed) == 2 * (int(np.sum(sizes * (sizes + n_t))) + n_t * n)
    assert cross_class_source_edges(graph, labels) == 0


def test_structured_init_graph_on_wide_features_copies_no_more_coordinates():
    # The sda-wide shape: 800-D, 10 classes, 900 source and 900 target
    # samples, the sources in shuffled class order.  The transient is the
    # coordinates with two extra rows (11.5 MB), one block of costs and one
    # index block (4.2 MB each): 20.3 MB both with all n columns per row and
    # with candidate sets.  Copying every candidate column set instead of
    # viewing the consecutive ones measured 33.6 MB.
    ds = cp.gen_synthetic_shift(
        0, per_class=90, n_classes=10, rotation_deg=10.0, shift=(2.0, 1.0), dim=800
    )
    order = np.random.default_rng(0).permutation(ds.n_source)
    X = ds.features.copy(order="K")
    X[:, : ds.n_source] = ds.features[:, order]
    labels = ds.source_labels[order]
    tracemalloc.start()
    try:
        graph = cp.init_graph(X, 20, 0.8, labels)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert X.shape == (800, 1800)
    assert cross_class_source_edges(graph, labels) == 0
    assert peak - retained < 21e6
