"""The graph step read from row blocks equals the graph step on the dense cost.

:class:`crossprop.graph.RowBlockCost` computes the cost matrix a few rows at
a time.  Here the block size is forced down to 1-3 rows, so blocks end at
every position around ``n_source`` and the last block of each side is often
partial.  Coordinates and soft labels are small integers and ``sqrt(beta)``
is exact, so every cost is exact in both forms, ties are common and the
rows and multipliers must agree bit for bit.
The last tests run whole fits, a graph step and a harmonic solve under
``tracemalloc``: none of them holds an ``n x n`` array, and the graph step
holds about two row blocks, on one worker or several.
"""

import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crossprop as cp
import crossprop.graph
import crossprop.linalg
from crossprop.graph import RowBlockCost, cost_space, quadratic_charge

from conftest import csr_rows, rowwise_quadratic_charge


@contextmanager
def blocks_of(rows, n_cols):
    """Row blocks of ``rows`` rows for matrices with ``n_cols`` columns."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(crossprop.linalg, "BLOCK_BYTES", 8 * n_cols * rows)
        yield


@st.composite
def cost_problems(draw):
    """``(Z, F, beta, source_labels, k, delta, structured)`` on integer coordinates."""
    n_s = draw(st.integers(1, 8))
    n_t = draw(st.integers(1, 8))
    n = n_s + n_t
    d = draw(st.integers(1, 3))
    Z = np.array(draw(st.lists(st.integers(-2, 2), min_size=d * n, max_size=d * n)))
    F = None
    if draw(st.booleans()):
        F = np.array(draw(st.lists(st.integers(0, 1), min_size=2 * n, max_size=2 * n)))
        F = F.reshape(n, 2).astype(float)
    beta = draw(st.sampled_from([0.0, 0.25, 1.0]))
    labels = np.array(draw(st.lists(st.integers(0, 2), min_size=n_s, max_size=n_s)))
    k = draw(st.integers(1, n + 1))
    delta = draw(st.sampled_from([0.0, 0.8, 1.0]))
    structured = draw(st.booleans())
    return Z.reshape(d, n).astype(float), F, beta, labels, k, delta, structured


def assert_same_rows(graph, expected):
    S, R = graph.rows, expected.rows
    assert S.has_canonical_format
    for a, b in ((S.indptr, R.indptr), (S.indices, R.indices), (S.data, R.data)):
        np.testing.assert_array_equal(a, b, strict=True)


def assert_invariants(graph, labels, k, delta):
    S = graph.rows
    np.testing.assert_allclose(S.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
    assert np.all(S.data > 0.0)
    assert np.all(S.diagonal() == 0.0)
    rows = csr_rows(S)
    if graph.source_labels is None:
        assert all(cols.size <= k for cols, _ in rows)
        return
    n_s = labels.size
    for i, (cols, weights) in enumerate(rows):
        if i >= n_s:
            assert cols.size <= k
            continue
        src = cols < n_s
        singleton = np.count_nonzero(labels == labels[i]) == 1
        mass = 0.0 if singleton else delta
        assert abs(weights[src].sum() - mass) <= 1e-12
        assert np.count_nonzero(src) <= k and np.count_nonzero(~src) <= k
        assert np.all(labels[cols[src]] == labels[i])


@settings(max_examples=300, deadline=None)
@given(cost_problems(), st.integers(1, 3))
def test_row_blocks_equal_dense_cost(problem, block):
    Z, F, beta, labels, k, delta, structured = problem
    n = Z.shape[1]
    mask = labels if structured else None
    dense = cp.affinity_cost(Z, F, beta, mask)
    expected = cp.build_graph(dense, k, delta, mask)
    with blocks_of(block, n):
        cost = RowBlockCost(cost_space(Z, F, beta))
        graph = cp.build_graph(cost, k, delta, mask)
        streamed = quadratic_charge(cost, graph)
        blocked_dense = cp.build_graph(dense, k, delta, mask)
    for built in (graph, blocked_dense):
        assert_same_rows(built, expected)
        np.testing.assert_array_equal(built.multipliers, expected.multipliers, strict=True)
    charge = quadratic_charge(dense, graph)
    assert quadratic_charge(cost, graph) == pytest.approx(charge, rel=1e-12, abs=0.0)
    assert streamed == pytest.approx(charge, rel=1e-12, abs=0.0)
    assert_invariants(graph, labels, k, delta)


@settings(max_examples=100, deadline=None)
@given(cost_problems(), st.integers(1, 3))
def test_charge_skips_edges_the_dense_cost_masks(problem, block):
    # An unstructured graph has edges between source classes.  A
    # RowBlockCost masks nothing, so it charges them as the unmasked dense
    # cost does; under the class mask they cost +inf and carry no charge.
    Z, F, beta, labels, k, delta, _ = problem
    unmasked = cp.affinity_cost(Z, F, beta)
    masked = cp.affinity_cost(Z, F, beta, labels)
    loose = cp.build_graph(unmasked, k, delta, None)
    with blocks_of(block, Z.shape[1]):
        streamed = quadratic_charge(RowBlockCost(cost_space(Z, F, beta)), loose)
        charge = quadratic_charge(masked, loose)
    expected = quadratic_charge(unmasked, loose)
    assert streamed == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert charge == pytest.approx(
        rowwise_quadratic_charge(masked, loose), rel=1e-12, abs=0.0
    )


@settings(max_examples=100, deadline=None)
@given(cost_problems(), st.integers(1, 3))
def test_objective_without_a_cost_matrix_reads_row_blocks(problem, block):
    Z, F, beta, labels, k, delta, structured = problem
    n = Z.shape[1]
    mask = labels if structured else None
    graph = cp.build_graph(cp.affinity_cost(Z, F, beta, mask), k, delta, mask)
    X = np.vstack([Z, np.ones((1, n))])
    P = np.eye(X.shape[0])[:, : Z.shape[0]]
    E = np.ones((n, 1)) / n
    args = (P, graph, F, X, E, 1.0, beta, 0.1)
    dense = cp.objective(*args, cost_matrix=cp.affinity_cost(Z, F, beta, mask))
    with blocks_of(block, n):
        value = cp.objective(*args)
    assert value == pytest.approx(dense, rel=1e-12, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 12).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(-2, 2), min_size=2 * n, max_size=2 * n),
            st.integers(1, n + 1),
            st.integers(1, 3),
        )
    )
)
def test_gaussian_knn_rows_do_not_depend_on_the_block_size(problem):
    values, k, block = problem
    Z = np.array(values, dtype=float).reshape(2, -1)
    expected = cp.gaussian_knn_graph(Z, k)
    with blocks_of(block, Z.shape[1]):
        graph = cp.gaussian_knn_graph(Z, k)
    assert_same_rows(graph, expected)


@settings(max_examples=100, deadline=None)
@given(
    st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
        lambda pq: st.tuples(
            st.lists(st.integers(-2, 2), min_size=sum(pq), max_size=sum(pq)),
            st.just(pq[0]),
            st.integers(1, 3),
        )
    )
)
def test_blocked_nearest_neighbor_matches_dense_argmin(problem):
    values, p, block = problem
    Z = np.array(values, dtype=float).reshape(1, -1)
    labels = np.arange(p) * 10
    D = cp.pairwise_sq_dists(Z)[p:, :p]
    with blocks_of(block, p):
        predicted = cp.nearest_neighbor(Z[:, :p], labels, Z[:, p:])
    np.testing.assert_array_equal(predicted, labels[np.argmin(D, axis=1)])


def _no_dense_distances(Z):
    raise AssertionError("an n x n distance matrix was built")


@pytest.mark.parametrize("ablation", ["full", "sp", "dg", "ds"])
def test_fit_holds_no_n_by_n_array(monkeypatch, ablation):
    ds = cp.gen_synthetic_shift(
        0, per_class=334, n_classes=3, rotation_deg=35.0, shift=(2.0, 1.0)
    )
    n = ds.n_samples
    params = cp.HyperParams(k=20, iterations=2, ablation=ablation)
    monkeypatch.setattr(crossprop.graph, "pairwise_sq_dists", _no_dense_distances)
    tracemalloc.start()
    try:
        cp.fit(ds, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert n >= 2000
    assert peak < 8 * n * n


@pytest.mark.parametrize(
    "mib, cores",
    [
        pytest.param(mib, w, id=f"{mib}-{w}w" if w > 1 else str(mib))
        for w in (1, 2, 4)
        for mib in (1, 4)
    ],
)
def test_graph_step_holds_about_three_row_blocks(monkeypatch, mib, cores):
    # The graph step's peak is its working set: each worker's cost block and
    # work block, of BLOCK_BYTES / w each for a pass cut for w workers, which
    # the calling thread allocates once per pass.  Four cores still run on
    # at most MAX_WORKERS workers.  The work block holds the gathered
    # coordinates, then the partitioned copy of the costs and then the mask
    # of each row's picks, so no worker allocates a block of its own.
    monkeypatch.setattr(crossprop.graph, "_worker_count", lambda: cores)
    ds = cp.gen_synthetic_shift(
        0, per_class=500, n_classes=3, rotation_deg=35.0, shift=(2.0, 1.0)
    )
    n = ds.n_samples
    F = np.random.default_rng(0).dirichlet(np.ones(ds.n_classes), size=n)
    with blocks_of((mib << 20) // (8 * n), n):
        cost = RowBlockCost(cost_space(ds.features, F, 0.1))
        tracemalloc.start()
        try:
            graph = cp.build_graph(cost, 20, 0.8, ds.source_labels)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block_bytes = crossprop.linalg.BLOCK_BYTES
    assert n == 3000
    assert graph.rows.shape == (n, n)
    assert peak - retained < 3.5 * block_bytes


def test_harmonic_solve_holds_no_free_by_free_array():
    ds = cp.gen_synthetic_shift(
        0, per_class=667, n_classes=3, rotation_deg=35.0, shift=(2.0, 1.0)
    )
    graph = cp.init_graph(ds.features, 20, 0.8, ds.source_labels)
    L = crossprop.graph.sparse_laplacian(graph)
    clamped = cp.one_hot(ds.source_labels, ds.n_classes)
    n_free = ds.n_samples - ds.n_source
    tracemalloc.start()
    try:
        F = cp.harmonic_solve(L, clamped)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert n_free >= 2000
    assert F.shape == (n_free, ds.n_classes)
    assert peak < 8 * n_free * n_free
